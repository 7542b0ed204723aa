"""The start and loop settings of each fit the library runs internally.

The batch-against-row tests read these policies from the library, so each
is written out here alone: a change of policy fails its one test here.
"""

import numpy as np
import pytest

from lqglm import FitControl, LinearHypothesis, QGrid, SimDesign, score_test
from lqglm import select_q_stability, simulation_envelope


def _record(monkeypatch, module, name):
    """The arguments after the first of every call to ``module.name``."""
    calls, fn = [], getattr(module, name)

    def recording(*args):
        calls.append(args[1:])
        return fn(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_study_fits_by_scoring_to_the_objective_rule(monkeypatch):
    # every block starts warm once, then each q-stage chains from it
    from lqglm import simulate

    starts, fits = _record(monkeypatch, simulate, "_start"), _record(monkeypatch, simulate, "_fit")
    simulate._replicates(SimDesign(n=50, reps=3, q_list=(1.0, 0.9)), range(3))
    policy = FitControl(q=1.0, max_iter=100, tol=1e-8, init="ml-warm-start",
                        stop_rule="objective", solver="scoring")
    assert (simulate.MAX_ITER, simulate.TOL) == (100, 1e-8)
    assert starts == [(policy,)]
    assert [(q, control) for q, control, _ in fits] == [(1.0, policy), (0.9, policy)]


@pytest.mark.parametrize("given,want", [
    (None, FitControl(q=0.9)),
    (FitControl(q=0.5, max_iter=30, tol=1e-9, init=np.zeros(3), stop_rule="coef-psi",
                solver="newton"),
     FitControl(q=0.9, max_iter=30, tol=1e-9, stop_rule="coef-psi", solver="newton"))],
    ids=["default", "given"])
def test_constrained_fit_takes_the_warm_path(poisson_example, monkeypatch, given, want):
    # one fit at the test's q from _fit's default start, the q = 1 fit from
    # the classical start, under the caller's other loop settings
    from lqglm import diagnostics

    calls = _record(monkeypatch, diagnostics, "_fit")
    score_test(poisson_example, LinearHypothesis([[0.0, 1.0, -1.0]], [0.0]), 0.9, given)
    assert calls == [(0.9, want)]


@pytest.mark.parametrize("given,want", [
    (None, FitControl(q=0.79)),
    (FitControl(q=0.5, max_iter=30, init=np.zeros(3)), FitControl(q=0.79, max_iter=30))],
    ids=["default", "other-q"])
def test_envelope_refits_start_warm_at_the_fit_q(vaso, vaso_79, monkeypatch, given, want):
    # each block of refits at fit.q from _fit's default start, the q = 1
    # fit from the classical start, not from the fit's coefficients
    from lqglm import diagnostics

    calls = _record(monkeypatch, diagnostics, "_fit")
    simulation_envelope(vaso, vaso_79, kind="deviance", reps=70, seed=3, control=given)
    assert calls == [(0.79, want)] * 2


def test_grid_fits_by_newton_from_the_warm_start(vaso, monkeypatch):
    # by default Newton steps, at most 100 iterations, the objective rule at
    # tol 1e-8; a given control keeps its loop settings; both start warm
    from lqglm import qselect

    calls = _record(monkeypatch, qselect, "_fit_grid")
    for given in (None, FitControl(q=0.5, max_iter=60, init=np.zeros(3))):
        select_q_stability(vaso, QGrid(q_min=0.9, step=0.05), given)
    assert [control for _, control in calls] == [
        FitControl(q=1.0, max_iter=100, tol=1e-8, init="ml-warm-start", stop_rule="objective",
                   solver="newton"),
        FitControl(q=0.5, max_iter=60)]
