from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lqglm import (
    FitControl,
    ModelData,
    PowerThetaLink,
    QGrid,
    SelectionError,
    SingularMatrixError,
    are,
    fisher_information,
    fit_mlq,
    rng_stream,
    select_q_efficiency,
    select_q_stability,
)
from lqglm.datasets import vaso_model_data
from conftest import fit_result, stack, staged_fits


class TestAre:
    def test_unity_at_q1(self, vaso, vaso_ml):
        assert abs(are(vaso_ml) - 1.0) < 1e-10

    def test_fit_without_data_is_refused(self, vaso_79):
        from dataclasses import replace

        from lqglm import UsageError

        with pytest.raises(UsageError, match="^fit does not carry its data$"):
            are(replace(vaso_79, data=None))

    def test_vaso_in_unit_interval(self, vaso, vaso_79):
        val = are(vaso_79)
        assert 0.0 < val < 1.0

    def test_scalar_gaussian_closed_form(self):
        # p = 1, canonical Gaussian, X a column of ones:
        # ARE = (2 - q) * exp(phi q (1-q) theta*^2 / 2), by scalar algebra
        rng = rng_stream(81, 0)
        n, q = 50, 0.8
        X = np.ones((n, 1))
        y = rng.normal(1.2, 1.0, size=n)
        data = ModelData(X, y, "gaussian", phi=1.0)
        fit = fit_mlq(data, FitControl(q=q, stop_rule="coef-psi", max_iter=200))
        theta_star = float(fit.beta_star[0])
        expected = (2.0 - q) * np.exp(q * (1.0 - q) * theta_star**2 / 2.0)
        assert_allclose(are(fit), expected, rtol=1e-8)


class TestStabilitySelection:
    def test_vaso_selects_near_079(self, vaso):
        sel = select_q_stability(vaso, QGrid(q_min=0.70, step=0.01))
        assert 0.77 <= sel.q_opt <= 0.81
        assert sel.rho > 0
        assert len(sel.qv_profile) >= 25

    def test_clean_poisson_majority_selects_near_one(self):
        # no contamination: the path is stable and the rule returns the
        # head of the grid in the clear majority of datasets
        wins = 0
        for s in range(100):
            rng = rng_stream(90, s)
            X = rng.uniform(size=(100, 3))
            y = rng.poisson(np.exp(X @ np.ones(3))).astype(float)
            data = ModelData(X, y, "poisson")
            sel = select_q_stability(data, QGrid(q_min=0.90, step=0.01))
            wins += sel.q_opt >= 0.99
        assert wins > 50

    def test_vaso_grid_takes_newton_iterations(self, vaso):
        # the grid's Newton default: one batch from the q = 1 fit, which runs
        # as long as its slowest row (9 iterations); under the scoring default
        # the 25-iteration cap drops 10 of the 31 values
        sel = select_q_stability(vaso, QGrid(q_min=0.70, step=0.01))
        assert sel.q_opt == 0.79 and not sel.dropped
        assert max(f["iterations"] for f in sel.fits.values()) <= 10

    def test_constant_fits_select_grid_head(self):
        X = np.column_stack([np.ones(12), np.linspace(-1, 1, 12)])
        data = ModelData(X, np.zeros(12), "gaussian")
        sel = select_q_stability(data, QGrid(q_min=0.90, step=0.02))
        assert sel.q_opt == 1.0
        assert all(v == 0.0 for v in sel.qv_profile.values())

    def test_deterministic(self, vaso):
        a = select_q_stability(vaso, QGrid(q_min=0.75, step=0.01))
        b = select_q_stability(vaso, QGrid(q_min=0.75, step=0.01))
        assert a.q_opt == b.q_opt
        assert a.rho == b.rho
        assert a.qv_profile == b.qv_profile

    def test_selection_error_when_grid_collapses(self):
        # two-point separated design: every low-q fit fails to converge
        X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
        y = np.r_[np.zeros(6), np.ones(6)]
        data = ModelData(X, y, "bernoulli")
        ctl = FitControl(q=1.0, stop_rule="coef-psi", max_iter=30)
        with pytest.raises(SelectionError):
            with pytest.warns(UserWarning):
                select_q_stability(data, QGrid(q_min=0.96, step=0.01), control=ctl)

    def test_selection_error_names_the_dropped_values(self, vaso):
        # the reasons of the first SHOWN_DROPPED values, then a count
        from lqglm.qselect import SHOWN_DROPPED

        with pytest.warns(UserWarning):
            with pytest.raises(SelectionError) as short:
                select_q_stability(vaso, QGrid(q_values=[0.79, 0.78]), FitControl(max_iter=5))
        assert str(short.value) == (
            "only 0 grid fits converged; selection needs at least 3 (dropped "
            "q=0.79: no convergence within 5 iterations; "
            "q=0.78: no convergence within 5 iterations)")
        messages = []
        for q_min in (0.9, 0.5):
            with pytest.warns(UserWarning):
                with pytest.raises(SelectionError) as long:
                    select_q_stability(vaso, QGrid(q_min=q_min, step=0.01), FitControl(max_iter=2))
            messages.append(str(long.value))
        assert messages[0].count("q=") == messages[1].count("q=") == SHOWN_DROPPED
        assert messages[0].endswith("; 8 more)") and messages[1].endswith("; 48 more)")

    def test_unexpected_errors_propagate(self, vaso, monkeypatch):
        # only package errors mark a grid value as dropped; anything else
        # is a defect and must surface
        def broken(prob, q, res):
            raise RuntimeError("broken fit")

        # the grid's result assembly evaluates every solution through _fitted
        monkeypatch.setattr("lqglm.fit._fitted", broken)
        with pytest.raises(RuntimeError, match="broken fit"):
            select_q_stability(vaso, QGrid(q_min=0.90, step=0.05))

    def test_noncanonical_link_moves_on_scaled_predictors(self):
        from lqglm.qselect import _grid_fits

        # a non-canonical link has coefficients at q = 1 only: every grid
        # value, the head included, is compared by eta_q / sqrt(n)
        rng = rng_stream(5, 0)
        X = np.column_stack([np.ones(80), rng.uniform(-1, 1, size=80)])
        data = ModelData(X, rng.normal(X @ np.array([0.5, 1.0]), 0.5), "gaussian",
                         PowerThetaLink(3))
        grid = QGrid(q_min=0.8, step=0.02)
        res = select_q_stability(data, grid)
        fits, _ = _grid_fits(data, grid, None)
        scaled = {q: fit.eta_q / np.sqrt(80) for q, fit in fits.items()}
        assert len(scaled) == 11 and fits[1.0].beta_q is not None
        assert res.qv_profile[1.0] == np.linalg.norm(scaled[1.0] - scaled[0.98])
        assert res.rho == 0.05 * np.linalg.norm(scaled[0.8])


class TestEfficiencySelection:
    def test_clean_bernoulli_majority_near_one(self):
        # On uncontaminated data the sandwich trace is smallest near q = 1
        # for the logistic model (for the Gaussian family the trace formula
        # is monotone in q through the J factor alone, so the rule pins the
        # grid bottom there; the working-model ordering holds for the
        # family whose surrogate weights drive the comparison).
        wins = 0
        for s in range(100):
            rng = rng_stream(91, s)
            X = np.column_stack([np.ones(80), rng.uniform(-1.5, 1.5, size=80)])
            p = 1.0 / (1.0 + np.exp(-(X @ np.array([0.3, 0.9]))))
            y = (rng.uniform(size=80) < p).astype(float)
            data = ModelData(X, y, "bernoulli")
            sel = select_q_efficiency(data, QGrid(q_min=0.90, step=0.01))
            wins += sel.q_opt >= 0.99
        assert wins > 50

    def test_single_value_grid(self, vaso):
        sel = select_q_efficiency(vaso, QGrid(q_values=[0.9]))
        assert sel.q_opt == 0.9

    def test_single_value_grid_uses_the_grid_default(self, vaso):
        # Newton with the grid's iteration cap converges at q = 0.79
        sel = select_q_efficiency(vaso, QGrid(q_values=[0.79]))
        assert sel.q_opt == 0.79 and sel.fits[0.79]["converged"]

    def test_single_value_grid_rejects_a_nonconverged_fit(self, vaso):
        with pytest.raises(SelectionError, match="no convergence within 25 iterations"):
            select_q_efficiency(vaso, QGrid(q_values=[0.79]), FitControl(max_iter=25))

    def test_single_value_grid_uses_the_control(self, vaso):
        # the default 25-iteration cap stops the q = 0.79 fit short
        ctl = FitControl(max_iter=100)
        fit = fit_mlq(vaso, FitControl(q=0.79, max_iter=100))
        summary = select_q_efficiency(vaso, QGrid(q_values=[0.79]), ctl).fits[0.79]
        assert fit.converged and summary["converged"]
        assert summary["iterations"] == fit.iterations
        assert summary["beta_q"] == fit.beta_q.tolist()

    def test_two_value_grid_selects(self, vaso):
        # efficiency needs min(3, grid length) converged fits
        sel = select_q_efficiency(vaso, QGrid(q_min=0.95, step=0.05))
        assert list(sel.qv_profile) == [1.0, 0.95] and not sel.dropped
        assert sel.q_opt == min(sel.qv_profile, key=sel.qv_profile.get) == 1.0

    def test_single_value_grid_ignores_the_init(self, vaso):
        # a one-value grid is warm-started like every grid, whatever the
        # control's init; from zeros the q = 0.79 fit takes 32 iterations
        from lqglm.qselect import _summary

        ctl = FitControl(max_iter=100, init=np.zeros(3))
        sel = select_q_efficiency(vaso, QGrid(q_values=[0.79]), ctl)
        warm = fit_mlq(vaso, FitControl(q=0.79, max_iter=100))
        assert fit_mlq(vaso, FitControl(q=0.79, max_iter=100, init=np.zeros(3))).iterations == 32
        assert sel.fits == {0.79: _summary(warm)} and warm.iterations == 29
        assert sel.qv_profile == {0.79: float(np.trace(warm.cov))}

    def test_degenerate_traces_are_nonnegative(self):
        # the kept q <= 0.85 fits are degenerate, with traces within roundoff
        # of zero; cov = B_n^{-1} / (2 - q) keeps each one nonnegative
        with pytest.warns(UserWarning):
            sel = select_q_efficiency(_failing_grid_data("poisson", 67),
                                      QGrid(q_min=0.5, step=0.05), FitControl())
        assert min(sel.qv_profile.values()) >= 0.0
        assert sel.q_opt == 0.7 == min(sel.qv_profile, key=sel.qv_profile.get)

    def test_vaso_profile_recorded(self, vaso):
        sel = select_q_efficiency(vaso, QGrid(q_min=0.85, step=0.05))
        assert sel.method == "efficiency"
        assert len(sel.qv_profile) >= 3  # trace profile exposed for audit


class TestGridMechanics:
    def test_invalid_grid_rejected(self):
        from lqglm import UsageError

        with pytest.raises(UsageError):
            QGrid(q_values=[1.2, 0.9])
        with pytest.raises(UsageError):
            QGrid(q_values=[])
        with pytest.raises(UsageError, match="grid"):
            QGrid(q_values=np.linspace(0.5, 1.0, 10_001))
        # NaN fails both comparisons with the bounds
        with pytest.raises(UsageError, match=r"\(0, 1\]"):
            QGrid(q_values=[0.9, float("nan")])

    # 1e-15 once raised numpy's MemoryError; 1e-6 built and fitted 300,001 values
    @pytest.mark.parametrize("q_min,step", [
        (0.7, 0.0), (0.7, 1e-320), (0.7, -0.01), (0.7, float("nan")), (0.7, float("inf")),
        (float("nan"), 0.01), (float("-inf"), 0.01), (0.7, 1e-15), (0.7, 1e-6)])
    def test_degenerate_step_rejected(self, q_min, step):
        from lqglm import UsageError

        with pytest.raises(UsageError, match="grid"):
            QGrid(q_min=q_min, step=step)

    @pytest.mark.parametrize("rho_factor", [float("nan"), float("inf"), -0.05])
    def test_rho_factor_must_be_finite_and_nonnegative(self, rho_factor):
        # every comparison with a NaN threshold is false, which selected q = 1
        from lqglm import UsageError

        with pytest.raises(UsageError, match="rho_factor"):
            QGrid(q_min=0.9, step=0.05, rho_factor=rho_factor)
        assert QGrid(q_min=0.9, step=0.05, rho_factor=0.0).rho_factor == 0.0


    @pytest.mark.parametrize("kwargs,message", [
        ({"q_min": "0.7", "step": 0.01}, "q_min must be a real number, got '0.7'"),
        ({"rho_factor": "1"}, "rho_factor must be a real number, got '1'"),
        ({"q_values": [1.0, "0.9"]}, "a grid value must be a real number, got '0.9'"),
        ({"q_values": 0.9}, "q_values must be a sequence of real numbers, got 0.9")],
        ids=["q_min", "rho_factor", "q_values", "q_values-scalar"])
    def test_non_numeric_setting_is_a_usage_error(self, kwargs, message):
        # q_min and rho_factor once ended in the bare TypeError of
        # np.isfinite, and float() once read a string grid value
        from lqglm import UsageError

        with pytest.raises(UsageError, match=f"^{message}$"):
            QGrid(**kwargs)


def _grid_cases():
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    y = rng.normal(X @ np.array([0.5, 1.0]), 1.0)
    y[:5] += 6.0
    sep_X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
    # (data, grid, control); None data stands for vaso
    return {
        "vaso": (None, QGrid(), None),
        "vaso-scoring": (None, QGrid(), FitControl(max_iter=25)),
        "profiled-gaussian": (ModelData(X, y, "gaussian", phi="profile"),
                              QGrid(q_min=0.8, step=0.02), None),
        "separated": (ModelData(sep_X, np.r_[np.zeros(6), np.ones(6)], "bernoulli"),
                      QGrid(q_min=0.96, step=0.01),
                      FitControl(q=1.0, stop_rule="coef-psi", max_iter=30)),
    }


class TestGridPath:
    """Every grid fit is ``fit_mlq`` at its q under the grid's control: the
    fits, drops and warnings equal those of ``_oracle_grid_fits``, one
    ``fit_mlq`` per grid value, byte for byte."""

    @pytest.mark.parametrize("name", sorted(_grid_cases()))
    def test_equals_one_fit_per_q(self, vaso, name):
        from lqglm.qselect import _grid_fits

        data, grid, control = _grid_cases()[name]
        args = (vaso if data is None else data, grid, control)
        got = _recorded(_grid_fits, *args)
        _assert_same_outcome(got, _recorded(_oracle_grid_fits, *args))
        if name == "vaso-scoring":
            # the 25-iteration cap stops 10 of the 31 values short
            fits, dropped = got[0]
            assert len(dropped) == 10 and len(fits) == 21

    def test_vaso_grid_fits_stop_near_their_roots(self, vaso):
        # The grid's objective rule stops each Newton fit within 4.6e-7
        # (relative) of the root that the tight coef-psi rule reaches from
        # the same q = 1 start.
        from dataclasses import replace

        from lqglm.qselect import _GRID_CONTROL, _grid_fits

        fits, dropped = _grid_fits(vaso, QGrid(q_min=0.70, step=0.01), None)
        assert not dropped
        root = replace(_GRID_CONTROL, stop_rule="coef-psi", tol=1e-12, max_iter=200)
        for q, fit in fits.items():
            want = fit_mlq(vaso, replace(root, q=q))
            assert want.converged
            gap = np.linalg.norm(fit.beta_q - want.beta_q)
            assert gap <= 1e-6 * np.linalg.norm(want.beta_q), q


class TestSandwichDominance:
    def test_trace_ordering_on_vaso_grid(self, vaso):
        # tr(cov) >= tr(F^{-1}) - 1e-8 at every converged grid fit
        sel = select_q_stability(vaso, QGrid(q_min=0.80, step=0.02))
        for q in sorted(sel.fits):
            fit = fit_mlq(vaso, FitControl(q=q, max_iter=100))
            F = fisher_information(vaso, fit)
            tr_f = float(np.trace(np.linalg.inv(F)))
            assert float(np.trace(fit.cov)) >= tr_f - 1e-8


def _oracle_grid_fits(data, grid, control, need=3):
    """``qselect._grid_fits`` as one ``fit_mlq`` per grid value under the
    grid's control."""
    import warnings
    from dataclasses import replace

    from lqglm import LqglmError
    from lqglm.qselect import _grid_control, _too_few

    ctl = _grid_control(control)
    fits, dropped = {}, {}
    for q in (float(q) for q in grid.q_values):
        try:
            fit = fit_mlq(data, replace(ctl, q=q))
        except LqglmError as e:
            warnings.warn(f"grid fit at q={q:.4g} failed: {e}", stacklevel=3)
            dropped[q] = str(e)
            continue
        if not fit.converged:
            warnings.warn(
                f"grid fit at q={q:.4g} did not converge ({fit.message}); dropped",
                stacklevel=3,
            )
            dropped[q] = fit.message
            continue
        fits[q] = fit
    if len(fits) < need:
        raise SelectionError(_too_few(len(fits), need, dropped))
    return fits, list(dropped)


def _recorded(fn, *args, **kwargs):
    """``(outcome, warnings)``: the return value or the raised LqglmError
    or ValueError, and every warning's category and message."""
    import warnings

    from lqglm import LqglmError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except (LqglmError, ValueError) as e:
            out = e
    return out, [(c.category, str(c.message)) for c in caught]


def _assert_same_fit(got, want):
    from dataclasses import fields

    from lqglm import FitResult

    for f in fields(FitResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "data":
            assert a is b
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert type(a) is type(b) and repr(a) == repr(b), f.name


def _assert_same_outcome(got, want):
    (out, warned), (ref, ref_warned) = got, want
    assert warned == ref_warned
    if isinstance(ref, Exception):
        assert type(out) is type(ref) and str(out) == str(ref)
        return
    if isinstance(ref, tuple):  # _grid_fits
        (fits, dropped), (ref_fits, ref_dropped) = out, ref
        assert dropped == ref_dropped and list(fits) == list(ref_fits)
        for q in ref_fits:
            _assert_same_fit(fits[q], ref_fits[q])
    else:
        assert repr(out) == repr(ref)


def _outlier_poisson():
    rng = rng_stream(3, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    y = rng.poisson(np.exp(X @ np.array([1.0, 0.8]))).astype(float)
    y[:4] += np.array([25.0, 40.0, 18.0, 30.0])
    return ModelData(X, y, "poisson")


def _gaussian(phi):
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(40), rng.uniform(-1, 1, size=40)])
    y = rng.normal(X @ np.array([0.5, 1.0]), 0.8)
    y[:3] += 6.0
    return ModelData(X, y, "gaussian", phi=phi)


def _failing_grid_data(family, seed):
    """Small designs whose grid drops some q on non-convergence and fails
    others on an LqglmError, yet keeps at least three fits."""
    rng = rng_stream(77, seed)
    n = int(rng.integers(6, 15))
    X = np.column_stack([np.ones(n), rng.normal(size=n) * 2])
    if family == "bernoulli":
        y = (rng.uniform(size=n) < 1 / (1 + np.exp(-2 * X[:, 1]))).astype(float)
    else:
        y = rng.poisson(np.exp(0.5 + X[:, 1])).astype(float)
        y[0] += 40
    return ModelData(X, y, family)


_GRID_DATA = {
    "vaso": lambda vaso: vaso,
    "poisson-outliers": lambda vaso: _outlier_poisson(),
    "gaussian-fixed": lambda vaso: _gaussian(1.0),
    "gaussian-profile": lambda vaso: _gaussian("profile"),
}


class TestBatchedGridAssembly:
    """The grid's batched fits and result assembly equal one ``fit_mlq``
    per grid value."""

    @staticmethod
    def _check(data, grid, control, monkeypatch):
        from lqglm import qselect

        _assert_same_outcome(_recorded(qselect._grid_fits, data, grid, control),
                             _recorded(_oracle_grid_fits, data, grid, control))
        for rule in (select_q_stability, select_q_efficiency):
            got = _recorded(rule, data, grid, control)
            with monkeypatch.context() as m:
                m.setattr(qselect, "_grid_fits", _oracle_grid_fits)
                want = _recorded(rule, data, grid, control)
            _assert_same_outcome(got, want)

    @pytest.mark.parametrize("control", [
        None, FitControl(), FitControl(stop_rule="coef-psi", solver="newton", max_iter=50)],
        ids=["grid-default", "scoring", "newton-coef-psi"])
    @pytest.mark.parametrize("name,grid", [
        ("vaso", QGrid(q_min=0.70, step=0.01)),
        ("vaso", QGrid(q_min=0.50, step=0.02)),
        ("poisson-outliers", QGrid(q_min=0.60, step=0.04)),
        ("gaussian-fixed", QGrid(q_min=0.60, step=0.05)),
        ("gaussian-profile", QGrid(q_min=0.60, step=0.05))])
    def test_matches_per_q_assembly(self, name, grid, control, vaso, monkeypatch):
        self._check(_GRID_DATA[name](vaso), grid, control, monkeypatch)

    # Seeds found by a search of _failing_grid_data's designs for those whose
    # grid keeps both kinds of dropped value under both summation orders.
    @pytest.mark.parametrize("family,seed,control", [
        ("poisson", 9, None), ("poisson", 17, None), ("poisson", 67, FitControl())])
    def test_dropped_and_failed_values(self, family, seed, control, monkeypatch,
                                       summation_orders):
        data = _failing_grid_data(family, seed)
        grid = QGrid(q_min=0.5, step=0.05)
        self._check(data, grid, control, monkeypatch)
        # The failures sit at a Cholesky pivot at roundoff (see the
        # summation_orders fixture): each design keeps both kinds whichever
        # order X' W J X is summed in.
        for _ in summation_orders():
            _, warned = _recorded(_oracle_grid_fits, data, grid, control)
            kinds = {"failed" if "failed:" in m else "dropped"
                     for c, m in warned if c is UserWarning}
            assert kinds == {"failed", "dropped"}

    def test_overflowed_b_n_fails_its_grid_values(self):
        # at q = 0.5 the weights W J of this design (found by a search of
        # _failing_grid_data's designs) overflow at the point where its fit
        # stops: that value fails on a typed error, where a NaN cov was kept
        from lqglm.qselect import _grid_fits

        data = _failing_grid_data("poisson", 159)
        (fits, dropped), warned = _recorded(_grid_fits, data, QGrid(q_min=0.5, step=0.05), None)
        assert sorted(fits) == [0.55, 0.65, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0]
        assert sorted(dropped) == [0.5, 0.6, 0.75]
        failed = [m for c, m in warned if "B_n is not finite" in m]
        assert [m.split(" failed")[0] for m in failed] == ["grid fit at q=0.5"]
        assert not [m for c, m in warned if c is RuntimeWarning]

    def test_long_grid_assembles_in_blocks(self, monkeypatch):
        """A grid longer than ``BLOCK`` is fitted and assembled block by
        block over its one design: every result equals its ``fit_mlq``
        within roundoff (at p = 30 the batched solves round their last
        block differently), and the traced peak stays within the results
        plus two blocks' stacked designs, where stacking a copy of the
        design per grid value would take several times that."""
        import tracemalloc
        from dataclasses import replace

        from lqglm import fit as fit_module
        from lqglm.fit import BLOCK, _fit_grid
        from lqglm.qselect import _grid_control

        rng = rng_stream(5, 0)
        n, p = 400, 30
        X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        data = ModelData(X, rng.normal(X @ rng.normal(0, 0.2, size=p), 1.0), "gaussian",
                         phi=1.0)
        qs = [float(q) for q in QGrid(q_min=0.6, step=0.004).q_values]
        ctl = _grid_control(None)
        blocks, fitted = [], fit_module._fitted

        def recording(prob, q, res):
            blocks.append(len(q))
            assert prob.X is data.X
            return fitted(prob, q, res)

        monkeypatch.setattr(fit_module, "_fitted", recording)
        tracemalloc.start()
        try:
            got = list(_fit_grid(data, qs, ctl))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == [BLOCK, len(qs) - BLOCK] and len(qs) > 1.5 * BLOCK
        monkeypatch.undo()
        for q, fit in zip(qs, got):
            want = fit_mlq(data, replace(ctl, q=q))
            assert (fit.q, fit.iterations, fit.converged) == (q, want.iterations, want.converged)
            for name in ("beta_star", "eta_q", "weights", "cov"):
                assert_allclose(getattr(fit, name), getattr(want, name), rtol=1e-12, atol=1e-14)
        kept = sum(v.nbytes for f in got for v in vars(f).values() if isinstance(v, np.ndarray))
        assert peak < kept + 2 * BLOCK * n * p * 8

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.79, 0.55])
    @pytest.mark.parametrize("name", ["vaso", "poisson-outliers", "gaussian-profile",
                                      "poisson-failing"])
    def test_fit_mlq_is_a_one_stage_path(self, name, q, vaso, summation_orders):
        data = (_failing_grid_data("poisson", 139) if name == "poisson-failing"
                else _GRID_DATA[name](vaso))
        ctl = FitControl(q=q)

        def oracle():
            [(prob, res)] = staged_fits(stack([data]), [q], ctl)
            return fit_result(data, prob, q, res)

        got, want = _recorded(fit_mlq, data, ctl), _recorded(oracle)
        _assert_same_outcome(got, want)
        if name == "poisson-failing" and q == 0.55:
            # the error of the evaluated solution: B_n is not positive
            # definite, whichever order sums it (see summation_orders)
            for _ in summation_orders():
                error = _recorded(oracle)[0]
                assert isinstance(error, SingularMatrixError)
                assert str(error).startswith("Cholesky pivot")

    def test_roundoff_singular_b_n_converges_falsely(self):
        """The false convergence of ROADMAP item 7, recorded as it stands.

        On this design at q = 0.55, ``B_n`` is singular to roundoff, and
        whether its Cholesky factorization passes depends on the summation
        order of ``X' W J X``.  Summed as ``(X' * W J) @ X`` it failed, and
        ``fit_mlq`` raised "Cholesky pivot 2"; from the band kernel it
        passes, and ``fit_mlq`` reports convergence after one iteration
        with ``|psi|`` far above the stop rule's tolerance.  A reasoned
        verdict on degenerate fits would turn this into a typed error or a
        non-converged fit, and change this test with it.
        """
        fit = fit_mlq(_failing_grid_data("poisson", 67), FitControl(q=0.55))
        assert fit.converged and fit.iterations == 1
        assert fit.psi_norm > 1.0 and np.linalg.cond(fit.B_n) > 1e15


# The full grids whose sub-grids TestNoPathDependence draws.
_SUBGRID_CASES = {
    "vaso": (vaso_model_data, QGrid(q_min=0.70, step=0.01)),
    "poisson-75": (lambda: _failing_grid_data("poisson", 75), QGrid(q_min=0.5, step=0.05)),
}


@lru_cache(maxsize=None)
def _subgrid_data(name):
    return _SUBGRID_CASES[name][0]()


def _per_value(data, q_values):
    """``{q: (FitResult or None, grid warnings naming q)}`` of
    ``_grid_fits`` on the grid ``q_values``, with no minimum of converged
    fits."""
    from lqglm.qselect import _grid_fits

    (fits, dropped), warned = _recorded(_grid_fits, data, QGrid(q_values=q_values), None, 0)
    assert set(fits) | set(dropped) == set(q_values)
    return {q: (fits.get(q), [m for c, m in warned if m.startswith(f"grid fit at q={q:.4g} ")])
            for q in q_values}


class TestNoPathDependence:
    """A grid value's fit, drop reason and warning do not depend on which
    other values the grid holds (the sequential path once let a degenerate
    value's outcome follow where the value before it stopped)."""

    @pytest.mark.parametrize("name", sorted(_SUBGRID_CASES))
    @settings(max_examples=15, deadline=None)
    @given(pick=st.data())
    def test_subgrid_values_equal_the_full_grid(self, name, pick):
        data, grid = _subgrid_data(name), _SUBGRID_CASES[name][1]
        full = [float(q) for q in grid.q_values]
        sub = sorted(pick.draw(st.sets(st.sampled_from(full), min_size=1)), reverse=True)
        want, got = _per_value(data, full), _per_value(data, sub)
        for q in sub:
            (fit, warned), (ref, ref_warned) = got[q], want[q]
            assert warned == ref_warned, q
            assert (fit is None) == (ref is None), q
            if ref is not None:
                _assert_same_fit(fit, ref)
