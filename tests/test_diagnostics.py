import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from lqglm import (
    DegenerateDirectionError,
    DomainError,
    FitControl,
    LinearHypothesis,
    LqglmError,
    ModelData,
    PROFILE,
    QGrid,
    UsageError,
    added_variable_score,
    aic_q,
    bf_test,
    deviance_q,
    deviance_residuals,
    estimate_phi,
    fit_mlq,
    get_family,
    influence_fn,
    lq_objective,
    quantile_residuals,
    rng_stream,
    score_test,
    select_q_stability,
    simulation_envelope,
    standardized_residuals,
    wald_test,
)
from conftest import escort, stack, staged_fits


class TestDevianceQ:
    def test_same_fit_zero(self, vaso, vaso_79):
        assert deviance_q(vaso, vaso_79, vaso_79) == 0.0

    def test_q1_is_lr_statistic(self, vaso, vaso_ml):
        null_data = vaso.subset_columns([0])
        fit_null = fit_mlq(null_data, FitControl(q=1.0))
        d = deviance_q(vaso, fit_null, vaso_ml)
        # independent generic-optimizer oracle for both fits
        f_alt = -minimize(lambda b: -lq_objective(vaso, b, 1.0), np.zeros(3),
                          method="Nelder-Mead",
                          options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 20000}).fun
        f_null = -minimize(lambda b: -lq_objective(null_data, b, 1.0), np.zeros(1),
                           method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14}).fun
        assert_allclose(d, 2 * (f_alt - f_null), rtol=1e-6)

    def test_mismatched_q_rejected(self, vaso, vaso_ml, vaso_79):
        with pytest.raises(UsageError):
            deviance_q(vaso, vaso_ml, vaso_79)

    def test_data_must_be_the_alternatives(self, vaso, vaso_ml):
        # the null fit's design, or another response, is not the data of the
        # alternative; an equal copy is
        null_data = vaso.subset_columns([0])
        fit_null = fit_mlq(null_data, FitControl(q=1.0))
        flipped = ModelData(vaso.X, 1.0 - vaso.y, "bernoulli")
        message = "^data differ from the data of the alternative fit$"
        for data in (null_data, flipped):
            with pytest.raises(UsageError, match=message):
                deviance_q(data, fit_null, vaso_ml)
        copy = ModelData(vaso.X.copy(), vaso.y.copy(), "bernoulli")
        assert deviance_q(copy, fit_null, vaso_ml) == deviance_q(vaso, fit_null, vaso_ml)


class TestAicQ:
    def test_canonical_penalty(self, vaso, vaso_79):
        # penalty 2 tr(B^-1 A) = 2 p / (2 - q) under the canonical link
        val = aic_q(vaso, vaso_79)
        assert_allclose(val + 2 * vaso_79.lq_value, 2 * 3 / (2 - 0.79), rtol=1e-10)

    def test_q1_classical_aic(self, vaso, vaso_ml):
        val = aic_q(vaso, vaso_ml)
        assert_allclose(val, -2 * vaso_ml.lq_value + 2 * 3, rtol=1e-10)

    def test_data_must_be_the_fits(self, vaso, vaso_79):
        for data in (vaso.subset_columns([0, 1]), ModelData(vaso.X, 1.0 - vaso.y, "bernoulli")):
            with pytest.raises(UsageError, match="^data differ from the data of the fit$"):
                aic_q(data, vaso_79)
        copy = ModelData(vaso.X.copy(), vaso.y.copy(), "bernoulli")
        assert aic_q(copy, vaso_79) == aic_q(vaso, vaso_79)


class TestLinearTests:
    def test_wald_zero_when_hypothesis_holds(self, vaso, vaso_79):
        hyp = LinearHypothesis(np.eye(3)[:1], [vaso_79.beta_q[0]])
        assert wald_test(vaso_79, hyp).statistic == 0.0

    def test_score_and_bf_zero_when_constraint_inactive(self, poisson_example):
        # constraining a coordinate to its unconstrained optimum leaves the
        # estimating function at zero
        q = 0.9
        fit = fit_mlq(poisson_example, FitControl(q=q, stop_rule="coef-psi",
                                                  max_iter=200, tol=1e-12))
        hyp = LinearHypothesis(np.eye(3)[:1], [fit.beta_q[0]])
        ctl = FitControl(q=q, stop_rule="coef-psi", max_iter=200, tol=1e-12)
        r = score_test(poisson_example, hyp, q, ctl)
        b = bf_test(poisson_example, fit, hyp, q, ctl)
        assert r.statistic < 1e-10
        assert b.statistic < 1e-8

    def test_full_design_init_not_passed_to_constrained_fit(self, vaso):
        # the constrained fit has fewer columns than an explicit init
        # vector sized for the full design
        q = 0.9
        hyp = LinearHypothesis([[0.0, 0.0, 1.0]], [0.0])
        ctl = FitControl(q=q, init=np.zeros(vaso.p))
        ref = FitControl(q=q)
        fit = fit_mlq(vaso, ctl)
        assert score_test(vaso, hyp, q, ctl) == score_test(vaso, hyp, q, ref)
        assert bf_test(vaso, fit, hyp, q, ctl) == bf_test(vaso, fit, hyp, q, ref)

    @pytest.mark.parametrize("call", [
        lambda data, fit, hyp: wald_test(fit, hyp),
        lambda data, fit, hyp: score_test(data, hyp, fit.q),
        lambda data, fit, hyp: bf_test(data, fit, hyp),
    ], ids=["wald_test", "score_test", "bf_test"])
    @pytest.mark.parametrize("H", [[[0.0, 1.0]], [[0.0, 1.0, 0.0, 0.0]]], ids=["narrow", "wide"])
    def test_hypothesis_of_the_wrong_width_is_refused(self, call, H, vaso, vaso_79):
        hyp = LinearHypothesis(H, [0.0])
        width = len(H[0])
        with pytest.raises(UsageError, match=f"^hypothesis H has {width} columns but the model "
                                             "has 3 coefficients$"):
            call(vaso, vaso_79, hyp)

    def test_pvalues_and_dof(self, vaso, vaso_79):
        hyp = LinearHypothesis([[0.0, 1.0, -1.0]], [0.0])
        r = wald_test(vaso_79, hyp)
        assert r.dof == 1
        from lqglm import chi_square_sf

        assert r.p_value == chi_square_sf(r.statistic, 1)

    @pytest.mark.parametrize("H,h,name", [
        ([[0.0, 0.0, 1.0]], [np.nan], "h"), ([[0.0, 0.0, 1.0]], [np.inf], "h"),
        ([[0.0, np.nan, 1.0]], [0.0], "H"), ([[0.0, 0.0, -np.inf]], [0.0], "H")],
        ids=["h-nan", "h-inf", "H-nan", "H-inf"])
    def test_non_finite_hypothesis_is_refused(self, H, h, name):
        # a non-finite h was accepted and the statistics then raised a
        # DomainError; a non-finite H raised it from the rank check
        with pytest.raises(UsageError, match=f"^{name} has non-finite entries$"):
            LinearHypothesis(H, h)

    def test_rank_deficient_H_rejected(self):
        with pytest.raises(UsageError):
            LinearHypothesis([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])

    def test_hypothesis_arrays_are_read_only(self):
        H = np.array([[0.0, 1.0, -1.0]])
        hyp = LinearHypothesis(H, [0.0])
        for a in (hyp.H, hyp.h, hyp.N):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        H[0, 0] = 1.0  # the caller's array stays writable and is not shared
        assert hyp.H[0, 0] == 0.0

    def test_overflowed_constrained_point_raises(self):
        # at h = 100 the constrained fit overflows and B_n is not finite;
        # the score and bilinear-form statistics were reported as 0 (p = 1),
        # and the DomainError then came after numpy's overflow warnings
        from lqglm.diagnostics import _constrained_memo

        X = np.column_stack([np.ones(5), np.arange(5.0)])
        data = ModelData(X, [0.0, 1.0, 0.0, 2.0, 1.0], "poisson")
        hyp = LinearHypothesis([[0.0, 1.0]], [100.0])
        ctl = FitControl(q=0.8)
        fit = fit_mlq(data, ctl)
        assert wald_test(fit, hyp).statistic > 0.0
        for call in (lambda: score_test(data, hyp, 0.8, ctl),
                     lambda: bf_test(data, fit, hyp, 0.8, ctl)):
            _constrained_memo.cache_clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    call()

    def test_infinite_statistic_raises(self, poisson_example):
        # an extreme h overflows the Wald quadratic form; inf was reported
        # with p = 0 after a numpy overflow warning
        fit = fit_mlq(poisson_example, FitControl(q=0.9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                wald_test(fit, LinearHypothesis([[0.0, 1.0, 0.0]], [1e300]))

    def test_nan_statistic_raises(self):
        from lqglm.diagnostics import _make_result

        with pytest.raises(LqglmError, match="not a number"):
            _make_result(np.nan, 1, "score")
        assert _make_result(-1e-17, 1, "score").statistic == 0.0

    def test_score_with_ill_conditioned_sensitivity(self, monkeypatch):
        # B_t^-1 A_t B_t^-1 comes out of roundoff asymmetric beyond the
        # Cholesky symmetry check unless it is symmetrized; a 1 x 1
        # H C_t H' cannot show it
        from types import SimpleNamespace

        from lqglm import diagnostics

        u = np.array([0.9, 0.3])
        B = np.outer(u, u) + np.diag([0.0, 1e-9])
        hyp = LinearHypothesis([[1.3, 0.4], [-1.2, 0.0]], [0.0, 0.0])
        w = SimpleNamespace(psi=np.array([0.1, 0.02]))
        monkeypatch.setattr(diagnostics, "_constrained_point", lambda *args: (w, B))
        try:
            r = score_test(None, hyp, 0.9)
        except LqglmError:
            return
        assert np.isfinite(r.statistic)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["poisson", "bernoulli"]), n=st.integers(4, 8),
       seed=st.integers(0, 2**16), row=st.sampled_from([(0.0, 1.0), (1.0, 0.0), (1.0, -1.0)]),
       h=st.sampled_from([0.0, 1e-300, 1.0, -5.0, 30.0, 100.0, -700.0, 1e4, 1e300, -1e300])
       | st.floats(-1e3, 1e3), q=st.floats(0.5, 1.0))
def test_statistics_finite_or_typed_error(family, n, seed, row, h, q):
    # on small designs with extreme hypotheses, each statistic is finite and
    # non-negative, or its call raises an LqglmError
    rng = rng_stream(seed, 0)
    fam = get_family(family)
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=n)])
    y = fam.sample(rng, fam.b_dot(X @ rng.uniform(-1.5, 1.5, size=2)), 1.0)
    data = ModelData(X, y, family)
    hyp = LinearHypothesis([row], [h])
    ctl = FitControl(q=q)
    try:
        fit = fit_mlq(data, ctl)
    except LqglmError:
        fit = None
    calls = [lambda: score_test(data, hyp, q, ctl)]
    if fit is not None:
        calls += [lambda: wald_test(fit, hyp), lambda: bf_test(data, fit, hyp, q, ctl)]
    for call in calls:
        try:
            r = call()
        except LqglmError:
            continue
        assert np.isfinite(r.statistic) and r.statistic >= 0.0


def _oracle_constrained_point(data, hyp, q, control):
    """The constrained path as it was before the hypothesis carried ``N``:
    an SVD per call, the reduced fit by the per-row reference under the
    constrained fit's control, a ``_fitted`` evaluation of its solution
    whose result is discarded, then the evaluation on the full design."""
    from lqglm.diagnostics import _constrained_control
    from lqglm.fit import _evaluate, _fitted
    from lqglm.numerics import solve_spd

    if not data.link.is_canonical:
        raise UsageError("constrained fits are defined for the canonical link")
    H, rhs = hyp.H, hyp.h / q
    d = H.shape[0]
    b0 = H.T @ solve_spd(H @ H.T, rhs)
    N = np.linalg.svd(H)[2][d:].T
    if N.shape[1] == 0:
        phi = estimate_phi(data, q * b0, q) if data.phi == PROFILE else data.phi
        return _evaluate(data, b0, q, phi)
    reduced = ModelData(data.X @ N, data.y, data.family, data.link, data.phi)
    base = stack([reduced])._replace(offset=data.X @ b0)
    [(prob, res)] = staged_fits(base, [q], _constrained_control(control, q))
    _fitted(prob, q, res)
    if res.error[0] is not None:
        raise res.error[0]
    return _evaluate(data, b0 + N @ res.beta[0], q, float(np.ravel(prob.phi)[0]))


def _at_oracle_point(call):
    """``call()`` with the oracle's constrained point in place of the
    memoized one."""
    from unittest import mock

    from lqglm import diagnostics

    with mock.patch.object(diagnostics, "_constrained_point", _oracle_constrained_point):
        return call()


def _oracle_tests(data, fit, hyp, q, control):
    """The score and bilinear-form results at the oracle's constrained point."""
    return _at_oracle_point(lambda: (score_test(data, hyp, q, control),
                                     bf_test(data, fit, hyp, q, control)))


def _null_data(family, seed, n=400):
    """A null dataset of the test-size study: beta = (0.8, 0) on U(0,1) X."""
    rng = np.random.default_rng([seed, 1])
    X = rng.uniform(size=(n, 2))
    eta = X @ np.array([0.8, 0.0])
    if family == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return ModelData(X, y, family)


_VASO_HYPOTHESES = {
    "one-row": ([[0.0, 1.0, -1.0]], [0.0]),
    "two-rows": ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [5.0, 4.5]),
    "identity": (np.eye(3), [-2.9, 5.2, 4.6]),
}


class TestConstrainedPath:
    """The score and bilinear-form tests fit the constrained model once and
    evaluate it once, with the same results as the earlier two-evaluation
    path."""

    @staticmethod
    def _assert_equal_to_oracle(data, hyp, q):
        control = FitControl(q=q)
        fit = fit_mlq(data, control)
        score, bf = _oracle_tests(data, fit, hyp, q, control)
        assert repr(score_test(data, hyp, q, control)) == repr(score)
        assert repr(bf_test(data, fit, hyp, q, control)) == repr(bf)

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.79])
    @pytest.mark.parametrize("name", sorted(_VASO_HYPOTHESES))
    def test_vaso_equals_oracle(self, vaso, name, q):
        self._assert_equal_to_oracle(vaso, LinearHypothesis(*_VASO_HYPOTHESES[name]), q)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_null_study_data_equals_oracle(self, family, seed):
        self._assert_equal_to_oracle(_null_data(family, seed),
                                     LinearHypothesis([[0.0, 1.0]], [0.0]), 0.9)

    @pytest.mark.parametrize("phi", [1.0, "profile"])
    def test_gaussian_equals_oracle(self, gaussian_example, phi):
        data = ModelData(gaussian_example.X, gaussian_example.y, "gaussian", phi=phi)
        for H, h in (([[0.0, 1.0]], [1.0]), ([[1.0, 0.0]], [0.5]), (np.eye(2), [0.5, 1.0])):
            self._assert_equal_to_oracle(data, LinearHypothesis(H, h), 0.9)

    @staticmethod
    def _full_rank_case(q):
        """Profiled Gaussian data (sigma = 0.5, so phi is near 4) and a
        full-rank hypothesis off its fit."""
        rng = rng_stream(7, 0)
        X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
        data = ModelData(X, rng.normal(X @ np.array([0.5, 1.0]), 0.5), "gaussian", phi=PROFILE)
        fit = fit_mlq(data, FitControl(q=q))
        return data, LinearHypothesis(np.eye(2), fit.beta_q + np.array([0.05, -0.1]))

    def test_full_rank_hypothesis_scores_at_the_profiled_dispersion(self):
        # H = I fixes the coefficients at b0 = h / q, so the score is that
        # of the data with phi fixed at the dispersion profiled at b0
        data, hyp = self._full_rank_case(0.9)
        phi_b0 = estimate_phi(data, hyp.h, 0.9)
        assert phi_b0 > 3.0
        fixed = ModelData(data.X, data.y, "gaussian", phi=phi_b0)
        assert_allclose(score_test(data, hyp, 0.9).statistic,
                        score_test(fixed, hyp, 0.9).statistic, rtol=1e-12)

    def test_full_rank_profiled_score_scales_with_phi_at_q1(self):
        # at q = 1, psi, A_n and B_n all scale with phi, so the statistic at
        # the profiled dispersion is phi_hat(b0) times the phi = 1 statistic
        data, hyp = self._full_rank_case(1.0)
        unit = ModelData(data.X, data.y, "gaussian", phi=1.0)
        assert_allclose(score_test(data, hyp, 1.0).statistic,
                        estimate_phi(data, hyp.h, 1.0) * score_test(unit, hyp, 1.0).statistic,
                        rtol=1e-12)

    def test_singular_constrained_fit_raises_as_oracle(self):
        # a steep constrained slope on separated data leaves B_n singular
        X = np.column_stack([np.ones(4), [3.9, 5.8, 3.7, 7.2]])
        data = ModelData(X, [1.0, 0.0, 0.0, 0.0], "bernoulli")
        hyp = LinearHypothesis([[0.0, 1.0]], [-100.0])
        ctl = FitControl(q=0.8)
        fit = fit_mlq(data, ctl)
        with pytest.raises(LqglmError) as expected:
            _oracle_tests(data, fit, hyp, 0.8, ctl)
        for call in (lambda: score_test(data, hyp, 0.8, ctl),
                     lambda: bf_test(data, fit, hyp, 0.8, ctl)):
            with pytest.raises(LqglmError) as got:
                call()
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    def test_one_svd_per_hypothesis_and_one_evaluation(self, poisson_example, monkeypatch):
        from lqglm import diagnostics, fit as fit_module

        ctl = FitControl(q=0.9)
        fit = fit_mlq(poisson_example, ctl)
        calls = {"svd": 0, "fitted": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        fitted = counting("fitted", fit_module._fitted)
        monkeypatch.setattr(fit_module, "_fitted", fitted)
        monkeypatch.setattr(diagnostics, "_fitted", fitted)
        hyp = LinearHypothesis([[0.0, 1.0, -1.0]], [0.0])
        assert calls == {"svd": 1, "fitted": 0}
        for _ in range(2):
            score_test(poisson_example, hyp, 0.9, ctl)
            bf_test(poisson_example, fit, hyp, 0.9, ctl)
        assert calls == {"svd": 1, "fitted": 0}


def _separated_fit_case():
    """Separated Bernoulli data whose constrained fit (the slope free, the
    last coefficient at 0) fails with a SingularMatrixError."""
    x = np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]
    X = np.column_stack([np.ones(12), x, np.cos(np.arange(12.0))])
    data = ModelData(X, np.r_[np.zeros(6), np.ones(6)], "bernoulli")
    hyp = LinearHypothesis([[0.0, 0.0, 1.0]], [0.0])
    return data, hyp, 1.0, FitControl(q=1.0, stop_rule="coef-psi", max_iter=5000)


def _singular_statistic_case():
    """The separated case of TestConstrainedPath: the constrained fit
    succeeds and the statistic meets a singular ``B_n``."""
    X = np.column_stack([np.ones(4), [3.9, 5.8, 3.7, 7.2]])
    data = ModelData(X, [1.0, 0.0, 0.0, 0.0], "bernoulli")
    return data, LinearHypothesis([[0.0, 1.0]], [-100.0]), 0.8, FitControl(q=0.8)


class TestConstrainedMemo:
    """score_test and bf_test called in turn, in either order, share one
    constrained fit, keyed by the data and hypothesis objects, q and the
    loop settings."""

    @staticmethod
    def _count_fits(monkeypatch):
        from lqglm import diagnostics, fit as fit_module

        calls = []
        fit = fit_module._fit

        def counted(*args, **kwargs):
            calls.append(1)
            return fit(*args, **kwargs)

        monkeypatch.setattr(fit_module, "_fit", counted)
        monkeypatch.setattr(diagnostics, "_fit", counted)
        return calls

    def _assert_fit_once(self, data, monkeypatch, bf_first):
        ctl = FitControl(q=0.9)
        fit = fit_mlq(data, ctl)
        hyp = LinearHypothesis([[0.0, 1.0, -1.0]], [0.0])
        calls = self._count_fits(monkeypatch)
        if bf_first:
            bf = bf_test(data, fit, hyp, 0.9, ctl)
            score = score_test(data, hyp, 0.9, ctl)
        else:
            score = score_test(data, hyp, 0.9, ctl)
            bf = bf_test(data, fit, hyp, 0.9, ctl)
        assert len(calls) == 1
        score_alone, bf_alone = _oracle_tests(data, fit, hyp, 0.9, ctl)
        assert repr((score, bf)) == repr((score_alone, bf_alone))

    def test_score_then_bf_fit_once(self, poisson_example, monkeypatch):
        self._assert_fit_once(poisson_example, monkeypatch, bf_first=False)

    def test_bf_then_score_fit_once(self, poisson_example, monkeypatch):
        self._assert_fit_once(poisson_example, monkeypatch, bf_first=True)

    @pytest.mark.parametrize("field,value,refits", [
        ("data", None, True), ("hyp", None, True), ("q", 0.85, True), ("max_iter", 30, True),
        ("tol", 1e-9, True), ("stop_rule", "coef-psi", True), ("solver", "newton", True),
        ("init", np.zeros(3), False)])
    def test_key(self, poisson_example, monkeypatch, field, value, refits):
        data, hyp, q = poisson_example, LinearHypothesis([[0.0, 1.0, -1.0]], [0.0]), 0.9
        ctl = FitControl(q=q)
        score_test(data, hyp, q, ctl)
        if field == "data":
            data = ModelData(data.X, data.y, data.family, data.link, data.phi)
        elif field == "hyp":
            hyp = LinearHypothesis(hyp.H, hyp.h)
        elif field == "q":
            q = value
        else:
            ctl = replace(ctl, **{field: value})
        calls = self._count_fits(monkeypatch)
        got = score_test(data, hyp, q, ctl)
        assert len(calls) == refits
        assert repr(got) == repr(_at_oracle_point(lambda: score_test(data, hyp, q, ctl)))

    @pytest.mark.parametrize("case,fits", [(_separated_fit_case, 2),
                                           (_singular_statistic_case, 1)])
    def test_failure_repeats(self, monkeypatch, case, fits):
        # a failed fit is not cached: the second call fits again
        data, hyp, q, ctl = case()
        calls = self._count_fits(monkeypatch)
        errors = []
        for _ in range(2):
            with pytest.raises(LqglmError) as got:
                score_test(data, hyp, q, ctl)
            errors.append((type(got.value), str(got.value)))
        assert errors[0] == errors[1]
        assert len(calls) == fits


class TestMeanShiftEquivalence:
    @pytest.mark.parametrize("fixture,q", [("vaso", 0.79), ("poisson_example", 0.9)])
    def test_ti_squared_equals_added_variable_score(self, fixture, q, request):
        data = request.getfixturevalue(fixture)
        fit = fit_mlq(data, FitControl(q=q))
        t = standardized_residuals(data, fit)
        for i in range(data.n):
            z = np.zeros(data.n)
            z[i] = 1.0
            r = added_variable_score(data, fit, z)
            assert abs(r.statistic - t[i] ** 2) <= 1e-8 * max(1.0, t[i] ** 2)

    def test_design_column_degenerate(self, vaso, vaso_79):
        with pytest.raises(DegenerateDirectionError):
            added_variable_score(vaso, vaso_79, vaso.X[:, 1])


def _hat_pieces(data, fit):
    """Working point, ``V``, ``W``, ``J`` and the projector core
    ``X' W J X`` at the surrogate solution, built from the kernel's parts
    (the oracle of ``fit._hat``, which solves with them)."""
    from lqglm.fit import _problem, _sensitivity, _working
    from lqglm.numerics import unpack_band, weighted_gram

    prob = _problem(data, fit.phi_hat)
    w = _working(prob, fit.eta_star, fit.q)
    W, J = _sensitivity(prob, w, fit.q)
    return w, w.V, W, J, unpack_band(weighted_gram(prob.xx, W * J))


class TestStandardizedResiduals:
    def test_q1_classical_reduction(self, vaso, vaso_ml):
        t = standardized_residuals(vaso, vaso_ml)
        theta = vaso.X @ vaso_ml.beta_star
        mu = vaso.family.b_dot(theta)
        W = vaso.family.b_ddot(theta)
        Hmat = vaso.X @ np.linalg.solve(vaso.X.T @ (W[:, None] * vaso.X), vaso.X.T) * W
        lev = np.diag(Hmat)
        classical = (vaso.y - mu) / np.sqrt(W * (1.0 - lev))
        assert_allclose(t, classical, rtol=1e-8)

    def test_vaso_outliers_flagged(self, vaso, vaso_79):
        t = standardized_residuals(vaso, vaso_79)
        top = np.argsort(-np.abs(t))[:2] + 1
        assert set(top) == {4, 18}

    def test_gaussian_moments(self):
        # q = 0.95, 20 fixed-seed datasets: mean within 0.1, variance in [0.8, 1.2]
        allt = []
        for s in range(20):
            rng = rng_stream(500 + s, 0)
            X = np.column_stack([np.ones(500), rng.uniform(-1, 1, size=500)])
            y = rng.normal(X @ np.array([0.5, 1.0]), 1.0)
            d = ModelData(X, y, "gaussian", phi=1.0)
            allt.append(standardized_residuals(d, fit_mlq(d, FitControl(q=0.95))))
        allt = np.concatenate(allt)
        assert abs(allt.mean()) < 0.1
        assert 0.8 < allt.var() < 1.2


    def test_leverage_one_is_undefined_in_a_batch_and_alone(self):
        # an indicator column gives its observation a leverage of 1, so the
        # bracket is zero up to roundoff of either sign: NaN, whatever the sign
        from lqglm.diagnostics import _Fits, _standardized

        def indicator_poisson(seed):
            rng = rng_stream(61, seed)
            X = np.column_stack([np.ones(30), rng.uniform(-1, 1, size=30), np.eye(30)[4]])
            y = rng.poisson(np.exp(X[:, :2] @ np.array([1.0, 0.5]))).astype(float)
            y[4] = 3.0
            return ModelData(X, y, "poisson")

        datas = [indicator_poisson(s) for s in range(8)]
        fits = [fit_mlq(d, FitControl(q=0.9)) for d in datas]
        for data, fit in zip(datas, fits):
            with pytest.warns(UserWarning, match="^1 standardized residuals undefined"):
                t = standardized_residuals(data, fit)
            assert np.isnan(t[4]) and np.isfinite(np.delete(t, 4)).all()
        batch = _Fits(stack(datas), 0.9, *(np.array([getattr(f, k) for f in fits])
                                            for k in ("eta_star", "eta_q", "mu", "cov")))
        t, undefined = _standardized(batch)
        assert undefined.tolist() == [1] * 8
        assert np.isnan(t[:, 4]).all() and np.isfinite(np.delete(t, 4, axis=1)).all()

    @pytest.mark.parametrize("fixture,q,rtol", [
        ("vaso", 0.79, 1e-12), ("poisson_example", 0.9, 1e-12), ("vaso", 0.6, 1e-9),
        ("gaussian_power3", 0.9, 1e-12)])
    def test_matches_dense_hat_matrix(self, fixture, q, rtol, request):
        # reference: the diagonals of the n x n M = P W J and M @ M; the
        # vaso fit at q = 0.6 stops on theta overflow, so X' W J X is
        # nearly singular (hence the looser tolerance) and one residual is NaN;
        # the bracket keeps the m* term that idempotence cancels
        data = request.getfixturevalue(fixture)
        fit = fit_mlq(data, FitControl(q=q, max_iter=100))
        w, V, W, J, XtDX = _hat_pieces(data, fit)
        M = data.X @ np.linalg.solve(XtDX, data.X.T) * (W * J)[None, :]
        m, m2 = np.diag(M), np.diag(M @ M)
        bracket = (1.0 - m) - (m - m2)
        with np.errstate(invalid="ignore"):
            dense = (np.sqrt(2.0 - q) * w.U * (data.y - w.mu)
                     / (np.sqrt(J * V / fit.phi_hat) * np.sqrt(np.where(bracket < 0, np.nan, bracket))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = standardized_residuals(data, fit)
        # undefined: a negative bracket, or 0/0 where the mean saturates (V = 0)
        n_bad = int(np.sum(~np.isfinite(dense)))
        assert len(caught) == (n_bad > 0)
        if n_bad:
            assert str(caught[0].message).startswith(f"{n_bad} standardized residuals undefined")
        assert (fixture, q) != ("vaso", 0.6) or np.isnan(t).sum() == 1
        assert np.array_equal(np.isnan(t), np.isnan(dense))
        assert_allclose(t, dense, rtol=rtol, atol=0)


class TestDevianceResiduals:
    def test_zero_at_exact_fit(self):
        # fitted mean equal to the response gives a zero deviance residual
        # (q = 1: calibration is the identity, so mu equals y here)
        X = np.column_stack([np.ones(10), np.linspace(-1, 1, 10)])
        beta = np.array([0.2, 1.0])
        y = X @ beta + np.r_[np.zeros(9), 1e-9]
        data = ModelData(X, y, "gaussian")
        fit = fit_mlq(data, FitControl(q=1.0))
        r = deviance_residuals(data, fit)
        assert np.max(np.abs(r)) < 1e-4

    def test_q1_poisson_classical(self, poisson_example):
        fit = fit_mlq(poisson_example, FitControl(q=1.0))
        r = deviance_residuals(poisson_example, fit)
        y, mu = poisson_example.y, fit.mu
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(y > 0, y * np.log(y / mu), 0.0)
        classical = np.sign(y - mu) * np.sqrt(2 * (term - (y - mu)))
        assert_allclose(r, classical, rtol=1e-10, atol=1e-12)

    def test_vaso_case4_extreme(self, vaso, vaso_79):
        r = deviance_residuals(vaso, vaso_79)
        assert 4 in set(np.argsort(-np.abs(r))[:2] + 1)


class TestQuantileResiduals:
    def test_reproducible(self, poisson_example):
        fit = fit_mlq(poisson_example, FitControl(q=0.9))
        a = quantile_residuals(poisson_example, fit, rng_stream(9, 0))
        b = quantile_residuals(poisson_example, fit, rng_stream(9, 0))
        assert np.array_equal(a, b)

    def test_gaussian_needs_no_rng(self, gaussian_example):
        fit = fit_mlq(gaussian_example, FitControl(q=1.0))
        r = quantile_residuals(gaussian_example, fit)
        assert abs(r.mean()) < 0.5
        assert np.all(np.isfinite(r))

    @pytest.mark.parametrize("fixture,q", [
        ("vaso", 0.79), ("poisson_example", 0.9), ("gaussian_example", 0.9)])
    def test_matches_per_observation_loop(self, fixture, q, request):
        # reference: the scalar CDF loop, same uniforms in the same order
        from scipy.special import ndtri

        data = request.getfixturevalue(fixture)
        fam = data.family
        fit = fit_mlq(data, FitControl(q=q))
        u = rng_stream(7, 0).uniform(size=data.n)
        ref, clamped = np.empty(data.n), 0
        for i in range(data.n):
            if fam.discrete:
                hi = float(fam.cdf(data.y[i], fit.mu[i], fit.phi_hat))
                lo = float(fam.cdf(data.y[i] - 1.0, fit.mu[i], fit.phi_hat))
                val = lo + float(u[i]) * (hi - lo)
            else:
                val = float(fam.cdf(data.y[i], fit.mu[i], fit.phi_hat))
            clamped += val <= 0.0 or val >= 1.0
            ref[i] = float(ndtri(min(max(val, 1e-12), 1.0 - 1e-12)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = quantile_residuals(data, fit, rng_stream(7, 0))
        assert r.tobytes() == ref.tobytes()
        assert [str(c.message) for c in caught] == (
            [f"{clamped} quantile residuals clamped at the CDF boundary"] if clamped else [])

    def test_discrete_requires_rng(self, poisson_example):
        fit = fit_mlq(poisson_example, FitControl(q=1.0))
        with pytest.raises(UsageError):
            quantile_residuals(poisson_example, fit, None)


@pytest.mark.parametrize("call", [
    lambda data, fit, q: bf_test(data, fit, LinearHypothesis([[0.0, 0.0, 1.0]], [0.0]), q),
], ids=["bf_test"])
def test_q_must_be_the_fits(call, vaso, vaso_79):
    with pytest.raises(UsageError, match="q disagrees with the supplied fit"):
        call(vaso, vaso_79, 0.8)


@pytest.mark.parametrize("call", [bf_test], ids=["bf_test"])
def test_nan_q_disagrees_with_the_fit(call, vaso, vaso_79):
    with pytest.raises(UsageError, match="q disagrees with the supplied fit"):
        call(vaso, vaso_79, LinearHypothesis([[0.0, 0.0, 1.0]], [0.0]), float("nan"))


def _leverage_one_poisson():
    # an indicator column gives observation 4 a leverage of 1, so its
    # standardized residual is undefined
    rng = rng_stream(61, 0)
    X = np.column_stack([np.ones(30), rng.uniform(-1, 1, size=30), np.eye(30)[4]])
    y = rng.poisson(np.exp(X[:, :2] @ np.array([1.0, 0.5]))).astype(float)
    y[4] = 3.0
    data = ModelData(X, y, "poisson")
    return data, fit_mlq(data, FitControl(q=0.9))


def _outlying_gaussian():
    # a response 50 above its mean has the CDF value 1 under the q = 0.7 fit
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    y = rng.normal(X @ np.array([0.5, 1.0]), 1.0)
    y[0] += 50.0
    data = ModelData(X, y, "gaussian", phi=1.0)
    return data, fit_mlq(data, FitControl(q=0.7))


@pytest.mark.parametrize("call", [
    lambda vaso, fit: standardized_residuals(*_leverage_one_poisson()),
    lambda vaso, fit: quantile_residuals(*_outlying_gaussian()),
    lambda vaso, fit: simulation_envelope(vaso, fit, kind="quantile", reps=20, seed=5),
    lambda vaso, fit: simulation_envelope(vaso, fit, kind="standardized", reps=30, seed=9),
    lambda vaso, fit: select_q_stability(vaso, QGrid(q_values=[1.0, 0.9, 0.8, 0.79, 0.6])),
], ids=["standardized_residuals", "quantile_residuals", "envelope-quantile",
        "envelope-standardized", "select_q_stability"])
def test_warnings_name_the_caller(call, vaso, vaso_79):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(vaso, vaso_79)
    assert caught
    assert [(c.filename, str(c.message)) for c in caught] == [
        (__file__, str(c.message)) for c in caught]


class TestInfluence:
    def test_q1_ml_form(self, vaso, vaso_ml):
        x_new = vaso.X[5]
        out = influence_fn(vaso, vaso_ml, 1.0, x_new)
        theta = float(x_new @ vaso_ml.beta_star)
        mu = 1.0 / (1.0 + np.exp(-theta))
        s = (1.0 - mu) * x_new
        F = vaso_ml.B_n
        assert_allclose(out, np.linalg.solve(F, s), rtol=1e-10)

    def test_zero_at_conditional_mean(self, gaussian_example):
        fit = fit_mlq(gaussian_example, FitControl(q=0.9))
        x_new = gaussian_example.X[3]
        theta = float(x_new @ fit.beta_star)
        out = influence_fn(gaussian_example, fit, theta, x_new)
        assert_allclose(out, 0.0, atol=1e-12)

    def test_bounded_below_ml_supremum(self, vaso, vaso_79, vaso_ml):
        # grid-evaluation oracle over response values and the covariate hull
        def sup_norm(fit):
            worst = 0.0
            for y_new in (0.0, 1.0):
                for i in range(vaso.n):
                    v = influence_fn(vaso, fit, y_new, vaso.X[i])
                    worst = max(worst, float(np.linalg.norm(v)))
            return worst

        sup_q = sup_norm(vaso_79)
        sup_ml = sup_norm(vaso_ml)
        assert np.isfinite(sup_q)
        assert sup_q < sup_ml

    def test_covariance_identity_gated(self):
        """cov(beta_q) = E[IF IF'] holds up to the order-2 escort defect.

        The exact identity requires the order r = 2 escort mass to be 1,
        which fails for every shipped family (see the normalization gate),
        so the Monte Carlo match is asserted as a 5% bound with the gate
        recorded rather than at Monte Carlo precision.
        """
        from lqglm.fit import matrices_ab

        rng = rng_stream(61, 0)
        n, q, reps = 40, 0.9, 40_000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.4, -0.6])
        y0 = (rng.uniform(size=n) < 1 / (1 + np.exp(-q * (X @ beta_star)))).astype(float)
        data = ModelData(X, y0, "bernoulli")
        gate_fails = abs(escort(data.family, 0.4, 1.0, q, 2.0) - 1.0) > 1e-8
        assert gate_fails
        A, B = matrices_ab(data, beta_star, q)
        Bi = np.linalg.inv(B)
        target = Bi @ A @ Bi / n
        mu0 = 1 / (1 + np.exp(-q * (X @ beta_star)))
        idx = rng.integers(0, n, size=reps)
        ydraw = (rng.uniform(size=reps) < mu0[idx]).astype(float)
        theta_s = X @ beta_star
        U = np.exp((1 - q) * (ydraw * theta_s[idx] - np.logaddexp(0, theta_s[idx])))
        s = U * (ydraw - 1 / (1 + np.exp(-theta_s[idx])))
        IFs = (Bi @ (X[idx] * s[:, None]).T).T
        M = np.einsum("ri,rj->ij", IFs, IFs) / reps
        rel = np.max(np.abs(M - target)) / np.max(np.abs(target))
        assert rel < 0.05


class TestAddedVariablePower:
    def test_detects_omitted_covariate(self):
        # >= 80% rejection at the 5% chi2(1) cutoff over 500 replicates
        from lqglm import chi_square_sf

        n, q, reps = 200, 0.9, 500
        hits = 0
        for k in range(reps):
            rng = rng_stream(71, k)
            X = np.column_stack([np.ones(n), rng.uniform(size=n)])
            z = rng.uniform(size=n)
            eta = X @ np.array([0.3, 0.8]) + 0.8 * z
            y = rng.poisson(np.exp(eta)).astype(float)
            data = ModelData(X, y, "poisson")
            fit = fit_mlq(data, FitControl(q=q))
            r = added_variable_score(data, fit, z)
            hits += r.p_value < 0.05
        assert hits / reps >= 0.80


class TestEnvelope:
    def test_deterministic_and_ordered(self, vaso, vaso_79):
        e1 = simulation_envelope(vaso, vaso_79, kind="standardized", reps=60, seed=5)
        e2 = simulation_envelope(vaso, vaso_79, kind="standardized", reps=60, seed=5)
        assert np.array_equal(e1.observed, e2.observed)
        assert np.array_equal(e1.lower, e2.lower)
        assert np.array_equal(e1.upper, e2.upper)
        assert np.all(e1.lower <= e1.upper)
        assert e1.observed.shape == (vaso.n,)

    def test_non_integer_seed_is_refused(self, vaso, vaso_79):
        # 2.9 once truncated to seed 2's streams and returned its bands
        with pytest.raises(UsageError, match="seed must be an integer, got 2.9"):
            simulation_envelope(vaso, vaso_79, kind="standardized", reps=20, seed=2.9)
        # True once drew seed 1's replicates
        with pytest.raises(UsageError, match="^seed must be an integer, got True$"):
            simulation_envelope(vaso, vaso_79, kind="standardized", reps=20, seed=True)

    def test_vaso_outliers_leave_envelope(self, vaso, vaso_79):
        env = simulation_envelope(vaso, vaso_79, kind="standardized", reps=100, seed=7)
        outside = (env.observed > env.upper) | (env.observed < env.lower)
        t = standardized_residuals(vaso, vaso_79)
        order = np.argsort(t)
        ranks = {order[-1] + 1, order[-2] + 1}
        assert ranks == {4, 18}
        assert outside[-1] and outside[-2]


# The per-replicate envelope and the residual functions as they were before
# the envelope refit its replicates as one batch: the oracle the batched
# envelope and the batch-of-one residual functions must reproduce.

def _loop_standardized(data, fit):
    from lqglm.numerics import solve_spd

    w, V, W, J, XtDX = _hat_pieces(data, fit)
    phi, q = fit.phi_hat, fit.q
    X, WJ = data.X, W * J
    G = solve_spd(XtDX, X.T).T
    m = WJ * np.sum(G * X, axis=1)
    m2 = WJ * np.sum((G @ (X.T @ (WJ[:, None] * X))) * G, axis=1)
    bracket = (1.0 - m) - (m - m2)
    bad = bracket < 0
    with np.errstate(invalid="ignore", divide="ignore"):
        den = np.sqrt(J * V / phi) * np.sqrt(np.where(bad, np.nan, bracket))
        t = np.sqrt(2.0 - q) * w.U * (data.y - w.mu) / den
    # a saturated mean (V = 0) is undefined too
    undefined = ~np.isfinite(t)
    if np.any(undefined):
        warnings.warn(f"{int(undefined.sum())} standardized residuals undefined (a leverage of 1 "
                      "or a negative variance estimate, or a saturated mean with V = 0); "
                      "reported as NaN")
    return np.where(undefined, np.nan, t)


def _loop_deviance(data, fit):
    from lqglm.families import _lq_terms
    from lqglm.fit import _problem, _working

    logf_sat = data.family.saturated_log_density(data.y, fit.phi_hat)
    logf_fit = _working(_problem(data, fit.phi_hat), fit.eta_q, fit.q).logf
    d = np.maximum(2.0 * (_lq_terms(logf_sat, fit.q) - _lq_terms(logf_fit, fit.q)), 0.0)
    return np.sign(data.y - fit.mu) * np.sqrt(d)


def _loop_quantile(data, fit, rng):
    from lqglm.families import quantile_residual_base

    uniforms = rng.uniform(size=data.n) if data.family.discrete else None
    out, at_bound = quantile_residual_base(data.family, data.y, fit.mu, fit.phi_hat, uniforms)
    clamped = int(np.count_nonzero(at_bound))
    if clamped:
        warnings.warn(f"{clamped} quantile residuals clamped at the CDF boundary")
    return out


_LOOP_RESIDUALS = {
    "standardized": lambda d, f, rng: _loop_standardized(d, f),
    "deviance": lambda d, f, rng: _loop_deviance(d, f),
    "quantile": _loop_quantile,
}


def _loop_envelope(data, fit, kind, reps, seed, control=None, level=0.95):
    """One fit_mlq per replicate under the refits' control; returns the
    envelope fields, the non-converged count and the LqglmError types of
    the failed refits."""
    from lqglm import LqglmError
    from lqglm.diagnostics import _envelope_control

    resid = _LOOP_RESIDUALS[kind]
    ctl = _envelope_control(control, fit)
    sims, failed, nonconverged, errors = [], 0, 0, []
    for r in range(reps):
        rng = rng_stream(seed, r)
        y_sim = data.family.sample(rng, fit.mu, fit.phi_hat)
        try:
            data_sim = ModelData(data.X, y_sim, data.family, data.link, data.phi)
            fit_sim = fit_mlq(data_sim, ctl)
            vals = np.sort(resid(data_sim, fit_sim, rng))
        except LqglmError as e:
            failed += 1
            errors.append(type(e).__name__)
            continue
        if np.any(~np.isfinite(vals)):
            failed += 1
            continue
        sims.append(vals)
        nonconverged += not fit_sim.converged
    sims = np.asarray(sims)
    alpha = 0.5 * (1.0 - level)
    lower = np.percentile(sims, 100 * alpha, axis=0)
    upper = np.percentile(sims, 100 * (1.0 - alpha), axis=0)
    observed = np.sort(resid(data, fit, rng_stream(seed, reps)))
    return dict(observed=observed, lower=lower, upper=upper, reps=len(sims), failed=failed,
                nonconverged=nonconverged, errors=errors)


def _recorded(fn, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    return out, [str(c.message) for c in caught]


def _profile_gaussian():
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    return ModelData(X, rng.normal(X @ np.array([0.5, 1.0]), 0.7), "gaussian", phi="profile")


class TestBatchedEnvelope:
    """The batched envelope equals the per-replicate fit_mlq loop."""

    @pytest.mark.parametrize("level,reps,message", [
        (1.5, 20, "level must lie in"), (0.0, 20, "level must lie in"),
        (1.0, 20, "level must lie in"), (float("nan"), 20, "level must lie in"),
        (0.95, 0, "at least 10 replicates"), (0.95, -5, "at least 10 replicates"),
        (0.95, 9, "at least 10 replicates"),
        # 10.5 once ended in a bare TypeError from range()
        (0.95, 10.5, "reps must be an integer, got 10.5"),
        (0.95, True, "reps must be an integer, got True"),
        # a string once ended in a bare TypeError from the range check
        ("0.9", 20, "level must be a real number, got '0.9'")])
    def test_arguments_checked_before_any_refit(self, vaso, vaso_79, monkeypatch, level, reps,
                                                message):
        from lqglm import diagnostics

        def no_refit(*args):
            raise AssertionError("refit before the argument checks")

        monkeypatch.setattr(diagnostics, "_fit", no_refit)
        with pytest.raises(UsageError, match=message):
            simulation_envelope(vaso, vaso_79, reps=reps, level=level)

    @staticmethod
    def _check(data, fit, kind, reps, seed, control=None):
        env, env_warnings = _recorded(simulation_envelope, data, fit, kind=kind, reps=reps,
                                      seed=seed, control=control)
        ref, ref_warnings = _recorded(_loop_envelope, data, fit, kind, reps, seed, control)
        assert (env.reps, env.failed, env.nonconverged) == (
            ref["reps"], ref["failed"], ref["nonconverged"])
        assert env_warnings == ref_warnings
        for key in ("observed", "lower", "upper"):
            got, want = getattr(env, key), ref[key]
            if kind == "standardized":
                assert np.array_equal(np.isnan(got), np.isnan(want))
                assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                assert got.tobytes() == want.tobytes()
        return env, ref

    @pytest.mark.parametrize("kind", ["quantile", "deviance", "standardized"])
    @pytest.mark.parametrize("fixture,q", [
        ("vaso", 0.79), ("vaso", 0.9), ("poisson_example", 0.9), ("gaussian_example", 0.9),
        ("profile_gaussian", 0.9)])
    def test_matches_per_replicate_loop(self, fixture, q, kind, request):
        data = _profile_gaussian() if fixture == "profile_gaussian" else request.getfixturevalue(fixture)
        self._check(data, fit_mlq(data, FitControl(q=q)), kind, 20, 5)

    def test_failed_refits_are_dropped(self, small_profiled):
        # n = 6 at q = 0.5, drawn from the recorded fit: of these 12 refits
        # one has a singular B_n and one a profiled dispersion on the
        # bracket edge
        data, mu, phi = small_profiled
        ctl = FitControl(q=0.5)
        fit = replace(fit_mlq(data, ctl), mu=mu, phi_hat=phi)
        env, ref = self._check(data, fit, "quantile", 12, 14, ctl)
        assert env.failed == 2
        assert sorted(ref["errors"]) == ["BracketError", "SingularMatrixError"]

    def test_blocks_share_the_observed_design(self, vaso, vaso_79, monkeypatch):
        # each block stacks its responses over the observed (n, p) design
        # itself, not over a copy or a stacked view of it per replicate
        from lqglm import diagnostics

        blocks, fit = [], diagnostics._fit

        def recording(base, q, control):
            blocks.append(base)
            return fit(base, q, control)

        monkeypatch.setattr(diagnostics, "_fit", recording)
        simulation_envelope(vaso, vaso_79, kind="deviance", reps=70, seed=3)
        assert [b.y.shape for b in blocks] == [(64, vaso.n), (6, vaso.n)]
        for b in blocks:
            assert b.X is vaso.X and b.xx.shape == (vaso.p * (vaso.p + 1) // 2, vaso.n)

    def test_invalid_responses_count_as_failed(self, poisson_example, monkeypatch):
        # a replicate whose response leaves the support fails before its refit
        fam = poisson_example.family
        draw = type(fam).sample

        def sample(self, rng, mu, phi):
            y = draw(self, rng, mu, phi)
            if rng.uniform() < 0.3:
                y[0] = -1.0
            return y

        monkeypatch.setattr(type(fam), "sample", sample)
        fit = fit_mlq(poisson_example, FitControl(q=0.9))
        env, ref = self._check(poisson_example, fit, "quantile", 20, 5)
        assert env.failed > 0 and sorted(set(ref["errors"])) == ["DomainError"]

    def test_nan_residuals_are_dropped_across_blocks(self, vaso, vaso_79):
        # 130 replicates span three blocks; six have an undefined residual
        env, _ = self._check(vaso, vaso_79, "standardized", 130, 3)
        assert env.failed == 6 and env.reps == 124

    def test_saturated_means_warn_for_each_replicate(self, vaso, vaso_79):
        # those six refits stop on theta overflow with a surrogate mean
        # saturated at 0 or 1 (V = 0, so the residual is 0/0): each warns
        env, caught = _recorded(simulation_envelope, vaso, vaso_79, kind="standardized",
                                reps=130, seed=3)
        undefined = [m for m in caught if "standardized residuals undefined" in m]
        assert len(undefined) == env.failed == 6
        assert all("saturated mean with V = 0" in m for m in undefined)

    def test_nonconverged_refits_are_counted(self, vaso, vaso_79):
        # one of these 20 refits stops at the 25-iteration cap
        env, _ = self._check(vaso, vaso_79, "quantile", 20, 5)
        assert env.nonconverged == 1 and env.failed == 0

    @pytest.mark.parametrize("fixture,q", [
        ("vaso", 0.79), ("vaso", 0.6), ("poisson_example", 0.9), ("gaussian_example", 0.9),
        ("profile_gaussian", 0.9)])
    def test_public_residuals_are_a_batch_of_one(self, fixture, q, request):
        data = _profile_gaussian() if fixture == "profile_gaussian" else request.getfixturevalue(fixture)
        fit = fit_mlq(data, FitControl(q=q))
        t, t_warnings = _recorded(standardized_residuals, data, fit)
        ref, ref_warnings = _recorded(_loop_standardized, data, fit)
        assert t_warnings == ref_warnings
        assert np.array_equal(np.isnan(t), np.isnan(ref))
        assert_allclose(t, ref, rtol=1e-12, atol=0)
        assert deviance_residuals(data, fit).tobytes() == _loop_deviance(data, fit).tobytes()
        r, r_warnings = _recorded(quantile_residuals, data, fit, rng_stream(9, 0))
        ref, ref_warnings = _recorded(_loop_quantile, data, fit, rng_stream(9, 0))
        assert r.tobytes() == ref.tobytes() and r_warnings == ref_warnings


class TestArgumentChecks:
    """Each check of a diagnostic's arguments raises its own error."""

    @pytest.mark.parametrize("call", [
        deviance_residuals,
        standardized_residuals,
        lambda d, f: quantile_residuals(d, f, rng_stream(9, 0)),
        lambda d, f: added_variable_score(d, f, np.linspace(-1.0, 1.0, d.n) ** 2),
        lambda d, f: simulation_envelope(d, f, kind="deviance", reps=10, seed=2),
        lambda d, f: bf_test(d, f, LinearHypothesis([[0.0, 1.0, -1.0]], [0.0]))],
        ids=["deviance", "standardized", "quantile", "added-variable", "envelope", "bf"])
    def test_data_must_be_the_fits(self, vaso, vaso_79, monkeypatch, call):
        # the flipped response gave wrong residuals and a bilinear statistic
        # of 0; an equal copy is the fit's data, and the fit's own data are
        # not compared
        flipped = ModelData(vaso.X, 1.0 - vaso.y, "bernoulli")
        with pytest.raises(UsageError, match="^data differ from the data of the fit$"):
            call(flipped, vaso_79)
        copy = ModelData(vaso.X.copy(), vaso.y.copy(), "bernoulli")
        want = call(copy, vaso_79)
        monkeypatch.setattr(np, "array_equal", None)
        assert repr(call(vaso, vaso_79)) == repr(want)

    def test_hypothesis_with_more_rows_than_columns(self):
        with pytest.raises(UsageError, match="^H cannot have more rows than columns$"):
            LinearHypothesis(np.ones((3, 2)), np.zeros(3))

    @pytest.mark.parametrize("H,message", [
        (np.ones((1, 2, 2)), "H and h have incompatible shapes"),
        ([["a", "b"]], "H and h must be numeric arrays"),
        ([[1.0], [1.0, 2.0]], "H and h must be numeric arrays")], ids=["3-D", "strings", "ragged"])
    def test_hypothesis_that_is_not_a_matrix(self, H, message):
        # a 3-D H once reached numpy's matmul and a string H float()'s ValueError
        with pytest.raises(UsageError, match=f"^{message}$"):
            LinearHypothesis(H, np.zeros(1))

    @pytest.mark.parametrize("test,message", [
        (lambda d, f, hyp: wald_test(f, hyp),
         "Wald test needs calibrated coefficients (canonical link)"),
        (lambda d, f, hyp: score_test(d, hyp, f.q),
         "constrained fits are defined for the canonical link"),
        (lambda d, f, hyp: bf_test(d, f, hyp),
         "bilinear-form test needs calibrated coefficients")], ids=["wald", "score", "bf"])
    def test_power_link_fit_has_no_linear_test(self, gaussian_power3, test, message):
        fit = fit_mlq(gaussian_power3, FitControl(q=0.9))
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            test(gaussian_power3, fit, LinearHypothesis([[0.0, 1.0]], [0.0]))

    def test_direction_of_the_wrong_length(self, vaso, vaso_79):
        with pytest.raises(UsageError, match="^z must have one entry per observation$"):
            added_variable_score(vaso, vaso_79, np.ones(vaso.n - 1))

    def test_new_point_of_the_wrong_length(self, vaso, vaso_79):
        with pytest.raises(UsageError, match="^x_new must have length p$"):
            influence_fn(vaso, vaso_79, 1.0, np.ones(vaso.p + 1))

    def test_unknown_residual_kind(self, vaso, vaso_79):
        with pytest.raises(UsageError, match="^unknown residual kind 'pearson'$"):
            simulation_envelope(vaso, vaso_79, kind="pearson", reps=20)

    @pytest.mark.parametrize("invalid,message", [
        (20, r"^too few successful envelope replicates \(0/20\)$"),
        (12, r"^too few successful envelope replicates \(8/20\)$")], ids=["all", "most"])
    def test_envelope_of_invalid_responses(self, poisson_example, monkeypatch, invalid, message):
        # the first ``invalid`` replicates draw a response outside the
        # support; a block without one valid response has no refit
        fit = fit_mlq(poisson_example, FitControl(q=0.9))
        draw, count = type(poisson_example.family).sample, itertools.count()

        def sample(self, rng, mu, phi):
            y = draw(self, rng, mu, phi)
            if next(count) < invalid:
                y[0] = -1.0
            return y

        monkeypatch.setattr(type(poisson_example.family), "sample", sample)
        with pytest.raises(UsageError, match=message):
            simulation_envelope(poisson_example, fit, kind="deviance", reps=20, seed=1)

    def test_envelope_control_at_another_q_refits_at_the_fit_q(self, vaso, vaso_79):
        # the control's other q and explicit init give way to fit.q and the
        # warm start; its other loop settings are the defaults here
        want = simulation_envelope(vaso, vaso_79, kind="deviance", reps=20, seed=4)
        got = simulation_envelope(vaso, vaso_79, kind="deviance", reps=20, seed=4,
                                  control=FitControl(q=0.5, init=np.zeros(vaso.p)))
        for a, b in zip(vars(got).values(), vars(want).values()):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
