import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from lqglm import (
    DegenerateDirectionError,
    FitControl,
    LinearHypothesis,
    ModelData,
    UsageError,
    added_variable_score,
    aic_q,
    bf_test,
    deviance_q,
    deviance_residuals,
    fit_mlq,
    influence_fn,
    lq_objective,
    quantile_residuals,
    rng_stream,
    score_test,
    simulation_envelope,
    standardized_residuals,
    wald_test,
)


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


class TestAicQ:
    def test_canonical_penalty(self, vaso, vaso_79):
        # penalty 2 tr(B^-1 A) = 2 p / (2 - q) under the canonical link
        val = aic_q(vaso, vaso_79)
        assert_allclose(val + 2 * vaso_79.lq_value, 2 * 3 / (2 - 0.79), rtol=1e-10)

    def test_q1_classical_aic(self, vaso, vaso_ml):
        val = aic_q(vaso, vaso_ml)
        assert_allclose(val, -2 * vaso_ml.lq_value + 2 * 3, rtol=1e-10)


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

    def test_pvalues_and_dof(self, vaso, vaso_79):
        hyp = LinearHypothesis([[0.0, 1.0, -1.0]], [0.0])
        r = wald_test(vaso_79, hyp)
        assert r.dof == 1
        from lqglm import chi_square_sf

        assert r.p_value == chi_square_sf(r.statistic, 1)

    def test_rank_deficient_H_rejected(self):
        with pytest.raises(UsageError):
            LinearHypothesis([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])


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


    @pytest.mark.parametrize("fixture,q,rtol", [
        ("vaso", 0.79, 1e-12), ("poisson_example", 0.9, 1e-12), ("vaso", 0.6, 1e-9)])
    def test_matches_dense_hat_matrix(self, fixture, q, rtol, request):
        # reference: the diagonals of the n x n M = P W J and M @ M; the
        # vaso fit at q = 0.6 stops on theta overflow, so X' W J GK X is
        # nearly singular (hence the looser tolerance) and one residual is NaN
        from lqglm.diagnostics import _hat_pieces

        data = request.getfixturevalue(fixture)
        fit = fit_mlq(data, FitControl(q=q, max_iter=100))
        w, V, W, J, GK, XtDX = _hat_pieces(data, fit)
        M = data.X @ np.linalg.solve(XtDX, data.X.T) * (W * J)[None, :]
        m, m2 = np.diag(M), np.diag(M @ M)
        bracket = (1.0 - GK * m) - GK * (m - GK * m2)
        with np.errstate(invalid="ignore"):
            dense = (np.sqrt(2.0 - q) * w.U * (data.y - w.mu)
                     / (np.sqrt(J * V / fit.phi_hat) * np.sqrt(np.where(bracket < 0, np.nan, bracket))))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = standardized_residuals(data, fit)
        n_bad = int(np.sum(bracket < 0))
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
        from lqglm import escort_normalization
        from lqglm.fit import matrices_ab

        rng = rng_stream(61, 0)
        n, q, reps = 40, 0.9, 40_000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.4, -0.6])
        y0 = (rng.uniform(size=n) < 1 / (1 + np.exp(-q * (X @ beta_star)))).astype(float)
        data = ModelData(X, y0, "bernoulli")
        gate_fails = abs(escort_normalization(data.family, 0.4, 1.0, q, 2.0) - 1.0) > 1e-8
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

    def test_vaso_outliers_leave_envelope(self, vaso, vaso_79):
        env = simulation_envelope(vaso, vaso_79, kind="standardized", reps=100, seed=7)
        outside = (env.observed > env.upper) | (env.observed < env.lower)
        t = standardized_residuals(vaso, vaso_79)
        order = np.argsort(t)
        ranks = {order[-1] + 1, order[-2] + 1}
        assert ranks == {4, 18}
        assert outside[-1] and outside[-2]
