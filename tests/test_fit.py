import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from lqglm import (
    BracketError,
    FitControl,
    ModelData,
    PowerThetaLink,
    calibrate,
    calibrate_coefficients,
    estimate_phi,
    estimating_function,
    fit_mlq,
    get_family,
    lq_objective,
    matrices_ab,
    robust_weights,
    rng_stream,
)
from lqglm.model import PROFILE

VASO_ML_BETA = np.array([-2.875, 5.179, 4.562])
VASO_ML_SE = np.array([1.321, 1.865, 1.838])
VASO_MLQ_BETA = np.array([-5.185, 8.234, 7.287])
VASO_MLQ_SE = np.array([2.563, 3.920, 3.455])


def _random_data(family_name, rng, n=25, p=2):
    fam = get_family(family_name)
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=(n, p - 1))])
    beta = rng.uniform(-0.7, 0.7, size=p)
    theta = X @ beta
    y = fam.sample(rng, fam.b_dot(theta), 1.0)
    if family_name == "bernoulli" and (y.sum() == 0 or y.sum() == n):
        y[0] = 1.0 - y[0]
    return ModelData(X, y, fam), beta


class TestLqObjective:
    def test_q1_is_loglikelihood(self, vaso, vaso_ml):
        from lqglm.families import log_density

        theta = vaso.X @ vaso_ml.beta_star
        ll = float(np.sum(log_density(vaso.family, vaso.y, theta, 1.0)))
        assert_allclose(lq_objective(vaso, vaso_ml.beta_star, 1.0), ll, rtol=1e-12)

    def test_single_term_bernoulli(self):
        # additive objective: one theta = 0, y = 1 term contributes
        # ((1/2)^{1/2} - 1) / (1/2)
        data = ModelData(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]), "bernoulli")
        total = lq_objective(data, np.array([0.0]), 0.5)
        term = (0.5**0.5 - 1.0) / 0.5
        assert_allclose(total, 2 * term, rtol=1e-12)
        assert_allclose(term, (math.sqrt(0.5) - 1.0) / 0.5, rtol=1e-15)

    def test_vaso_ml_matches_derivative_free_optimum(self, vaso, vaso_ml):
        # independent derivative-free maximization oracle
        res = minimize(
            lambda b: -lq_objective(vaso, b, 1.0),
            x0=np.zeros(3),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        assert_allclose(lq_objective(vaso, vaso_ml.beta_star, 1.0), -res.fun,
                        rtol=1e-8, atol=1e-8)


class TestRobustWeights:
    def test_q1_all_ones(self, vaso, vaso_ml):
        assert_allclose(robust_weights(vaso, vaso_ml.beta_star, 1.0), 1.0, rtol=0, atol=0)

    def test_discrete_weights_in_unit_interval(self, poisson_example):
        fit = fit_mlq(poisson_example, FitControl(q=0.9))
        w = robust_weights(poisson_example, fit.beta_star, 0.9)
        assert np.all(w > 0) and np.all(w <= 1.0)

    def test_vaso_downweights_influential_cases(self, vaso, vaso_79):
        # cases 4 and 18 get the two smallest weights; 24 is next
        order = np.argsort(vaso_79.weights) + 1
        assert set(order[:2]) == {4, 18}
        assert order[2] == 24
        assert vaso_79.weights[[3, 17]].max() < 0.5
        assert vaso_79.weights[23] < 0.9


class TestEstimatingFunction:
    def test_q1_canonical_score(self, vaso, vaso_ml):
        beta = np.array([-1.0, 2.0, 1.5])
        theta = vaso.X @ beta
        mu = vaso.family.b_dot(theta)
        assert_allclose(
            estimating_function(vaso, beta, 1.0), vaso.X.T @ (vaso.y - mu), rtol=1e-12
        )

    def test_zero_at_exact_fit(self):
        X = np.column_stack([np.ones(10), np.linspace(-1, 1, 10)])
        beta = np.array([0.3, -0.8])
        data = ModelData(X, X @ beta, "gaussian")
        assert_allclose(estimating_function(data, beta, 0.8), 0.0, atol=1e-12)

    def test_matches_finite_differences_poisson(self):
        rng = rng_stream(21, 0)
        X = np.column_stack([np.ones(10), rng.uniform(-1, 1, size=10)])
        y = rng.poisson(np.exp(X @ np.array([0.5, 0.7]))).astype(float)
        data = ModelData(X, y, "poisson")
        beta = np.array([0.4, 0.6])
        psi = estimating_function(data, beta, 0.9)
        fd = _fd_gradient(data, beta, 0.9)
        assert_allclose(psi, fd, rtol=1e-6)

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian"])
    def test_gradient_consistency_sweep(self, family):
        # 50 random (data, beta, q) triples per family
        rng = rng_stream(22, hash(family) % 1000)
        for k in range(50):
            data, beta_true = _random_data(family, rng)
            beta = beta_true + rng.uniform(-0.3, 0.3, size=beta_true.shape)
            q = float(rng.uniform(0.6, 1.0))
            psi = estimating_function(data, beta, q)
            fd = _fd_gradient(data, beta, q)
            scale = max(1.0, float(np.max(np.abs(psi))))
            assert np.max(np.abs(psi - fd)) / scale < 1e-5


def _fd_gradient(data, beta, q):
    h = 1e-6 * max(1.0, float(np.max(np.abs(beta))))
    g = np.empty_like(beta)
    for j in range(len(beta)):
        e = np.zeros_like(beta)
        e[j] = h
        g[j] = (lq_objective(data, beta + e, q) - lq_objective(data, beta - e, q)) / (2 * h)
    return g


class TestMatricesAB:
    def test_q1_fisher_information(self, vaso, vaso_ml):
        A, B = matrices_ab(vaso, vaso_ml.beta_star, 1.0)
        theta = vaso.X @ vaso_ml.beta_star
        W = vaso.family.b_ddot(theta)
        F = vaso.X.T @ (W[:, None] * vaso.X)
        assert_allclose(A, F, rtol=1e-12)
        assert_allclose(B, F, rtol=1e-12)

    def test_canonical_sandwich_form(self, vaso, vaso_79):
        # B^{-1} A B^{-1} = (1/(2-q)) (X' W J X)^{-1} under the canonical link
        q = 0.79
        A, B = matrices_ab(vaso, vaso_79.beta_star, q)
        direct = np.linalg.inv(B) @ A @ np.linalg.inv(B)
        assert_allclose(direct, np.linalg.inv(B) / (2.0 - q), rtol=1e-10)
        assert_allclose(vaso_79.cov, direct, rtol=1e-10)

    def test_bernoulli_sensitivity_matches_mc_jacobian(self):
        """B_n equals the Monte Carlo expected negative Jacobian.

        The derivative is taken in the consistent (calibrated)
        parameterization beta0 -> Psi(beta0 / q), matching the chain rule
        used to derive the sensitivity matrix; data are simulated at
        theta0 = q theta*.  Exact for the carrier-free Bernoulli family.
        """
        rng = rng_stream(31, 0)
        n, q, reps = 30, 0.9, 100_000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.3, 0.8])
        data0 = ModelData(X, np.r_[np.zeros(n // 2), np.ones(n - n // 2)], "bernoulli")
        fam = data0.family
        mu0 = fam.b_dot(q * (X @ beta_star))
        Y = (rng.uniform(size=(reps, n)) < mu0).astype(float)
        _, B_claim = matrices_ab(data0, beta_star, q)
        h = 1e-5
        p = 2
        B_mc = np.zeros((p, p))
        B_se = np.zeros((p, p))
        beta0 = q * beta_star
        for j in range(p):
            e = np.zeros(p)
            e[j] = h
            for sgn, bucket in ((1.0, None),):
                pass
            tp = X @ ((beta0 + e) / q)
            tm = X @ ((beta0 - e) / q)
            Up = np.exp((1 - q) * (Y * tp - fam.b(tp)))
            Um = np.exp((1 - q) * (Y * tm - fam.b(tm)))
            Pp = (Up * (Y - fam.b_dot(tp))) @ X
            Pm = (Um * (Y - fam.b_dot(tm))) @ X
            D = -(Pp - Pm) / (2 * h)
            B_mc[:, j] = D.mean(axis=0)
            B_se[:, j] = D.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(B_mc - B_claim) <= 4 * B_se)

    def test_bernoulli_variability_mc_gap_recorded(self):
        """A_n vs Monte Carlo E[Psi Psi'] on a Bernoulli design.

        The variability formula rests on an escort identity whose
        normalization premise fails at order r = 2 even for Bernoulli
        (see the escort normalization gate), so A_n carries a small
        systematic error for q < 1.  Per the gate convention the identity
        is recorded rather than asserted at Monte Carlo precision; this
        test pins the defect's size instead (under 10% here).
        """
        from lqglm import escort_normalization

        rng = rng_stream(32, 0)
        n, q, reps = 30, 0.9, 100_000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.3, 0.8])
        data0 = ModelData(X, np.r_[np.zeros(n // 2), np.ones(n - n // 2)], "bernoulli")
        fam = data0.family
        theta_star = X @ beta_star
        gate = [
            abs(escort_normalization(fam, float(t), 1.0, q, 2.0) - 1.0) > 1e-8
            for t in theta_star[:5]
        ]
        assert all(gate)  # r = 2 escort is not normalized: identity gated off
        mu0 = fam.b_dot(q * theta_star)
        Y = (rng.uniform(size=(reps, n)) < mu0).astype(float)
        U = np.exp((1 - q) * (Y * theta_star - fam.b(theta_star)))
        Psi = (U * (Y - fam.b_dot(theta_star))) @ X
        A_mc = Psi.T @ Psi / reps
        A_claim, _ = matrices_ab(data0, beta_star, q)
        rel = np.max(np.abs(A_mc - A_claim)) / np.max(np.abs(A_claim))
        assert 0.0 < rel < 0.10


class TestFitMlq:
    def test_reference_ml_fit(self, vaso_ml):
        assert np.max(np.abs(vaso_ml.beta_q - VASO_ML_BETA)) < 0.002
        assert np.max(np.abs(vaso_ml.se - VASO_ML_SE)) < 0.005
        assert vaso_ml.converged

    def test_reference_mlq_fit(self, vaso_79):
        assert np.max(np.abs(vaso_79.beta_q - VASO_MLQ_BETA)) < 0.02
        assert np.max(np.abs(vaso_79.se - VASO_MLQ_SE)) < 0.05

    def test_reference_grid_point_080(self, vaso):
        fit = fit_mlq(vaso, FitControl(q=0.80))
        ref = np.array([-4.636, 7.439, 6.601])
        assert np.max(np.abs((fit.beta_q - ref) / ref)) < 0.02

    def test_q_to_one_continuity(self, vaso, vaso_ml, poisson_example):
        near = fit_mlq(vaso, FitControl(q=0.9999))
        assert np.max(np.abs(near.beta_q - vaso_ml.beta_q)) < 1e-3
        p1 = fit_mlq(poisson_example, FitControl(q=1.0))
        pn = fit_mlq(poisson_example, FitControl(q=0.9999))
        assert np.max(np.abs(pn.beta_q - p1.beta_q)) < 1e-3

    def test_calibration_identities(self, vaso, vaso_ml, vaso_79):
        assert np.array_equal(vaso_ml.beta_q, vaso_ml.beta_star)  # q = 1 exact
        assert np.array_equal(vaso_79.beta_q, 0.79 * vaso_79.beta_star)

    def test_cov_symmetric_psd(self, vaso_79):
        assert np.array_equal(vaso_79.cov, vaso_79.cov.T)
        assert np.min(np.linalg.eigvalsh(vaso_79.cov)) > -1e-10

    def test_objective_ascent(self, vaso):
        for q in (1.0, 0.9, 0.79):
            fit = fit_mlq(vaso, FitControl(q=q))
            assert np.all(np.diff(fit.objective_trace) >= -1e-10)

    def test_coef_psi_stop_rule_invariant(self, poisson_example):
        ctl = FitControl(q=0.9, stop_rule="coef-psi", max_iter=100, tol=1e-8)
        fit = fit_mlq(poisson_example, ctl)
        assert fit.converged
        # psi at the warm start bounds the criterion's scale
        ml = fit_mlq(poisson_example, FitControl(q=1.0, stop_rule="coef-psi", max_iter=100))
        psi0 = np.max(np.abs(estimating_function(poisson_example, ml.beta_star, 0.9)))
        assert fit.psi_norm <= 1e-8 * (1.0 + psi0)

    @pytest.mark.parametrize("fixture,q,with_offset", [
        ("vaso", 1.0, False), ("vaso", 0.79, False),
        ("poisson_example", 0.9, False), ("poisson_example", 0.9, True),
    ])
    def test_psi_norm_is_at_the_returned_estimate(self, fixture, q, with_offset, request):
        # the reported norm belongs to beta_star itself, not to the point
        # the last step was taken from
        data = request.getfixturevalue(fixture)
        offset = 0.1 * np.cos(np.arange(data.n)) if with_offset else None
        fit = fit_mlq(data, FitControl(q=q), offset=offset)
        psi = estimating_function(data, fit.beta_star, q, offset=offset)
        assert fit.psi_norm == float(np.max(np.abs(psi)))

    def test_separation_surfaces(self):
        # complete separation: the psi-based rule drives the weights to
        # collapse, surfacing the indeterminacy as a singularity error
        from lqglm import SingularMatrixError

        X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
        y = np.r_[np.zeros(6), np.ones(6)]
        data = ModelData(X, y, "bernoulli")
        with pytest.raises(SingularMatrixError, match="separation"):
            fit_mlq(data, FitControl(q=1.0, stop_rule="coef-psi", max_iter=5000))

    def test_error_types_and_messages(self, poisson_example):
        from lqglm import DomainError, SingularMatrixError

        X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
        data = ModelData(X, np.r_[np.zeros(6), np.ones(6)], "bernoulli")
        with pytest.raises(SingularMatrixError) as err:
            fit_mlq(data, FitControl(q=1.0, stop_rule="coef-psi", max_iter=5000))
        assert re.fullmatch(
            r"weighted normal equations singular at iteration \d+ \(pivot (\d+)\): "
            r"likely separation or indeterminacy in the data", str(err.value))
        assert str(err.value.pivot) == re.search(r"pivot (\d+)", str(err.value)).group(1)
        with pytest.raises(DomainError, match="^starting value gives a non-finite Lq-objective$"):
            fit_mlq(poisson_example, FitControl(q=0.9, init=np.full(3, np.nan)))

    def test_profile_psi_norm_at_returned_pair(self):
        # psi_norm belongs to (beta_star, phi_hat), not to the last loop run
        # at the previous dispersion
        rng = rng_stream(42, 0)
        X = np.column_stack([np.ones(80), rng.uniform(-1, 1, size=80)])
        y = rng.normal(X @ np.array([1.0, -0.5]), 0.5)
        data = ModelData(X, y, "gaussian", phi=PROFILE)
        fit = fit_mlq(data, FitControl(q=0.9))
        psi = estimating_function(data, fit.beta_star, 0.9, fit.phi_hat)
        assert fit.psi_norm == float(np.max(np.abs(psi)))

    def test_explicit_init(self, vaso):
        ctl = dict(q=0.9, stop_rule="coef-psi", max_iter=200, tol=1e-10)
        base = fit_mlq(vaso, FitControl(**ctl))
        fit = fit_mlq(vaso, FitControl(init=base.beta_star, **ctl))
        assert base.converged and fit.converged
        assert np.max(np.abs(fit.beta_q - base.beta_q)) < 1e-8


class TestCalibrate:
    def test_canonical_halving(self):
        from lqglm import CanonicalLink

        out = calibrate_coefficients(CanonicalLink(), np.array([2.0, -4.0]), 0.5)
        assert_allclose(out, [1.0, -2.0], rtol=0)

    def test_q1_identity(self):
        from lqglm import CanonicalLink

        eta = np.array([0.3, -1.2, 2.2])
        assert_allclose(calibrate(CanonicalLink(), eta, 1.0), eta, rtol=0)

    def test_power_link(self):
        out = calibrate(PowerThetaLink(3), np.array([2.0]), 0.5)
        assert_allclose(out, [4.0 ** (1.0 / 3.0)], rtol=1e-12)
        assert calibrate_coefficients(PowerThetaLink(3), np.array([2.0]), 0.5) is None
        # identity at q = 1 regardless of the link
        assert_allclose(
            calibrate_coefficients(PowerThetaLink(3), np.array([2.0]), 1.0), [2.0]
        )


class TestNonCanonicalLink:
    def test_power_link_fit_reports_predictors(self):
        rng = rng_stream(55, 0)
        n = 80
        X = np.column_stack([np.ones(n), rng.uniform(0.2, 1.0, size=n)])
        link = PowerThetaLink(3)
        theta = link.k(X @ np.array([0.8, 0.5]))
        y = rng.normal(theta, 1.0)
        data = ModelData(X, y, "gaussian", link=link, phi=1.0)
        fit = fit_mlq(data, FitControl(q=0.9, stop_rule="coef-psi", max_iter=200))
        assert fit.converged
        assert fit.beta_q is None  # coefficients not identifiable off-canonical
        assert_allclose(fit.eta_q, calibrate(link, fit.eta_star, 0.9), rtol=1e-12)
        assert fit.psi_norm < 1e-6


class TestEstimatePhi:
    def test_ml_variance(self):
        rng = rng_stream(41, 0)
        X = np.column_stack([np.ones(30), rng.uniform(-1, 1, size=30)])
        y = rng.normal(X @ np.array([1.0, -0.5]), 0.5)
        data = ModelData(X, y, "gaussian")
        fit = fit_mlq(data, FitControl(q=1.0))
        phi_hat = estimate_phi(data, fit.beta_q, 1.0)
        rss = float(np.sum((y - X @ fit.beta_q) ** 2))
        assert abs(phi_hat - data.n / rss) / (data.n / rss) < 1e-6

    def test_degenerate_zero_variance(self):
        X = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
        beta = np.array([0.5, 2.0])
        data = ModelData(X, X @ beta, "gaussian")
        with pytest.raises(BracketError):
            estimate_phi(data, beta, 1.0)

    def test_profile_fit(self):
        rng = rng_stream(42, 0)
        X = np.column_stack([np.ones(200), rng.uniform(-1, 1, size=200)])
        sigma = 0.5
        y = rng.normal(X @ np.array([1.0, -0.5]), sigma)
        data = ModelData(X, y, "gaussian", phi=PROFILE)
        fit = fit_mlq(data, FitControl(q=0.95))
        assert 0.5 / sigma**2 < fit.phi_hat < 2.0 / sigma**2


class TestModelData:
    def test_support_validation(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        from lqglm import DomainError, UsageError

        with pytest.raises(DomainError):
            ModelData(X, np.array([0.0, 1.0, 2.5, 0, 1, 0]), "poisson")
        with pytest.raises(DomainError):
            ModelData(X, np.array([0.0, 1.0, 2.0, 0, 1, 0]), "bernoulli")

    def test_rank_and_shape_validation(self):
        from lqglm import UsageError

        X = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(UsageError):
            ModelData(X, np.zeros(6), "gaussian")
        with pytest.raises(UsageError):
            ModelData(np.ones((2, 2)), np.zeros(2), "gaussian")

    def test_arrays_frozen(self, vaso):
        with pytest.raises(ValueError):
            vaso.X[0, 0] = 99.0

    def test_control_validation(self):
        from lqglm import UsageError

        with pytest.raises(UsageError):
            FitControl(q=0.0)
        with pytest.raises(UsageError):
            FitControl(q=1.2)
        with pytest.raises(UsageError):
            FitControl(q=0.9, stop_rule="bogus")

    def test_profile_rejected_for_fixed_dispersion(self):
        from lqglm import UsageError

        X = np.column_stack([np.ones(6), np.arange(6.0)])
        with pytest.raises(UsageError):
            ModelData(X, np.r_[np.zeros(3), np.ones(3)], "bernoulli", phi=PROFILE)


class TestUnbiasednessAtSurrogate:
    def test_bernoulli_mc(self):
        # E0[Psi(beta*)] = 0 with data at theta0 = q theta*, within 4 SE
        rng = rng_stream(51, 0)
        n, q, reps = 30, 0.85, 10_000
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.4, -0.7])
        fam = get_family("bernoulli")
        mu0 = fam.b_dot(q * (X @ beta_star))
        Y = (rng.uniform(size=(reps, n)) < mu0).astype(float)
        theta_star = X @ beta_star
        U = np.exp((1 - q) * (Y * theta_star - fam.b(theta_star)))
        Psi = (U * (Y - fam.b_dot(theta_star))) @ X
        m = Psi.mean(axis=0)
        se = Psi.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(m) <= 4 * se)


class TestBatchedCore:
    """The IRLS core fits a batch of independent rows; rows never interact."""

    @staticmethod
    def _batch():
        from lqglm.fit import _classical_start, _stack

        sep_X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
        datas = [ModelData(sep_X, np.r_[np.zeros(6), np.ones(6)], "bernoulli")]
        rng = rng_stream(71, 0)
        for _ in range(3):
            X = np.column_stack([np.ones(12), rng.uniform(-1, 1, size=12)])
            y = np.r_[0.0, 1.0, (rng.uniform(size=10) < 0.5).astype(float)]
            datas.append(ModelData(X, y, "bernoulli"))
        prob = _stack(datas, 1.0)
        beta0 = _classical_start(prob)[0]
        beta0[2] = np.nan  # a start without a finite objective
        return prob, beta0

    @pytest.mark.parametrize("q", [1.0, 0.8])
    def test_failing_rows_leave_the_others_unchanged(self, q):
        from lqglm import DomainError, SingularMatrixError
        from lqglm.fit import _irls

        prob, beta0 = self._batch()
        ctl = FitControl(stop_rule="coef-psi", max_iter=5000)
        batch = _irls(prob, q, beta0, ctl)
        assert isinstance(batch.error[2], DomainError)
        if q == 1.0:
            assert isinstance(batch.error[0], SingularMatrixError)
        for r in (1, 3):
            alone = _irls(prob.rows([r]), q, beta0[[r]], ctl)
            assert batch.error[r] is None and alone.error[0] is None
            assert batch.beta[r].tobytes() == alone.beta[0].tobytes()
            assert batch.iterations[r] == alone.iterations[0]
            assert batch.converged[r] and alone.converged[0]
            assert batch.message[r] == alone.message[0]
            assert batch.trace[:, r].tobytes() == alone.trace[:, 0].tobytes()

    def test_batch_of_one_is_fit_mlq(self, poisson_example):
        from lqglm.fit import _irls, _stack

        ctl = FitControl(q=0.9, init=np.full(3, 0.5))
        fit = fit_mlq(poisson_example, ctl)
        res = _irls(_stack([poisson_example], 1.0), 0.9, np.full((1, 3), 0.5), ctl)
        assert fit.beta_star.tobytes() == res.beta[0].tobytes()
        assert fit.iterations == res.iterations[0] and fit.objective_trace[-1] == res.trace[fit.iterations, 0]
