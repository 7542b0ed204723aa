import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from lqglm import (
    BracketError,
    DomainError,
    EvaluationError,
    FitControl,
    ModelData,
    PowerThetaLink,
    SimDesign,
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
from conftest import stack

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

    def test_calibrated_just_below_q1(self, vaso):
        # q = 1 means exactly 1: a q short of it by 5e-13 is calibrated like
        # any q < 1, so beta_q and eta_q describe the same predictor
        q = 1.0 - 5e-13
        fit = fit_mlq(vaso, FitControl(q=q))
        assert np.array_equal(fit.beta_q, q * fit.beta_star)
        assert np.max(np.abs(vaso.X @ fit.beta_q - fit.eta_q)) <= 1e-14

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

    @pytest.mark.parametrize("fixture,q", [
        ("vaso", 1.0), ("vaso", 0.79), ("poisson_example", 0.9),
    ])
    def test_psi_norm_is_at_the_returned_estimate(self, fixture, q, request):
        # the reported norm belongs to beta_star itself, not to the point
        # the last step was taken from
        data = request.getfixturevalue(fixture)
        fit = fit_mlq(data, FitControl(q=q))
        psi = estimating_function(data, fit.beta_star, q)
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

    def test_overflowed_weights_raise(self):
        # counts up to 3441: at q < 1 the weight J = exp(phi (q b(theta) -
        # b(q theta))) overflows at the solution, which the Cholesky
        # factorization lets through; B_n is not finite, a typed error
        # without a numpy warning
        import warnings

        from lqglm import SingularMatrixError

        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=20)
        data = ModelData(np.column_stack([np.ones(20), x]),
                         rng.poisson(np.exp(1 + 7.5 * x)).astype(float), "poisson")
        assert data.y.max() == 3441 and fit_mlq(data, FitControl(q=1.0)).converged
        for q in (0.95, 0.8, 0.6, 0.55):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularMatrixError, match="^B_n is not finite: the weights"):
                    fit_mlq(data, FitControl(q=q))

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

    # At eta = 0 the power link has k_dot = 0: the observation has zero weight
    # W = V k_dot^2 and the inverse link's derivative is infinite there.

    @pytest.mark.parametrize("q", [1.0, 0.9])
    def test_zero_response_starts_classically(self, q):
        # a Gaussian y = 0 starts at theta0 = eta0 = 0, a zero-weight row
        rng = rng_stream(55, 0)
        n = 40
        X = np.column_stack([np.ones(n), rng.uniform(0.2, 1.0, size=n)])
        link = PowerThetaLink(3)
        y = rng.normal(link.k(X @ np.array([0.8, 0.5])), 1.0)
        y[3] = 0.0
        data = ModelData(X, y, "gaussian", link=link, phi=1.0)
        ctl = FitControl(q=q, stop_rule="coef-psi", tol=1e-10, max_iter=200)
        warm = fit_mlq(data, ctl)
        explicit = fit_mlq(data, replace(ctl, init=np.array([0.5, 0.5])))
        assert warm.converged and explicit.converged
        assert_allclose(warm.beta_star, explicit.beta_star, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("q", [1.0, 0.9])
    def test_all_zero_design_row(self, q):
        from lqglm.diagnostics import standardized_residuals

        rng = rng_stream(56, 0)
        n = 40
        X = np.column_stack([rng.uniform(0.2, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n)])
        X[0] = 0.0
        link = PowerThetaLink(3)
        y = rng.normal(link.k(X @ np.array([0.8, 0.5])), 1.0)
        data = ModelData(X, y, "gaussian", link=link, phi=1.0)
        fit = fit_mlq(data, FitControl(q=q))
        assert fit.converged and fit.message == ""
        assert np.isfinite(fit.se).all()
        assert np.isfinite(standardized_residuals(data, fit)).all()


class TestCanonicalKernel:
    """The canonical link skips its unit factor ``k_dot = 1``.

    ``PowerThetaLink(1)`` is the identity link too, but it takes the
    generic path, which multiplies by that factor, exactly 1; every
    number of the fit must agree bit for bit."""

    @pytest.mark.parametrize("family", ["poisson", "bernoulli", "gaussian"])
    @pytest.mark.parametrize("q", [1.0, 0.95, 0.8])
    @pytest.mark.parametrize("stop_rule", ["objective", "coef-psi"])
    @pytest.mark.parametrize("explicit_init", [False, True])
    def test_equals_the_generic_path(self, family, q, stop_rule, explicit_init):
        drawn = _draw(family, 61, 40)
        phi = PROFILE if family == "gaussian" else 1.0
        ctl = FitControl(q=q, stop_rule=stop_rule, max_iter=100,
                         init=np.array([0.2, 0.5]) if explicit_init else "ml-warm-start")
        fits = [fit_mlq(ModelData(drawn.X, drawn.y, family, link=link, phi=phi), ctl)
                for link in (None, PowerThetaLink(1))]
        canonical, generic = fits
        for key in ("beta_star", "eta_star", "eta_q", "A_n", "B_n", "cov", "weights", "mu",
                    "mu_star"):
            assert getattr(canonical, key).tobytes() == getattr(generic, key).tobytes(), key
        for key in ("iterations", "converged", "psi_norm", "lq_value", "phi_hat", "message",
                    "objective_trace"):
            assert getattr(canonical, key) == getattr(generic, key), key


class TestFiniteDomain:
    """Every shipped family's natural parameter ranges over the real line,
    so a point is outside the domain exactly where ``theta`` is not finite."""

    def _data(self, family):
        rng = rng_stream(5, 0)
        n = 30
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, n)])
        X[7, 1] = 1e150  # the predictor overflows here at a slope of 1e170
        y = (rng.poisson(2.0, n) if family == "poisson" else
             rng.integers(0, 2, n) if family == "bernoulli" else rng.normal(size=n))
        return ModelData(X, y.astype(float), family)

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian"])
    def test_infinite_predictor_names_its_row(self, family):
        data = self._data(family)
        assert np.isfinite(lq_objective(data, np.array([0.1, 0.0]), 0.9))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as exc:
            lq_objective(data, np.array([0.1, 1e170]), 0.9)
        assert exc.value.index == 7

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "gaussian"])
    @pytest.mark.parametrize("init", [[np.nan, 0.0], [0.0, np.inf], [0.1, 1e170]])
    def test_non_finite_start_raises(self, family, init):
        data = self._data(family)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="starting value"):
            fit_mlq(data, FitControl(q=0.9, init=np.array(init)))


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

    def test_profiled_dispersion_matches_grid_scan(self):
        # grid-scan oracle on a 20-point fixed-seed Gaussian dataset
        rng = rng_stream(7, 0)
        X = np.column_stack([np.ones(20), rng.uniform(-1, 1, size=20)])
        y = rng.normal(X @ np.array([1.0, 2.0]), 0.7)
        data = ModelData(X, y, "gaussian", phi=1.0)
        fit = fit_mlq(data, FitControl(q=0.9))
        phi_hat = estimate_phi(data, fit.beta_q, 0.9)

        # two-stage grid scan, effective resolution beyond 1e6 points
        coarse = np.exp(np.linspace(np.log(phi_hat / 50), np.log(phi_hat * 50), 2001))
        vals = np.array([lq_objective(data, fit.beta_q, 0.9, phi=p) for p in coarse])
        k = int(np.argmax(vals))
        fine = np.exp(np.linspace(np.log(coarse[max(k - 1, 0)]),
                                  np.log(coarse[min(k + 1, 2000)]), 20001))
        fvals = np.array([lq_objective(data, fit.beta_q, 0.9, phi=p) for p in fine])
        phi_grid = fine[int(np.argmax(fvals))]
        assert abs(phi_hat - phi_grid) / phi_grid < 1e-6

    def test_nonfinite_profile_names_its_probe(self):
        # y theta and b(theta) overflow, so the profile is NaN at every scan
        # point: the first, the bracket's lower end, is named
        from lqglm.fit import PHI_BRACKET

        X = np.column_stack([np.ones(5), np.arange(5.0)])
        eta = X @ np.array([1e160, 0.0])
        data = ModelData(X, eta + 1e145 * np.array([0.5, -1.0, 0.25, 2.0, -0.75]), "gaussian")
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(EvaluationError, match="not finite") as exc:
            estimate_phi(data, np.array([1e160, 0.0]), 0.9)
        rss = np.sum((data.y - eta) ** 2)
        assert exc.value.probe == np.log(data.n / rss / PHI_BRACKET)

    def test_gaussian_is_the_only_free_dispersion(self):
        # the dispersion search solves the Gaussian score: a new family
        # with a free dispersion needs its own
        from lqglm.families import _FAMILIES

        free = [name for name, fam in _FAMILIES.items() if fam.phi_fixed is None]
        assert free == ["gaussian"]


class TestModelData:
    def test_support_validation(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        from lqglm import DomainError, UsageError

        with pytest.raises(DomainError):
            ModelData(X, np.array([0.0, 1.0, 2.5, 0, 1, 0]), "poisson")
        with pytest.raises(DomainError):
            ModelData(X, np.array([0.0, 1.0, 2.0, 0, 1, 0]), "bernoulli")

    def test_poisson_response_of_inf_is_refused(self):
        # inf equals its own rounding: it once reached fit_mlq, whose
        # "starting value gives a non-finite Lq-objective" blamed the start
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        with pytest.raises(DomainError, match="Poisson responses must be nonnegative integers"):
            ModelData(X, np.array([0.0, 1.0, np.inf, 0, 1, 0]), "poisson")

    @pytest.mark.parametrize("family,link", [("binomial", None), ("gaussian", "probit"),
                                             ("gaussian", 5), ("gaussian", "powerx"),
                                             ("gaussian", "power2")])
    def test_unknown_family_or_link_is_a_usage_error(self, family, link):
        from lqglm import UsageError

        X = np.column_stack([np.ones(6), np.arange(6.0)])
        with pytest.raises(UsageError):
            ModelData(X, np.zeros(6), family, link=link)

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

    @pytest.mark.parametrize("make,message", [
        (lambda X: ModelData(X, np.zeros(6), "gaussian", phi=None),
         "phi must be a real number, got None"),
        (lambda X: FitControl(q="0.5"), "q must be a real number, got '0.5'"),
        (lambda X: FitControl(tol="1e-8"), "tol must be a real number, got '1e-8'"),
        (lambda X: FitControl(q=True), "q must be a real number, got True")],
        ids=["phi", "q", "tol", "q-bool"])
    def test_non_numeric_setting_is_a_usage_error(self, make, message):
        from lqglm import UsageError

        # each once ended in a bare TypeError, and a bool once passed as q = 1
        with pytest.raises(UsageError, match=f"^{message}$"):
            make(np.column_stack([np.ones(6), np.arange(6.0)]))

    def test_unknown_init_rejected_when_made(self):
        from lqglm import UsageError

        # select_q_stability and score_test replace init, so a bad one
        # must be refused where the control is made
        for make in (lambda: FitControl(init="bogus"),
                     lambda: replace(FitControl(), init="bogus")):
            with pytest.raises(UsageError, match="^unknown init 'bogus'$"):
                make()

    def test_negative_max_iter_rejected(self, vaso):
        from lqglm import UsageError

        with pytest.raises(UsageError, match="max_iter"):
            FitControl(max_iter=-1)
        # 2.5 once ended in a bare TypeError from range() inside the fit
        with pytest.raises(UsageError, match="max_iter must be an integer, got 2.5"):
            FitControl(max_iter=2.5)
        # True was once stored as the cap, 1
        with pytest.raises(UsageError, match="^max_iter must be an integer, got True$"):
            FitControl(max_iter=True)
        assert fit_mlq(vaso, FitControl(max_iter=np.int64(0))).iterations == 0  # numpy passes
        # a cap of 0 stays valid: the fit stops at its start
        fit = fit_mlq(vaso, FitControl(max_iter=0))
        assert fit.iterations == 0 and not fit.converged

    def test_nan_tol_rejected(self):
        from lqglm import UsageError

        # no fit can meet a NaN tolerance, so it would run to the cap
        with pytest.raises(UsageError, match="tol"):
            FitControl(tol=float("nan"))

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


class TestExactSensitivity:
    """Exact Bernoulli expectations of the estimating function at ``beta*``.

    Data follow the calibrated truth ``theta0 = q k(x' beta*)``, where the
    escort premise of the closed forms is exact (README "Known
    limitations").  Per observation ``psi_i = U_i k_dot_i (y_i - mu_i) x_i``
    takes the values y = 0 and 1 only, so each expectation is a two-term
    sum; the slope of ``psi_i`` in ``eta_i`` is a central difference."""

    @pytest.mark.parametrize("link", ["canonical", "power3"])
    @pytest.mark.parametrize("q", [1.0, 0.9, 0.6])
    def test_mean_zero_and_jacobian_is_q_b_n(self, link, q):
        from lqglm import CanonicalLink
        from lqglm.fit import _problem, _working

        link = CanonicalLink() if link == "canonical" else PowerThetaLink(3)
        rng = rng_stream(32, 0)
        n = 30
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        beta_star = np.array([0.3, 0.8])
        data = ModelData(X, (np.arange(n) % 2).astype(float), "bernoulli", link=link)
        eta = X @ beta_star
        p1 = 1.0 / (1.0 + np.exp(-q * link.k(eta)))
        prob = _problem(data, 1.0, y=np.array([np.zeros(n), np.ones(n)]))

        def expected_term(eta):
            w = _working(prob, eta, q)
            s = w.U * w.kdot * (prob.y - w.mu)
            return (1.0 - p1) * s[0] + p1 * s[1]

        h = 1e-6
        slope = (expected_term(eta + h) - expected_term(eta - h)) / (2 * h)
        assert_allclose(X.T @ expected_term(eta), 0.0, rtol=0, atol=1e-13)
        _, B = matrices_ab(data, beta_star, q)
        assert_allclose(-(X.T * slope) @ X, q * B, rtol=1e-8)


class TestBatchedCore:
    """The IRLS core fits a batch of independent rows; rows never interact."""

    @staticmethod
    def _batch():
        from lqglm.fit import _classical_start

        sep_X = np.column_stack([np.ones(12), np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]])
        datas = [ModelData(sep_X, np.r_[np.zeros(6), np.ones(6)], "bernoulli")]
        rng = rng_stream(71, 0)
        for _ in range(3):
            X = np.column_stack([np.ones(12), rng.uniform(-1, 1, size=12)])
            y = np.r_[0.0, 1.0, (rng.uniform(size=10) < 0.5).astype(float)]
            datas.append(ModelData(X, y, "bernoulli"))
        prob = stack(datas)
        beta0 = _classical_start(prob)[0]
        beta0[2] = np.nan  # a start without a finite objective
        return prob, beta0

    @pytest.mark.parametrize("q", [1.0, 0.8])
    def test_failing_rows_leave_the_others_unchanged(self, q):
        from lqglm import DomainError, SingularMatrixError
        from lqglm.fit import _irls

        prob, beta0 = self._batch()
        for solver in ("scoring", "newton"):
            ctl = FitControl(stop_rule="coef-psi", max_iter=5000, solver=solver)
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
                assert batch.trace[r].tobytes() == alone.trace[0].tobytes()

    @staticmethod
    def _stop_batch():
        """One row per way a fit stops, each from its own start."""
        rng = rng_stream(5, 0)
        X = np.column_stack([np.ones(12), rng.uniform(-1, 1, size=12)])
        y = np.r_[0.0, 1.0, (rng.uniform(size=10) < 0.5).astype(float)]
        sep = np.r_[np.linspace(-2, -0.2, 6), np.linspace(0.2, 2, 6)]
        y_sep = np.r_[np.zeros(6), np.ones(6)]
        datas = [ModelData(X, y, "bernoulli"),
                 # separated on a tiny scale: the coefficients blow up first
                 ModelData(np.column_stack([np.ones(12), sep * 1e-3]), y_sep, "bernoulli"),
                 ModelData(X, y, "bernoulli"),
                 ModelData(X, y, "bernoulli"),
                 # separated on a unit scale: slow growth up to the cap
                 ModelData(np.column_stack([np.ones(12), sep]), y_sep, "bernoulli"),
                 ModelData(X, y, "bernoulli")]
        beta0 = np.zeros((6, 2))
        beta0[2] = [800.0, 0.0]  # |theta| beyond the overflow guard
        beta0[3] = np.nan  # no finite objective
        beta0[5] = [600.0, 0.0]  # vanishing weights: a step no halving can rescue
        return stack(datas), beta0

    @pytest.mark.parametrize("solver", ["scoring", "newton"])
    def test_each_stop_reason_retires_its_row(self, solver):
        from lqglm import DomainError
        from lqglm.fit import _irls

        prob, beta0 = self._stop_batch()
        ctl = FitControl(stop_rule="coef-psi", max_iter=12, solver=solver)
        batch = _irls(prob, 1.0, beta0, ctl)
        assert list(batch.message) == [
            "",
            "stopped: coefficient blow-up points to separation/indeterminacy",
            "stopped: |theta| overflow points to separation/indeterminacy",
            "",
            "no convergence within 12 iterations",
            "stopped: step halving exhausted without improving the objective",
        ]
        assert batch.converged.tolist() == [True] + [False] * 5
        assert batch.iterations[2:].tolist() == [1, 0, 12, 1]
        assert [type(e) for e in batch.error] == [type(None)] * 3 + [DomainError] + [type(None)] * 2
        # a row stopped before a step keeps its start
        assert batch.beta[2].tolist() == [800.0, 0.0] and batch.beta[5].tolist() == [600.0, 0.0]
        for r in range(6):
            alone = _irls(prob.rows([r]), 1.0, beta0[[r]], ctl)
            assert batch.beta[r].tobytes() == alone.beta[0].tobytes()
            assert batch.iterations[r] == alone.iterations[0]
            assert batch.converged[r] == alone.converged[0]
            assert batch.message[r] == alone.message[0]
            assert batch.trace[r].tobytes() == alone.trace[0].tobytes()
            assert repr(batch.error[r]) == repr(alone.error[0])

    def test_failed_start_keeps_its_error_at_every_q(self, monkeypatch):
        # the study's block: replicate 1 fails at the classical start, and
        # every q-stage keeps that error while the other rows fit
        from lqglm import fit as fit_module
        from lqglm.numerics import _not_positive_definite
        from lqglm.simulate import MAX_ITER, TOL

        start = fit_module._classical_start

        def singular_row_1(prob):
            beta, pivot = start(prob)
            beta[1], pivot[1] = np.nan, 2
            return beta, pivot

        monkeypatch.setattr(fit_module, "_classical_start", singular_row_1)
        qs = [1.0, 0.9, 0.8]
        stages, estimates = _study_stages(monkeypatch, SimDesign(n=50, reps=3, q_list=qs, seed=5))
        want = _chained_oracle(stages[0][1], qs, FitControl(max_iter=MAX_ITER, tol=TOL))
        assert [q for q, _, _ in stages] == qs
        for (_, _, res), ref in zip(stages, want):
            _assert_same_irls(res, ref)
            assert repr(res.error[1]) == repr(_not_positive_definite(2))
            assert res.error[0] is None and res.error[2] is None
        assert np.isnan(estimates[1]).all()

    def test_put_moves_whole_rows(self):
        from lqglm.fit import _irls

        prob, beta0 = self._stop_batch()
        ctl = FitControl(stop_rule="coef-psi", max_iter=12)
        res = _irls(prob, 1.0, beta0, ctl)
        other = _irls(prob.rows([3, 0]), 1.0, beta0[[3, 0]], ctl)
        res.put([0, 3], other)
        for f, g in zip(res, other):
            assert [repr(v) for v in f[[0, 3]]] == [repr(v) for v in g]

    @staticmethod
    def _assert_fit_mlq_errors(res, datas, controls):
        """``res.error[r]`` is what ``fit_mlq(datas[r], controls[r])`` raises:
        type, message and pivot; None where it returns a result."""
        from lqglm import LqglmError

        for r, (data, ctl) in enumerate(zip(datas, controls)):
            try:
                fit_mlq(data, ctl)
                want = None
            except LqglmError as e:
                want = e
            got = res.error[r]
            assert type(got) is type(want)
            if want is not None:
                assert str(got) == str(want)
                assert getattr(got, "pivot", None) == getattr(want, "pivot", None)
        return [type(e).__name__ if e is not None else None for e in res.error]

    @pytest.mark.parametrize("q", [1.0, 0.8])
    def test_fitted_errors_are_fit_mlqs(self, q):
        from lqglm.fit import _fitted, _irls

        prob, beta0 = self._batch()
        ctl = FitControl(q=q, stop_rule="coef-psi", max_iter=5000)
        res = _irls(prob, q, beta0, ctl)
        _fitted(prob, q, res)
        datas = [ModelData(X, y, "bernoulli") for X, y in zip(prob.X, prob.y)]
        controls = [replace(ctl, init=b) for b in beta0]
        kinds = self._assert_fit_mlq_errors(res, datas, controls)
        assert kinds == ["SingularMatrixError", None, "DomainError", None]

    def test_fitted_finds_b_n_not_positive_definite(self, small_profiled, summation_orders):
        # profiled Gaussian refits at n = 6 and q = 0.5: replicate 11 converges
        # but its B_n is singular to roundoff, whichever order sums it, and
        # replicate 9 fails in the dispersion search
        from lqglm.fit import _fit, _fitted

        datas, ctl = _small_profiled_refits(small_profiled, seed=14)
        for _ in summation_orders():
            prob, res = _fit(stack(datas), 0.5, ctl)
            assert res.error[11] is None
            _fitted(prob, 0.5, res)
            kinds = self._assert_fit_mlq_errors(res, datas, [ctl] * len(datas))
            assert kinds[11] == "SingularMatrixError"
            assert str(res.error[11]).startswith("Cholesky pivot 2 non-positive")
            assert "BracketError" in kinds and kinds.count(None) >= 8

    @pytest.mark.parametrize("q", [1.0, 0.97])
    def test_objective_stop_rows_of_unlike_scales(self, q):
        """Under the objective stop rule each row of a batch whose objectives differ by orders of
        magnitude, from starts of unlike distances, stops where it stops alone, byte for byte."""
        from lqglm.fit import _classical_start, _irls

        rng = rng_stream(29, 0)
        datas = []
        for scale in (0.0, 2.0, 5.0, 0.5):
            X = np.column_stack([np.ones(60), rng.normal(size=60)])
            y = rng.poisson(np.exp(scale + 0.5 * X[:, 1])).astype(float)
            y[:3] *= 5  # contaminated counts
            datas.append(ModelData(X, y, "poisson"))
        prob = stack(datas)
        beta0 = _classical_start(prob)[0] + np.array([[0.0], [0.3], [0.6], [0.9]])
        ctl = FitControl(max_iter=100)
        batch = _irls(prob, q, beta0, ctl)
        assert np.count_nonzero(batch.converged) >= 2 and len(set(batch.iterations.tolist())) > 2
        for r in range(len(datas)):
            alone = _irls(prob.rows([r]), q, beta0[[r]], ctl)
            assert batch.beta[r].tobytes() == alone.beta[0].tobytes()
            assert batch.iterations[r] == alone.iterations[0]
            assert batch.message[r] == alone.message[0]
            assert batch.trace[r].tobytes() == alone.trace[0].tobytes()

    def test_batch_of_one_is_fit_mlq(self, poisson_example):
        from lqglm.fit import _irls

        ctl = FitControl(q=0.9, init=np.full(3, 0.5))
        fit = fit_mlq(poisson_example, ctl)
        res = _irls(stack([poisson_example]), 0.9, np.full((1, 3), 0.5), ctl)
        assert fit.beta_star.tobytes() == res.beta[0].tobytes()
        assert fit.iterations == res.iterations[0] and fit.objective_trace[-1] == res.trace[0, fit.iterations]


class TestSharedDesign:
    """A batch on one design holds that (n, p) design and its column
    products once, for every row; only a stack of per-row designs is
    indexed by row."""

    def test_rows_keep_the_shared_design(self, poisson_example):
        from lqglm.fit import _problem

        data = poisson_example
        prob = _problem(data, 1.0, y=np.tile(data.y, (5, 1)))
        sub = prob.rows(np.array([True, False, True, True, False]))
        m = data.p * (data.p + 1) // 2  # the column products x_j x_k, j >= k
        assert sub.X is prob.X is data.X and sub.xx is prob.xx
        assert prob.xx.shape == (m, data.n) and prob.xx.flags.c_contiguous
        assert sub.y.shape == sub.c.shape == (3, data.n)
        stacked = stack([data] * 5).rows([1, 3])
        assert stacked.X.shape == (2, data.n, data.p) and stacked.xx.shape == (2, m, data.n)

    def test_fits_of_one_model_share_its_design(self, vaso, monkeypatch):
        # fit_mlq, the q-grid and the constrained fit each start a batch of
        # one over the design itself (the constrained fit over X N), without
        # a copy of the design or of the responses, and the grid's batch of
        # q values shares them too
        from lqglm import QGrid, select_q_stability
        from lqglm import fit as fit_module
        from lqglm.diagnostics import LinearHypothesis, score_test

        bases, grid_probs = [], []
        start, irls = fit_module._start, fit_module._irls

        def record_start(base, control):
            bases.append(base)
            return start(base, control)

        def record_irls(prob, q, beta0, control):
            if np.ndim(q):
                grid_probs.append(prob)
            return irls(prob, q, beta0, control)

        monkeypatch.setattr(fit_module, "_start", record_start)
        monkeypatch.setattr(fit_module, "_irls", record_irls)
        fit_mlq(vaso, FitControl(q=0.9))
        select_q_stability(vaso, QGrid(q_min=0.9, step=0.05))
        hyp = LinearHypothesis(np.array([[0.0, 1.0, -1.0]]), np.zeros(1))
        score_test(vaso, hyp, 0.9)
        assert len(bases) == 3
        for b in bases:
            assert b.y.shape == (1, vaso.n) and np.shares_memory(b.y, vaso.y)
        assert bases[0].X is vaso.X and bases[1].X is vaso.X
        assert bases[2].X.tobytes() == (vaso.X @ hyp.N).tobytes()
        assert bases[2].X.shape == (vaso.n, vaso.p - 1)
        assert [p.y.shape for p in grid_probs] == [(2, vaso.n)]
        assert grid_probs[0].X is vaso.X and np.shares_memory(grid_probs[0].y, vaso.y)


def _small_profiled_refits(small_profiled, seed=6):
    """Twelve profiled Gaussian envelope-style replicates at n = 6, drawn
    with the streams ``(seed, r)`` from the recorded q = 0.5 fit of the
    ``small_profiled`` fixture, and the control of their refits."""
    data, mu, phi = small_profiled
    return [ModelData(data.X, data.family.sample(rng_stream(seed, r), mu, phi), "gaussian",
                      phi=PROFILE) for r in range(12)], FitControl(q=0.5)


def _draw(family_name, seed, n):
    rng = rng_stream(seed, 0)
    fam = get_family(family_name)
    X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=n)])
    return ModelData(X, fam.sample(rng, fam.b_dot(X @ np.array([0.3, 0.8])), 1.0), family_name)


class TestNewtonSolver:
    """``solver="newton"`` steps with the observed Hessian; it must reach the
    scoring solution and fall back to scoring where Newton does not apply."""

    @settings(max_examples=40, deadline=None)
    @given(family_name=st.sampled_from(["poisson", "bernoulli"]),
           seed=st.integers(0, 2**31 - 1), n=st.integers(30, 200),
           q=st.floats(0.7, 1.0))
    def test_newton_reaches_the_scoring_solution(self, family_name, seed, n, q):
        data = _draw(family_name, seed, n)
        # a tight tol so that the linearly converging scoring loop stops
        # well inside the 1e-8 comparison
        ctl = FitControl(q=q, stop_rule="coef-psi", tol=1e-10, max_iter=500)
        scoring = fit_mlq(data, ctl)
        newton = fit_mlq(data, replace(ctl, solver="newton"))
        assert scoring.converged and newton.converged
        assert_allclose(newton.beta_star, scoring.beta_star, rtol=0, atol=1e-8)
        assert newton.iterations <= scoring.iterations

    def test_row_permutation_invariance(self, vaso):
        perm = rng_stream(8, 0).permutation(vaso.n)
        shuffled = ModelData(vaso.X[perm], vaso.y[perm], "bernoulli")
        ctl = FitControl(q=0.79, max_iter=100, solver="newton")
        a, b = fit_mlq(vaso, ctl), fit_mlq(shuffled, ctl)
        assert a.converged and b.converged
        assert_allclose(b.beta_star, a.beta_star, rtol=1e-10)
        assert_allclose(b.eta_star, a.eta_star[perm], rtol=1e-10)
        assert_allclose(b.cov, a.cov, rtol=1e-8)

    def test_non_canonical_link_keeps_scoring(self):
        rng = rng_stream(55, 0)
        X = np.column_stack([np.ones(80), rng.uniform(0.2, 1.0, size=80)])
        link = PowerThetaLink(3)
        y = rng.normal(link.k(X @ np.array([0.8, 0.5])), 1.0)
        data = ModelData(X, y, "gaussian", link="power3", phi=1.0)
        ctl = FitControl(q=0.9, stop_rule="coef-psi", max_iter=200)
        a, b = fit_mlq(data, ctl), fit_mlq(data, replace(ctl, solver="newton"))
        for name, value in vars(a).items():
            if name != "data":
                assert repr(getattr(b, name)) == repr(value), name
                if isinstance(value, np.ndarray):
                    assert getattr(b, name).tobytes() == value.tobytes(), name

    def test_hessian_not_positive_definite_takes_the_scoring_step(self, monkeypatch):
        # a gross outlier at q = 0.5 makes the observed Hessian indefinite
        # on the way to the solution; only those iterations call the
        # scoring matrix
        from lqglm import fit
        from lqglm.fit import _fit, _irls

        rng = rng_stream(5, 0)
        X = np.column_stack([np.ones(20), rng.uniform(-1.0, 1.0, size=20)])
        y = rng.poisson(np.exp(X @ np.array([1.0, 0.5]))).astype(float)
        y[0] = 60.0
        data = ModelData(X, y, "poisson")
        prob = stack([data])
        ctl = FitControl(q=0.5, stop_rule="coef-psi", max_iter=100, solver="newton")
        beta0 = _fit(prob, 1.0, ctl)[1].beta  # the q = 1 warm start
        calls = []
        sensitivity = fit._sensitivity
        monkeypatch.setattr(fit, "_sensitivity",
                            lambda *a: calls.append(1) or sensitivity(*a))
        newton = _irls(prob, 0.5, beta0, ctl)
        assert calls and newton.converged[0] and newton.error[0] is None
        monkeypatch.undo()
        scoring = _irls(prob, 0.5, beta0, replace(ctl, solver="scoring", tol=1e-12, max_iter=500))
        assert scoring.converged[0]
        assert_allclose(newton.beta[0], scoring.beta[0], rtol=0, atol=1e-8)
        assert newton.iterations[0] < scoring.iterations[0]

    def test_unknown_solver_rejected(self):
        from lqglm import UsageError

        with pytest.raises(UsageError, match="solver"):
            FitControl(solver="bogus")


def _study_stages(monkeypatch, design):
    """Run ``simulate._replicates`` on every replicate of ``design`` as one
    block; returns its q-stages ``(q, base, res)``, recorded through a
    wrapper of ``fit._fit`` with ``res`` copied as ``_fit`` returned it
    (before ``_fitted`` adds its B_n verdicts), and the block's estimates."""
    from lqglm import simulate
    from lqglm.fit import _Irls

    stages, fit = [], simulate._fit

    def recording(base, q, control, start):
        prob, res = fit(base, q, control, start)
        stages.append((q, base, _Irls(*(f.copy() for f in res))))
        return prob, res

    monkeypatch.setattr(simulate, "_fit", recording)
    return stages, simulate._replicates(design, range(design.reps))


def _chained_oracle(prob, qs, ctl):
    """One ``_irls`` per q of the descending ``qs``, each started as
    ``TestPathStarts`` says; a row whose start failed keeps its error, and
    its later starts are NaN."""
    from lqglm.fit import _classical_start, _irls
    from lqglm.numerics import _not_positive_definite

    beta0, pivot = _classical_start(prob)
    warm = _irls(prob, 1.0, beta0, ctl)
    error = warm.error.copy()
    for r in np.flatnonzero(pivot).tolist():
        error[r] = _not_positive_definite(pivot[r])
    failed = ~np.equal(error, None)
    seed, path = np.where(failed[:, None], np.nan, warm.beta), []
    for q in qs:
        if path:
            last = path[-1]
            seed = np.where((last.ok & last.converged)[:, None], last.beta, seed)
        res = warm if q == 1.0 else _irls(prob, q, seed, ctl)
        res.error[failed] = error[failed]
        path.append(res)
    return path


def _assert_same_irls(got, want):
    for name, a, b in zip(got._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == object:
            assert list(map(repr, a)) == list(map(repr, b)), name
        else:
            assert a.tobytes() == b.tobytes(), name


class TestPathStarts:
    """Where ``simulate._replicates`` starts each q after the first: from
    the row's last converged solution (every ``run_study`` block)."""

    QS = [1.0, 0.97, 0.91]

    def test_scoring_path_starts_from_the_last_solution(self, monkeypatch):
        # byte for byte: the objective rule's stopping points of scoring
        # are the documented results, so its starts must not move
        from lqglm.simulate import MAX_ITER, TOL

        # the mc_contam shape: Poisson n = 400, a quarter of responses x 5;
        # the q values are fitted in descending order whatever their order
        design = SimDesign(n=400, eps=0.25, nu=5.0, reps=8, q_list=(0.97, 1.0, 0.91), seed=3)
        stages, estimates = _study_stages(monkeypatch, design)
        assert [q for q, _, _ in stages] == self.QS
        prob = stages[0][1]
        assert all(base is prob for _, base, _ in stages)
        want = _chained_oracle(prob, self.QS, FitControl(max_iter=MAX_ITER, tol=TOL))
        for (q, _, res), ref in zip(stages, want):
            _assert_same_irls(res, ref)
            got = estimates[:, design.q_list.index(q)]
            good = ~np.isnan(got).any(axis=1)
            assert not (good & ~(ref.ok & ref.converged)).any()
            assert got[good].tobytes() == (q * ref.beta[good]).tobytes()
        # rows whose later starts are their previous solutions
        first, second = want[0], want[1]
        assert np.count_nonzero(first.converged & second.converged) >= 4


class TestInvariances:
    """Property tests of the canonical-link MLq fit."""

    @settings(max_examples=30, deadline=None)
    @given(family_name=st.sampled_from(["poisson", "bernoulli"]),
           seed=st.integers(0, 2**31 - 1), n=st.integers(30, 200), q=st.floats(0.7, 1.0),
           scale=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)))
    def test_covariate_rescaling(self, family_name, seed, n, q, scale):
        # scaling a covariate by s scales its coefficient by 1/s
        rng = rng_stream(seed, 0)
        fam = get_family(family_name)
        X = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=(n, 2))])
        y = fam.sample(rng, fam.b_dot(X @ np.array([0.3, 0.8, -0.5])), 1.0)
        factors = np.r_[1.0, scale]
        ctl = FitControl(q=q, stop_rule="coef-psi", tol=1e-10, max_iter=500)
        base = fit_mlq(ModelData(X, y, family_name), ctl)
        # a nearly separated draw (Bernoulli at n = 30, say) may have no
        # converging fit to rescale: seed 1483 ran to the cap
        assume(base.converged)
        scaled = fit_mlq(ModelData(X * factors, y, family_name), ctl)
        assert scaled.converged
        assert_allclose(scaled.beta_star * factors, base.beta_star, rtol=0,
                        atol=1e-8 * np.max(np.abs(base.beta_star)))

    @settings(max_examples=20, deadline=None)
    @given(family_name=st.sampled_from(["poisson", "bernoulli"]),
           seed=st.integers(0, 2**31 - 1), n=st.integers(30, 200))
    def test_continuity_as_q_tends_to_1(self, family_name, seed, n):
        # down to q = 1 - 1e-13: l_q tends to log(f) without a tolerance band
        data = _draw(family_name, seed, n)
        ctl = FitControl(stop_rule="coef-psi", tol=1e-10, max_iter=200)
        at_1 = fit_mlq(data, ctl).beta_q
        bound = max(1.0, np.max(np.abs(at_1)))
        for delta in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13):
            fit = fit_mlq(data, replace(ctl, q=1.0 - delta))
            assert fit.converged
            assert np.max(np.abs(fit.beta_q - at_1)) <= 10.0 * delta * bound, delta


# A scalar golden-section search per row: an oracle of the batched dispersion
# search that finds a local maximum of the profile.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _scalar_maximize_1d(f, lo, hi, tol=1e-8, max_iter=500):
    from lqglm import EvaluationError

    if not lo < hi:
        raise ValueError("need lo < hi")

    def ev(x):
        v = f(x)
        if not np.isfinite(v):
            raise EvaluationError(f"f({x!r}) is not finite", probe=x)
        return v

    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = ev(x1), ev(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = ev(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = ev(x1)
    xm = 0.5 * (a + b)
    return xm, ev(xm)


def _per_row_profile_phi(data, eta_q, q):
    from lqglm.fit import PHI_BRACKET, _problem, _working

    theta = data.link.k(eta_q)
    mu = data.family.b_dot(theta)
    rss = float(np.sum((data.y - mu) ** 2))
    if rss <= 1e-300:
        raise BracketError(
            "profiled dispersion diverges (zero residuals); no interior maximum"
        )
    phi0 = data.n / rss
    lo, hi = np.log(phi0 / PHI_BRACKET), np.log(phi0 * PHI_BRACKET)

    def h(t):
        return float(_working(_problem(data, float(np.exp(t))), eta_q, q).objective)

    t_hat, _ = _scalar_maximize_1d(h, lo, hi, tol=1e-10)
    if t_hat - lo < 1e-6 or hi - t_hat < 1e-6:
        raise BracketError(
            "profiled dispersion maximum sits on the bracket edge; the bracket "
            f"spans a factor {PHI_BRACKET:g} either side of the moment estimate"
        )
    return float(np.exp(t_hat))


def _closed_form_objective(y, eta_q, q, log_phi):
    """The Gaussian Lq-objective at each ``log(phi)`` of an array, in closed form."""
    phi = np.exp(np.asarray(log_phi, dtype=float))[..., None]
    logf = 0.5 * np.log(phi / (2.0 * np.pi)) - 0.5 * phi * (y - eta_q) ** 2
    return np.sum(logf if q == 1.0 else np.expm1((1.0 - q) * logf) / (1.0 - q), axis=-1)


def _gaussian_score(y, eta_q, q, phi):
    """The Gaussian score ``g(t) = sum_i U_i s_i``, ``s_i = (1 - phi r_i^2) / 2``,
    in ``t = log(phi)``, its derivative, and ``sum_i U_i (1 + phi r_i^2) / 2``."""
    pr2 = phi * (y - eta_q) ** 2
    U = np.exp(0.5 * (1.0 - q) * (np.log(phi / (2.0 * np.pi)) - pr2))
    s = 0.5 * (1.0 - pr2)
    return np.sum(U * s), np.sum(U * ((1.0 - q) * s * s - 0.5 * pr2)), np.sum(0.5 * U * (1.0 + pr2))


def _assert_solves_its_score(y, eta_q, q, phi):
    """``phi`` solves the Gaussian score to roundoff, at a maximum (``g' <
    0``), and is the global maximum of a fine grid scan of the dispersion's
    bracket.

    Roundoff is measured against ``sum_i U_i (1 + phi r_i^2) / 2``, the
    size of the addends of g before they cancel.  It bounds ``sum |U s|``
    and is of its order, except where one observation dominates the
    maximum (``phi = 1 / r_i^2``, the others' weights underflowing): there
    ``sum |U s|`` cancels to roundoff itself.
    """
    from lqglm.fit import PHI_BRACKET

    g, dg, size = _gaussian_score(y, eta_q, q, phi)
    assert abs(g) <= 1e-14 * size and dg < 0
    phi0 = len(y) / np.sum((y - eta_q) ** 2)
    grid = np.linspace(np.log(phi0 / PHI_BRACKET), np.log(phi0 * PHI_BRACKET), 20001)
    H_hat = _closed_form_objective(y, eta_q, q, np.log(phi))
    assert _closed_form_objective(y, eta_q, q, grid).max() <= H_hat + 1e-12 * max(1.0, abs(H_hat))


def _profile_rows(rng, phi=1.0):
    """Eight Gaussian rows of n = 12, drawn from ``rng``, and their
    predictors: row 2 has zero residuals (no interior maximum), and row 6
    half of its observations fitted exactly (at q = 0.5 its profile then
    grows up to the bracket edge)."""
    datas, etas = [], []
    for scale in (0.2, 0.5, 1.0, 2.0, 0.05, 5.0, 0.7, 1.5):
        X = np.column_stack([np.ones(12), rng.uniform(-1, 1, size=12)])
        eta = X @ np.array([0.5, 1.0])
        datas.append(ModelData(X, eta + rng.normal(0, scale, size=12), "gaussian", phi=phi))
        etas.append(eta)
    datas[2] = ModelData(datas[2].X, etas[2], "gaussian", phi=phi)
    y = datas[6].y.copy()
    y[:6] = etas[6][:6]
    datas[6] = ModelData(datas[6].X, y, "gaussian", phi=phi)
    return datas, etas


class TestBatchedProfile:
    """One scan and Newton polish profiles the dispersion of every row."""

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_matches_per_row_search(self, q):
        # every estimate solves its score and agrees with the golden-section
        # oracle, which finds the same maximum on these rows; they fail alike
        from lqglm.fit import _profile_phi

        datas, etas = _profile_rows(rng_stream(29, 0))
        phi, error = _profile_phi(stack(datas), np.array(etas), q)
        kinds = []
        for r, d in enumerate(datas):
            try:
                expected = _per_row_profile_phi(d, etas[r], q)
            except BracketError as e:
                assert type(error[r]) is type(e) and str(error[r]) == str(e)
                kinds.append(str(e).split(";")[0])
                continue
            assert error[r] is None
            _assert_solves_its_score(d.y, etas[r], q, phi[r])
            assert_allclose(phi[r], expected, rtol=1e-6)
        assert kinds[0].startswith("profiled dispersion diverges")
        assert kinds[1:] == (["profiled dispersion maximum sits on the bracket edge"]
                             if q == 0.5 else [])

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_probes_equal_full_evaluations(self, q, monkeypatch):
        # every objective value the search compares (the scan, then the
        # polished maxima) equals a full _working evaluation at its
        # dispersion, byte for byte, on the rows of test_matches_per_row_search
        # and on profiled rows of envelope size
        from lqglm import fit
        from lqglm.fit import PHI_SCAN, _profile_phi, _working

        rng = rng_stream(31, 0)
        datas, etas = _profile_rows(rng, phi=PROFILE)
        X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
        eta = X @ np.array([0.5, 1.0])
        big = [ModelData(X, eta + rng.normal(0, 0.7, size=60), "gaussian", phi=PROFILE)
               for _ in range(5)]
        calls, objective = [], fit._profile_objective

        def recording(fam, y, yb, phi, q):
            calls.append((y, phi, objective(fam, y, yb, phi, q)))
            return calls[-1][-1]

        monkeypatch.setattr(fit, "_profile_objective", recording)
        for group, group_etas in ((datas, etas), (big, [eta] * 5)):
            prob, eta_q = stack(group), np.array(group_etas)
            calls.clear()
            _, error = _profile_phi(prob, eta_q, q)
            assert len(calls) == PHI_SCAN + 1
            for y, phi, values in calls:
                # the rows of prob whose responses y holds
                rows = [next(r for r, yr in enumerate(prob.y) if yr.tobytes() == yy.tobytes())
                        for yy in y]
                full = _working(prob.rows(rows).with_phi(phi), eta_q[rows], q).objective
                assert values.tobytes() == full.tobytes()
            kinds = [type(e).__name__ if e is not None else None for e in error]
            if group is big:
                assert kinds == [None] * 5
            else:
                assert kinds[2] == "BracketError"
                assert kinds.count("BracketError") == (2 if q == 0.5 else 1)

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_fit_reports_its_last_refit(self, q):
        # the alternation's refits replace whole rows of the outcome: the
        # trace is the last refit's, at (within the settle test) phi_hat
        rng = rng_stream(37, 0)
        X = np.column_stack([np.ones(40), rng.uniform(-1, 1, size=40)])
        data = ModelData(X, X @ np.array([0.5, 1.0]) + rng.normal(0, 0.5, size=40), "gaussian",
                         phi=PROFILE)
        fit = fit_mlq(data, FitControl(q=q))
        assert fit.converged and len(fit.objective_trace) == fit.iterations + 1
        assert_allclose(fit.objective_trace[-1],
                        lq_objective(data, fit.beta_star, q, fit.phi_hat), rtol=1e-7)

    def test_estimate_phi_is_a_batch_of_one(self, gaussian_example):
        # estimate_phi gives a row's bits whatever rows share its batch
        from lqglm.fit import _problem, _profile_phi

        data = gaussian_example
        for q in (1.0, 0.9, 0.5):
            fit = fit_mlq(data, FitControl(q=q))
            eta_q = data.X @ fit.beta_q
            phi_hat = estimate_phi(data, fit.beta_q, q)
            ys = np.array([data.y, data.y * 1.5, data.y + rng_stream(17, 0).normal(size=data.n)])
            phi, error = _profile_phi(_problem(data, 1.0, y=ys), np.tile(eta_q, (3, 1)), q)
            assert error == [None] * 3 and np.float64(phi_hat).tobytes() == phi[0].tobytes()
            _assert_solves_its_score(data.y, eta_q, q, phi_hat)
            assert_allclose(phi_hat, _per_row_profile_phi(data, eta_q, q), rtol=1e-6)

    @pytest.mark.parametrize("n,q", [(4, 0.4), (4, 0.7), (8, 0.4), (8, 0.55), (12, 0.7),
                                     (20, 0.4), (20, 0.55), (20, 0.7)])
    def test_every_estimate_solves_its_score(self, n, q):
        # 30 rows of t3 errors per case, where the profile of small samples
        # at small q can have two maxima: every estimate solves its score
        # at the global maximum over the bracket, and an edge maximum is
        # the bracket's
        from lqglm.fit import PHI_BRACKET, _problem, _profile_phi

        rng = rng_stream(61, n)
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        eta = X @ np.array([0.5, 1.0])
        y = eta + rng.standard_t(3, size=(30, n)) * rng.uniform(0.05, 5.0, size=(30, 1))
        prob = _problem(ModelData(X, y[0], "gaussian", phi=PROFILE), 1.0, y=y)
        phi, error = _profile_phi(prob, np.broadcast_to(eta, y.shape), q)
        for r in range(len(y)):
            if error[r] is None:
                _assert_solves_its_score(y[r], eta, q, phi[r])
                continue
            assert isinstance(error[r], BracketError)
            phi0 = n / np.sum((y[r] - eta) ** 2)
            grid = np.linspace(np.log(phi0 / PHI_BRACKET), np.log(phi0 * PHI_BRACKET), 20001)
            assert np.argmax(_closed_form_objective(y[r], eta, q, grid)) in (0, len(grid) - 1)

    @pytest.mark.parametrize("q", [1.0, 0.9, 0.5])
    def test_score_is_the_objective_slope(self, q):
        # the closed-form score and its derivative in log(phi), which the
        # Newton steps take, are those of the objective _working evaluates
        from lqglm.fit import _problem, _working

        rng = rng_stream(67, 0)
        X = np.column_stack([np.ones(15), rng.uniform(-1, 1, size=15)])
        eta = X @ np.array([0.5, 1.0])
        data = ModelData(X, eta + rng.standard_t(3, size=15), "gaussian")

        def H(t):
            return float(_working(_problem(data, float(np.exp(t))), eta, q).objective)

        h = 1e-4
        for t in (-3.0, -0.5, 0.0, 1.0, 4.0):
            g, dg, _ = _gaussian_score(data.y, eta, q, np.exp(t))
            assert_allclose(g, (H(t + h) - H(t - h)) / (2 * h), rtol=1e-6, atol=1e-9)
            assert_allclose(dg, (H(t + h) - 2 * H(t) + H(t - h)) / h**2, rtol=1e-5, atol=1e-6)

    def test_bimodal_objective_takes_the_interior_maximum(self, small_profiled):
        # replicate 0 of _small_profiled_refits at its final beta_q: in log phi
        # the objective peaks inside the bracket, dips, and rises again to
        # the upper edge (one residual is 0.003), so its slope is positive at
        # both ends of the bracket
        from lqglm.fit import _fit

        datas, ctl = _small_profiled_refits(small_profiled)
        data, q = datas[0], 0.5
        beta_q = q * _fit(stack([data]), q, ctl)[1].beta[0]
        phi_hat = estimate_phi(data, beta_q, q)
        assert_allclose(phi_hat, 8916.67, rtol=1e-6)

        r = data.y - data.X @ beta_q
        phi0 = data.n / np.sum(r * r)  # the bracket is phi0 / 1e4 to phi0 * 1e4

        def objective(log_phi):
            phi = np.exp(log_phi)[:, None]
            logf = 0.5 * np.log(phi / (2.0 * np.pi)) - 0.5 * phi * r * r
            return np.sum(np.expm1((1.0 - q) * logf) / (1.0 - q), axis=-1)

        # two-stage grid scan of the whole bracket
        coarse = np.linspace(np.log(phi0 / 1e4), np.log(phi0 * 1e4), 2001)
        H = objective(coarse)
        k = int(np.argmax(H))
        fine = np.linspace(coarse[k - 1], coarse[k + 1], 20001)
        phi_grid = np.exp(fine[int(np.argmax(objective(fine)))])
        assert abs(phi_hat - phi_grid) / phi_grid < 1e-6
        H_hat = lq_objective(data, beta_q, q, phi_hat)
        assert_allclose(objective(np.log([phi_hat])), H_hat, rtol=1e-12)
        assert_allclose([np.log(phi_hat), H_hat], [9.096, 6.088], atol=1e-3)
        dip = k + int(np.argmin(H[k:]))
        assert_allclose([coarse[dip], H[dip]], [10.45, 5.06], atol=1e-2)
        assert H[0] < H[1] and H[-2] < H[-1] < H_hat
        assert_allclose(H[-1], 5.81, atol=1e-2)


def _same_row(got, r, want):
    """Whether row r of a column-q result equals a batch of one's row,
    a float factor (``J``, ``kdot``) standing for every entry."""
    got, want = np.asarray(got), np.asarray(want)
    g = got[r] if got.ndim else got
    w = want[0] if want.ndim else want
    return np.array_equal(g, np.broadcast_to(w, g.shape))


class TestQColumn:
    """An (R, 1) column of q gives each row what its float q gives it alone."""

    # q = 1 exactly, and a q within 1e-12 of 1, which takes the q < 1 branches
    Q = (1.0, 1.0 - 5e-13, 0.97, 0.8, 0.55)

    @staticmethod
    def _problem(kind, R):
        from lqglm.fit import _predictor

        rng = rng_stream(47, 0)
        n = 30
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, size=n)])
        link = PowerThetaLink(3) if kind == "poisson-power" else None
        family = kind.split("-")[0]
        if family == "bernoulli":
            y = (rng.uniform(size=n) < 0.5).astype(float)
        elif family == "poisson":
            y = rng.poisson(2.0, size=n).astype(float)
        else:
            y = rng.normal(0.5, 1.0, size=n)
        prob = stack([ModelData(X, y, family, link=link)] * R)
        if kind == "gaussian-profile":
            prob = prob.with_phi(np.linspace(0.5, 2.0, R)[:, None])
        return prob, _predictor(prob, rng.uniform(-0.8, 0.8, size=(R, 2)))

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson", "gaussian-profile",
                                      "poisson-power"])
    def test_rows_equal_float_q(self, kind):
        from lqglm.fit import _matrices_ab, _sensitivity, _working

        prob, eta = self._problem(kind, len(self.Q))
        q = np.array(self.Q)[:, None]
        w = _working(prob, eta, q)
        sens, ab = _sensitivity(prob, w, q), _matrices_ab(prob, w, q)
        assert np.all(w.theta_max < np.inf)
        for r, qr in enumerate(self.Q):
            one = prob.rows([r])
            w1 = _working(one, eta[r:r + 1], qr)
            for name, got, want in zip(w._fields, w, w1):
                assert _same_row(got, r, want), (name, qr)
            for name, got, want in zip("WJ", sens, _sensitivity(one, w1, qr)):
                assert _same_row(got, r, want), (name, qr)
            for name, got, want in zip("AB", ab, _matrices_ab(one, w1, qr)):
                assert _same_row(got, r, want), (name, qr)
        # the q = 1 row: U = 1 and the objective is the log-likelihood
        assert np.all(w.U[0] == 1.0) and not np.all(w.U[1] == 1.0)
        assert np.array_equal(w.objective[0], np.add.reduce(w.logf[0], axis=-1))

    def test_newton_fallback_rows_step_at_their_q(self):
        # _irls steps at a float q.  Large residuals make a row's observed
        # Hessian indefinite at q = 0.8 (one row) and 0.55 (four rows):
        # those rows of the batch take the scoring step at that q, each as
        # it would alone, and the other rows their Newton step
        from lqglm.fit import _step, _working

        prob, eta = self._problem("poisson", len(self.Q))
        fell_back = {}
        for q in self.Q:
            w = _working(prob, eta, q)
            step, pivot = _step(prob, w, q, newton=True)
            r = prob.y - w.mu
            hessian = np.einsum("rni,rn,rnj->rij", prob.X, w.U * (w.V - (1.0 - q) * r * r), prob.X)
            indefinite = np.linalg.eigvalsh(hessian)[:, 0] <= 0
            for k in range(len(self.Q)):
                one = prob.rows([k])
                want, want_pivot = _step(one, _working(one, eta[k:k + 1], q), q,
                                         newton=not indefinite[k])
                assert step[k].tobytes() == want[0].tobytes() and pivot[k] == want_pivot[0], (q, k)
            fell_back[q] = np.flatnonzero(indefinite).tolist()
        assert fell_back == {1.0: [], 1.0 - 5e-13: [], 0.97: [], 0.8: [0], 0.55: [0, 1, 3, 4]}

    def test_lq_terms_rows_equal_float_q(self):
        from lqglm.families import _lq_terms

        logf = rng_stream(48, 0).normal(-2.0, 3.0, size=(len(self.Q), 25))
        logf[:, 0] = -np.inf
        q = np.array(self.Q)[:, None]
        # (1 - q) * -inf is NaN on the q = 1 row, which takes logf instead
        with np.errstate(invalid="ignore"):
            got = _lq_terms(logf, q)
            assert np.array_equal(got, _lq_terms(logf, q, (1.0 - q) * logf))
            for r, qr in enumerate(self.Q):
                want = _lq_terms(logf[r], qr)
                assert got[r].tobytes() == want.tobytes(), qr
                assert _lq_terms(logf[r], qr, (1.0 - qr) * logf[r]).tobytes() == want.tobytes()
        assert np.array_equal(got[0], logf[0])


class TestUnitDispersion:
    """A float ``phi = 1`` skips its multiply and divide (``fit._unit``):
    the kernel gives byte for byte what an (R, 1) column of ones, which
    still multiplies, gives."""

    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    @pytest.mark.parametrize("q", [1.0, 0.8, "column"])
    def test_float_one_equals_column_of_ones(self, family, q):
        from lqglm.fit import _matrices_ab, _step, _unit, _working

        R = len(TestQColumn.Q)
        if q == "column":
            q = np.array(TestQColumn.Q)[:, None]
        prob, eta = TestQColumn._problem(family, R)
        ones = prob.with_phi(np.ones((R, 1)))
        assert _unit(prob.phi) and not _unit(ones.phi)
        w, w1 = _working(prob, eta, q), _working(ones, eta, q)
        for name, got, want in zip(w._fields, w, w1):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        for name, got, want in zip("AB", _matrices_ab(prob, w, q), _matrices_ab(ones, w1, q)):
            assert got.tobytes() == want.tobytes(), name
        if isinstance(q, np.ndarray):
            return  # _irls steps at a float q only
        for newton in (False, True):
            for got, want in zip(_step(prob, w, q, newton), _step(ones, w1, q, newton)):
                assert got.tobytes() == want.tobytes(), newton
