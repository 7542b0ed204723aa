"""Inference and diagnostics for MLq fits.

Linear-hypothesis tests (Wald, score, bilinear form), the robust deviance
and AIC, the added-variable score statistic and the standardized residuals
it induces through the mean-shift outlier model, deviance and quantile
residuals, influence functions, and parametric-bootstrap simulation
envelopes.

Conventions.  The estimating machinery (weights ``U``, matrices ``W, J, G,
K``, fitted means entering score-type quantities) is evaluated at the
surrogate-scale solution ``beta_star`` where the estimating function is
unbiased; reported estimates, deviances and quantile residuals use the
calibrated scale.  ``A_n``/``B_n`` are the raw (summed) matrices, under
which ``cov = B_n^{-1} A_n B_n^{-1}`` is the covariance of the calibrated
coefficients and the three test statistics are chi-square scaled.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateDirectionError,
    LqglmError,
    SingularMatrixError,
    UsageError,
)
from .families import _lq_terms, log_density, quantile_residual_base
from .fit import (
    FitControl,
    _matrices_ab,
    _problem,
    _sensitivity,
    _working,
    _working_at,
    fit_mlq,
)
from .model import ModelData
from .numerics import chi_square_sf, inv_spd, rng_stream, solve_spd

__all__ = [
    "LinearHypothesis",
    "TestResult",
    "EnvelopeResult",
    "deviance_q",
    "aic_q",
    "wald_test",
    "score_test",
    "bf_test",
    "added_variable_score",
    "standardized_residuals",
    "deviance_residuals",
    "quantile_residuals",
    "influence_fn",
    "simulation_envelope",
]


class LinearHypothesis:
    """Linear hypothesis ``H beta = h`` with full-row-rank ``H`` (d x p)."""

    def __init__(self, H, h):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if H.shape[0] != h.shape[0]:
            raise UsageError("H and h have incompatible shapes")
        if H.shape[0] > H.shape[1]:
            raise UsageError("H cannot have more rows than columns")
        try:
            solve_spd(H @ H.T, np.zeros(H.shape[0]))
        except SingularMatrixError as e:
            raise UsageError("H is not of full row rank") from e
        self.H = H
        self.h = h
        self.d = H.shape[0]


@dataclass
class TestResult:
    statistic: float
    dof: int
    p_value: float
    kind: str


@dataclass
class EnvelopeResult:
    """Plot-ready QQ envelope: sorted residuals with pointwise bands."""

    kind: str
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    normal_quantiles: np.ndarray
    reps: int
    failed: int


def deviance_q(data, fit_null, fit_alt):
    """Robust deviance ``2 {L_q(alternative) - L_q(null)}``.

    Both fits must share the response and the distortion parameter, with
    the null design nested in the alternative.  The Lq-likelihoods are the
    stored values at the calibrated predictors; the gap is clamped at zero
    against roundoff.
    """
    fit_null.check_same_problem(fit_alt, what="deviance fits")
    d = 2.0 * (fit_alt.lq_value - fit_null.lq_value)
    return max(0.0, float(d))


def aic_q(data, fit):
    """Lq analogue of the Akaike criterion.

    ``-2 sum_i l_q(f_i at the calibrated fit) + 2 tr(B_n^{-1} A_n)``; the
    penalty reduces to ``2 p / (2 - q)`` under the canonical link.
    """
    penalty = 2.0 * float(np.trace(solve_spd(fit.B_n, fit.A_n)))
    return -2.0 * fit.lq_value + penalty


def _make_result(stat, dof, kind):
    stat = max(0.0, float(stat))
    return TestResult(stat, int(dof), chi_square_sf(stat, int(dof)), kind)


def wald_test(fit, hyp):
    """Wald statistic ``(H beta_q - h)' (H cov H')^{-1} (H beta_q - h)``."""
    if fit.beta_q is None:
        raise UsageError("Wald test needs calibrated coefficients (canonical link)")
    diff = hyp.H @ fit.beta_q - hyp.h
    stat = diff @ solve_spd(hyp.H @ fit.cov @ hyp.H.T, diff)
    return _make_result(stat, hyp.d, "wald")


def _nullspace_param(H, rhs):
    """Particular solution and null-space basis for ``H b = rhs``."""
    d, p = H.shape
    b0 = H.T @ solve_spd(H @ H.T, rhs)
    _, s, Vt = np.linalg.svd(H)
    N = Vt[d:].T
    return b0, N


def _constrained_fit(data, hyp, q, control=None):
    """MLq fit under ``H beta_q = h``, via the reduced parameterization.

    The hypothesis constrains the calibrated coefficients, so on the
    surrogate scale the constraint is ``H beta_star = h / q`` (canonical
    link).  Returns the embedded surrogate-scale solution and the
    dispersion used (profiled when the data requests it).
    """
    if not data.link.is_canonical:
        raise UsageError("constrained fits are defined for the canonical link")
    b0, N = _nullspace_param(hyp.H, hyp.h / q)
    if N.shape[1] == 0:
        phi = 1.0 if data.phi == "profile" else data.phi
        return b0, phi
    offset = data.X @ b0
    reduced = ModelData(data.X @ N, data.y, data.family, data.link, data.phi)
    # an explicit init belongs to the full design, not the reduced one
    ctl = replace(control if control is not None else FitControl(), q=q,
                  init="ml-warm-start")
    res = fit_mlq(reduced, ctl, offset=offset)
    return b0 + N @ res.beta_star, res.phi_hat


def _score_and_matrices(data, beta, q, phi):
    """``estimating_function`` and ``matrices_ab`` from one working point."""
    w, prob = _working_at(data, beta, q, phi, None)
    return w.psi, _matrices_ab(prob, w, q)


def score_test(data, hyp, q, control=None):
    """Score-type (Rao) statistic at the constrained MLq fit."""
    beta_t, phi_t = _constrained_fit(data, hyp, q, control)
    psi, (A_t, B_t) = _score_and_matrices(data, beta_t, q, phi_t)
    Bti = inv_spd(B_t)
    C_t = Bti @ A_t @ Bti
    v = hyp.H @ (Bti @ psi)
    stat = v @ solve_spd(hyp.H @ C_t @ hyp.H.T, v)
    return _make_result(stat, hyp.d, "score")


def bf_test(data, fit, hyp, q=None, control=None):
    """Bilinear-form statistic mixing the constrained and unconstrained fits."""
    q = fit.q if q is None else q
    if abs(q - fit.q) > 0:
        raise UsageError("q disagrees with the supplied fit")
    if fit.beta_q is None:
        raise UsageError("bilinear-form test needs calibrated coefficients")
    beta_t, phi_t = _constrained_fit(data, hyp, q, control)
    psi, (_, B_t) = _score_and_matrices(data, beta_t, q, phi_t)
    v = hyp.H @ solve_spd(B_t, psi)
    diff = hyp.H @ fit.beta_q - hyp.h
    stat = v @ solve_spd(hyp.H @ fit.cov @ hyp.H.T, diff)
    return _make_result(stat, hyp.d, "bilinear")


def _hat_pieces(data, fit):
    """Working point, ``V``, ``W``, ``J``, ``GK`` and the projector core
    ``X' W J GK X`` at the surrogate solution."""
    prob = _problem(data, fit.phi_hat)
    w = _working(prob, fit.eta_star, fit.q)
    return (w, *_sensitivity(prob, w, fit.q))


def added_variable_score(data, fit_null, z, q=None):
    """Score statistic for adding the direction ``z`` to the design.

    ``R_n = (2-q) phi [z' W^{1/2} U V^{-1/2} (y - mu)]^2 / den`` with
    ``den = z' (I - WJGK P) W J (I - P WJGK) z`` and
    ``P = X (X' WJGK X)^{-1} X'``, everything at the surrogate-scale null
    fit.  With ``z = e_i`` this is the squared standardized residual.
    """
    q = fit_null.q if q is None else q
    if abs(q - fit_null.q) > 0:
        raise UsageError("q disagrees with the supplied fit")
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != data.n:
        raise UsageError("z must have one entry per observation")
    w, _, W, J, GK, XtDX = _hat_pieces(data, fit_null)
    phi = fit_null.phi_hat
    num_core = z @ (w.U * w.kdot * (data.y - w.mu))
    D = W * J * GK
    v = z - data.X @ solve_spd(XtDX, data.X.T @ (D * z))
    den = float(np.sum(W * J * v * v))
    # scale-relative check: for genuine directions den/scale is O(1), for
    # z in the span of X the projection residual collapses it
    scale = float(np.sum(W * J * z * z))
    if scale <= 0.0 or den <= 1e-10 * scale:
        raise DegenerateDirectionError(
            "added-variable direction lies in the span of the design"
        )
    stat = (2.0 - q) * phi * num_core**2 / den
    return _make_result(stat, 1, "score")


def standardized_residuals(data, fit):
    """Mean-shift standardized residuals ``t_i`` (approximately N(0,1)).

    ``t_i = sqrt(2-q) U_i (y_i - mu_i) / [phi^{-1/2} (J_i V_i)^{1/2}
    sqrt((1 - g_i k_i m_ii) - g_i k_i (m_ii - g_i k_i m*_ii))]`` with
    ``m_ii``/``m*_ii`` the diagonals of ``M = P W J`` and ``M^2``,
    everything at the surrogate-scale fit.  Observations where the
    bracket under the square root is negative are returned as NaN with a
    warning, not an error.

    With ``G = X (X' W J GK X)^{-1}`` (rows ``g_i``) the diagonals are
    ``m_ii = (WJ)_i g_i' x_i`` and ``m*_ii = (WJ)_i g_i' (X' W J X) g_i``,
    so the n x n matrices are never formed.
    """
    w, V, W, J, GK, XtDX = _hat_pieces(data, fit)
    phi = fit.phi_hat
    q = fit.q
    X, WJ = data.X, W * J
    G = solve_spd(XtDX, X.T).T
    m = WJ * np.sum(G * X, axis=1)
    m2 = WJ * np.sum((G @ (X.T @ (WJ[:, None] * X))) * G, axis=1)
    bracket = (1.0 - GK * m) - GK * (m - GK * m2)
    bad = bracket < 0
    if np.any(bad):
        warnings.warn(
            f"{int(bad.sum())} standardized residuals undefined "
            "(negative variance estimate); reported as NaN",
            stacklevel=2,
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        den = np.sqrt(J * V / phi) * np.sqrt(np.where(bad, np.nan, bracket))
        return np.sqrt(2.0 - q) * w.U * (data.y - w.mu) / den


def deviance_residuals(data, fit):
    """Signed square roots of per-observation Lq deviances.

    ``r_i = sign(y_i - mu_i) sqrt(2 {l_q(y_i; y_i) - l_q(y_i; mu_i)})``
    at the calibrated fitted means, with the saturated value taken as the
    family's limit (Bernoulli saturated density 1; Poisson ``theta =
    log y`` with ``l_q = 0`` at ``y = 0``).
    """
    phi = fit.phi_hat
    q = fit.q
    logf_sat = data.family.saturated_log_density(data.y, phi)
    logf_fit = _working(_problem(data, phi), fit.eta_q, q).logf
    d = 2.0 * (_lq_terms(logf_sat, q) - _lq_terms(logf_fit, q))
    d = np.maximum(d, 0.0)
    return np.sign(data.y - fit.mu) * np.sqrt(d)


def quantile_residuals(data, fit, rng=None):
    """Quantile residuals at the calibrated fit.

    Discrete families use the randomized convention with uniforms from
    ``rng`` (seeded by the caller for reproducibility).  CDF values hitting
    0 or 1 are clamped with a warning.
    """
    if data.family.discrete and rng is None:
        raise UsageError("discrete families need an rng for randomized residuals")
    uniforms = rng.uniform(size=data.n) if data.family.discrete else None
    out, at_bound = quantile_residual_base(data.family, data.y, fit.mu, fit.phi_hat, uniforms)
    clamped = int(np.count_nonzero(at_bound))
    if clamped:
        warnings.warn(
            f"{clamped} quantile residuals clamped at the CDF boundary",
            stacklevel=2,
        )
    return out


def influence_fn(data, fit, y_new, x_new, q=None):
    """Empirical influence of a new observation on the calibrated estimate.

    ``B_n^{-1} f(y; k(x' beta), phi)^{1-q} s(beta)`` with the score
    ``s = phi W^{1/2} (y - mu) x / sqrt(V)``, evaluated at the
    surrogate-scale fit.  At q = 1 this is the maximum-likelihood influence
    function ``F_n^{-1} s``.
    """
    q = fit.q if q is None else q
    if abs(q - fit.q) > 0:
        raise UsageError("q disagrees with the supplied fit")
    x_new = np.asarray(x_new, dtype=float).ravel()
    if x_new.shape[0] != data.p:
        raise UsageError("x_new must have length p")
    fam, link = data.family, data.link
    phi = fit.phi_hat
    eta = float(x_new @ fit.beta_star)
    theta = float(link.k(eta))
    fam.check_theta(theta)
    fam.validate_y(np.asarray([y_new], dtype=float))
    u = np.exp((1.0 - q) * log_density(fam, y_new, theta, phi))
    score = phi * float(link.k_dot(eta)) * (y_new - float(fam.b_dot(theta))) * x_new
    return solve_spd(fit.B_n, u * score)


_RESIDUAL_FUNCS = {
    "standardized": lambda d, f, rng: standardized_residuals(d, f),
    "deviance": lambda d, f, rng: deviance_residuals(d, f),
    "quantile": lambda d, f, rng: quantile_residuals(d, f, rng),
}


def simulation_envelope(data, fit, kind="standardized", reps=100, seed=0,
                        level=0.95, control=None):
    """Parametric-bootstrap QQ envelope for a residual type.

    Simulates ``reps`` response vectors from the calibrated fitted model,
    refits each with the same control, and returns pointwise
    ``(1-level)/2`` and ``(1+level)/2`` bands of the sorted residuals,
    together with the observed sorted residuals and Blom plotting
    positions.  Replicates whose refit fails are dropped and counted.
    """
    if kind not in _RESIDUAL_FUNCS:
        raise UsageError(f"unknown residual kind {kind!r}")
    resid = _RESIDUAL_FUNCS[kind]
    ctl = control if control is not None else FitControl(q=fit.q)
    if abs(ctl.q - fit.q) > 0:
        ctl = replace(ctl, q=fit.q, init="ml-warm-start")
    sims = []
    failed = 0
    for r in range(reps):
        rng = rng_stream(seed, r)
        y_sim = data.family.sample(rng, fit.mu, fit.phi_hat)
        try:
            data_sim = ModelData(data.X, y_sim, data.family, data.link, data.phi)
            fit_sim = fit_mlq(data_sim, ctl)
            vals = np.sort(resid(data_sim, fit_sim, rng))
        except LqglmError:
            failed += 1
            continue
        if np.any(~np.isfinite(vals)):
            failed += 1
            continue
        sims.append(vals)
    if len(sims) < max(10, reps // 2):
        raise UsageError(
            f"too few successful envelope replicates ({len(sims)}/{reps})"
        )
    sims = np.asarray(sims)
    alpha = 0.5 * (1.0 - level)
    lower = np.percentile(sims, 100 * alpha, axis=0)
    upper = np.percentile(sims, 100 * (1.0 - alpha), axis=0)
    rng_obs = rng_stream(seed, reps)
    observed = np.sort(resid(data, fit, rng_obs))
    i = np.arange(1, data.n + 1)
    from .numerics import normal_quantile

    positions = normal_quantile((i - 0.375) / (data.n + 0.25))
    return EnvelopeResult(kind, observed, lower, upper, positions,
                          len(sims), failed)
