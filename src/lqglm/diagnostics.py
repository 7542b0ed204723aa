"""Inference and diagnostics for MLq fits.

Linear-hypothesis tests (Wald, score, bilinear form), the robust deviance
and AIC, the added-variable score statistic and the standardized residuals
it induces through the mean-shift outlier model, deviance and quantile
residuals, influence functions, and parametric-bootstrap simulation
envelopes.

Conventions.  The estimating machinery (weights ``U``, matrices ``W`` and
``J``, fitted means entering score-type quantities) is evaluated at the
surrogate-scale solution ``beta_star`` where the estimating function is
unbiased; reported estimates, deviances and quantile residuals use the
calibrated scale.  ``A_n``/``B_n = phi X' W J X`` are the raw (summed)
matrices, with ``A_n = B_n / (2 - q)`` on every theta-link, under which
``cov = B_n^{-1} A_n B_n^{-1} = B_n^{-1} / (2 - q)`` is the covariance of
the calibrated coefficients, the test statistics are chi-square scaled,
and the mean-shift leverage reads ``(X' W J X)^{-1} = (2 - q) phi cov``.
"""

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDirectionError,
    DomainError,
    SingularMatrixError,
    UsageError,
    _integer,
    _real,
)
from .families import _lq_terms, quantile_residual_base
from .fit import (
    BLOCK,
    FitControl,
    _evaluate,
    _fit,
    _fitted,
    _hat,
    _predictor,
    _Problem,
    _problem,
    _working,
    calibrate,
    estimate_phi,
)
from .model import PROFILE
from .numerics import (
    chi_square_sf,
    inv_spd,
    normal_quantile,
    rng_stream,
    solve_spd,
)

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

# A projected variance at or below this fraction of its unprojected value is
# zero to roundoff: the added-variable direction, or the observation of a
# standardized residual, lies in the span of the design.
DEGENERATE = 1e-10

# The envelope's bands need this many successful replicates, and at least
# half of those asked for.
MIN_ENVELOPE_REPS = 10


class LinearHypothesis:
    """Linear hypothesis ``H beta = h``, finite, with full-row-rank ``H`` (d x p).

    ``N`` (p x (p - d)) is an orthonormal basis of the null space of
    ``H``, the last ``p - d`` right singular vectors; the constrained fits
    of the score and bilinear-form tests run on the reduced design ``X N``.
    ``H``, ``h`` and ``N`` are copied and read-only, so a hypothesis can
    key the memo of the constrained fit.
    """

    def __init__(self, H, h):
        try:
            H, h = np.atleast_2d(np.array(H, dtype=float)), np.atleast_1d(np.array(h, dtype=float))
        except (TypeError, ValueError):
            raise UsageError("H and h must be numeric arrays") from None
        if H.ndim != 2 or h.ndim != 1 or H.shape[0] != h.shape[0]:
            raise UsageError("H and h have incompatible shapes")
        if H.shape[0] > H.shape[1]:
            raise UsageError("H cannot have more rows than columns")
        for name, a in (("H", H), ("h", h)):
            if not np.all(np.isfinite(a)):
                raise UsageError(f"{name} has non-finite entries")
        try:
            solve_spd(H @ H.T, np.zeros(H.shape[0]))
        except SingularMatrixError as e:
            raise UsageError("H is not of full row rank") from e
        self.d = H.shape[0]
        N = np.linalg.svd(H)[2][self.d:].T
        for a in (H, h, N):
            a.setflags(write=False)
        self.H, self.h, self.N = H, h, N


@dataclass
class TestResult:
    statistic: float
    dof: int
    p_value: float
    kind: str


@dataclass
class EnvelopeResult:
    """Plot-ready QQ envelope: sorted residuals with pointwise bands.

    ``reps`` replicates gave the bands and ``failed`` were dropped;
    ``nonconverged`` counts the replicates among ``reps`` whose refit
    stopped without converging.
    """

    kind: str
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    normal_quantiles: np.ndarray
    reps: int
    failed: int
    nonconverged: int


def _check_data(data, fit, what):
    """UsageError unless ``data`` is ``fit.data``, if any, or has its design and response."""
    own = fit.data
    if own is not None and own is not data and not (
            np.array_equal(data.X, own.X) and np.array_equal(data.y, own.y)):
        raise UsageError(f"data differ from the data of the {what}")


def deviance_q(data, fit_null, fit_alt):
    """Robust deviance ``2 {L_q(alternative) - L_q(null)}``.

    Both fits must share the response and the distortion parameter, with
    the null design nested in the alternative, and ``data`` must be the
    alternative's.  The Lq-likelihoods are the stored values at the
    calibrated predictors; the gap is clamped at zero against roundoff.
    """
    fit_null.check_same_problem(fit_alt, what="deviance fits")
    _check_data(data, fit_alt, "alternative fit")
    d = 2.0 * (fit_alt.lq_value - fit_null.lq_value)
    return max(0.0, float(d))


def aic_q(data, fit):
    """Lq analogue of the Akaike criterion; ``data`` must be the fit's own.

    ``-2 sum_i l_q(f_i at the calibrated fit) + 2 tr(B_n^{-1} A_n)``, whose
    penalty is ``2 p / (2 - q)``, as ``A_n = B_n / (2 - q)`` on every link.
    """
    _check_data(data, fit, "fit")
    return -2.0 * fit.lq_value + 2.0 * len(fit.beta_star) / (2.0 - fit.q)


def _make_result(stat, dof, kind):
    stat = float(stat)
    # max() would turn NaN into 0, a statistic of no evidence
    if np.isnan(stat):
        raise DomainError(f"{kind} statistic is not a number")
    if np.isinf(stat):
        raise DomainError(f"{kind} statistic overflows")
    stat = max(0.0, stat)
    return TestResult(stat, int(dof), chi_square_sf(stat, int(dof)), kind)


def _check_width(hyp, p):
    """UsageError unless ``H`` has one column per coefficient of the model."""
    if hyp.H.shape[1] != p:
        raise UsageError(f"hypothesis H has {hyp.H.shape[1]} columns but the model "
                         f"has {p} coefficients")


def wald_test(fit, hyp):
    """Wald statistic ``(H beta_q - h)' (H cov H')^{-1} (H beta_q - h)``."""
    if fit.beta_q is None:
        raise UsageError("Wald test needs calibrated coefficients (canonical link)")
    _check_width(hyp, len(fit.beta_q))
    diff = hyp.H @ fit.beta_q - hyp.h
    # an extreme h overflows the quadratic form, which _make_result rejects
    with np.errstate(over="ignore", invalid="ignore"):
        stat = diff @ solve_spd(hyp.H @ fit.cov @ hyp.H.T, diff)
    return _make_result(stat, hyp.d, "wald")


def _constrained_point(data, hyp, q, control):
    """The working point and ``B_n`` at the MLq fit under
    ``H beta_q = h``.

    The hypothesis constrains the calibrated coefficients, so on the
    surrogate scale the constraint is ``H beta_star = h / q`` (canonical
    link), solved by ``b0 + N gamma`` with the particular solution ``b0``.
    ``gamma`` is fitted on the reduced design ``X N`` with the offset
    ``X b0``, at the profiled dispersion when the data requests it, and
    the solution is evaluated once, on the full design.  A full-rank
    hypothesis leaves no ``gamma``: the point is ``b0``, at the dispersion
    profiled there when the data requests it.
    """
    _check_width(hyp, data.p)
    return _constrained_memo(data, hyp, _constrained_control(control, q))


def _constrained_control(control, q):
    """The constrained fit's policy: the loop settings of ``control`` at q
    from the warm start, as an explicit init belongs to the full design."""
    return replace(control if control is not None else FitControl(), q=float(q),
                   init="ml-warm-start")


# One slot, so that score_test and bf_test share the fit whichever runs
# first.  The key keeps data and hyp (compared by identity, over read-only
# arrays) alive until the next constrained fit, so their ids cannot be
# reused meanwhile.
@lru_cache(maxsize=1)
def _constrained_memo(data, hyp, control):
    q = control.q
    if not data.link.is_canonical:
        raise UsageError("constrained fits are defined for the canonical link")
    b0 = hyp.H.T @ solve_spd(hyp.H @ hyp.H.T, hyp.h / q)
    if hyp.N.shape[1] == 0:
        phi = estimate_phi(data, q * b0, q) if data.phi == PROFILE else None
        return _evaluate(data, b0, q, phi)
    # X N keeps the full rank of X for an orthonormal N, and y was checked
    base = _Problem.build(data.family, data.link, data.X @ hyp.N, data.y[None], data.phi,
                          data.X @ b0)
    prob, res = _fit(base, q, control)
    if res.error[0] is not None:
        raise res.error[0]
    return _evaluate(data, b0 + hyp.N @ res.beta[0], q, float(np.ravel(prob.phi)[0]))


def score_test(data, hyp, q, control=None):
    """Score-type (Rao) statistic at the constrained MLq fit."""
    w, B_t = _constrained_point(data, hyp, q, control)
    Bti = inv_spd(B_t)
    # a nearly singular B_t overflows C_t, which solve_spd rejects
    with np.errstate(over="ignore", invalid="ignore"):
        C_t = Bti / (2.0 - q)
        C_t = 0.5 * (C_t + C_t.T)
        v = hyp.H @ (Bti @ w.psi)
        stat = v @ solve_spd(hyp.H @ C_t @ hyp.H.T, v)
    return _make_result(stat, hyp.d, "score")


def bf_test(data, fit, hyp, q=None, control=None):
    """Bilinear-form statistic mixing the constrained and unconstrained
    fits, at the fit's ``q`` and on its data: any other ``q``, NaN included,
    or other data is a UsageError, raised before the constrained fit."""
    q = fit.q if q is None else q
    if q != fit.q:
        raise UsageError("q disagrees with the supplied fit")
    if fit.beta_q is None:
        raise UsageError("bilinear-form test needs calibrated coefficients")
    _check_data(data, fit, "fit")
    w, B_t = _constrained_point(data, hyp, q, control)
    v = hyp.H @ solve_spd(B_t, w.psi)
    diff = hyp.H @ fit.beta_q - hyp.h
    stat = v @ solve_spd(hyp.H @ fit.cov @ hyp.H.T, diff)
    return _make_result(stat, hyp.d, "bilinear")


def added_variable_score(data, fit_null, z):
    """Score statistic for adding the direction ``z`` to the design.

    ``R_n = (2-q) phi [z' W^{1/2} U V^{-1/2} (y - mu)]^2 / den`` with
    ``den = z' (I - WJ P) W J (I - P WJ) z`` and
    ``P = X (X' WJ X)^{-1} X'``, everything at the surrogate-scale null
    fit and its ``q``.  With ``z = e_i`` this is the squared standardized
    residual.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != data.n:
        raise UsageError("z must have one entry per observation")
    f = _batch_of_one(data, fit_null)
    w = _working(f.prob, f.eta_star, f.q)
    W, J, G = _hat(f.prob, w, f.q, f.cov)
    num_core = z @ (w.U * w.kdot * (f.prob.y - w.mu))[0]
    WJ = (W * J)[0]
    v = z - G[0] @ (data.X.T @ (WJ * z))
    den = float(np.sum(WJ * v * v))
    # scale-relative check: for genuine directions den/scale is O(1), for
    # z in the span of X the projection residual collapses it
    scale = float(np.sum(WJ * z * z))
    if scale <= 0.0 or den <= DEGENERATE * scale:
        raise DegenerateDirectionError(
            "added-variable direction lies in the span of the design"
        )
    stat = (2.0 - fit_null.q) * fit_null.phi_hat * num_core**2 / den
    return _make_result(stat, 1, "score")


class _Fits(NamedTuple):
    """A batch of fits on one design: the problem at each row's ``phi_hat``,
    q, and per row ``eta_star``, ``eta_q``, the calibrated ``mu`` and ``cov``."""

    prob: object
    q: float
    eta_star: np.ndarray
    eta_q: np.ndarray
    mu: np.ndarray
    cov: np.ndarray


def _batch_of_one(data, fit):
    _check_data(data, fit, "fit")
    prob = _problem(data, fit.phi_hat, y=data.y[None])
    return _Fits(prob, fit.q, fit.eta_star[None], fit.eta_q[None], fit.mu[None], fit.cov[None])


def _warn_rows(counts, message):
    """One warning per row with a nonzero count, attributed to the caller
    of the public function that calls this."""
    for k in counts.tolist():
        if k:
            warnings.warn(message.format(k), stacklevel=3)


_UNDEFINED = ("{} standardized residuals undefined (a leverage of 1 or a negative variance "
              "estimate, or a saturated mean with V = 0); reported as NaN")
_CLAMPED = "{} quantile residuals clamped at the CDF boundary"
# The warning of each residual kind, of the per-row counts of ``_residuals``.
_WARNINGS = {"standardized": _UNDEFINED, "deviance": None, "quantile": _CLAMPED}


def _standardized(f):
    """Standardized residuals of every row and each row's count of undefined ones.

    The bracket is 1 for an observation without leverage and cancels to
    roundoff at a leverage of 1, so a bracket at or below ``DEGENERATE``
    is undefined whatever its sign (see ``standardized_residuals``).  So
    is a residual whose surrogate mean saturates (``V = 0``: ``0/0`` or
    ``y/0``): every residual that is not finite is undefined, NaN.  Each
    row is bit-identical to a batch of one: ``fit._hat`` reads its ``(X' W
    J X)^{-1} = (2 - q) phi cov`` off its own ``cov = B_n^{-1} / (2 - q)``.
    """
    prob, q = f.prob, f.q
    w = _working(prob, f.eta_star, q)
    W, J, G = _hat(prob, w, q, f.cov)
    bracket = 1.0 - W * J * np.sum(G * prob.X, axis=-1)
    bad = bracket <= DEGENERATE
    with np.errstate(invalid="ignore", divide="ignore"):
        den = np.sqrt(J * w.V / prob.phi) * np.sqrt(np.where(bad, np.nan, bracket))
        t = np.sqrt(2.0 - q) * w.U * (prob.y - w.mu) / den
    undefined = ~np.isfinite(t)
    return np.where(undefined, np.nan, t), np.count_nonzero(undefined, axis=-1)


def _deviance(f):
    prob, q = f.prob, f.q
    logf_sat = prob.family.saturated_log_density(prob.y, prob.phi)
    logf_fit = _working(prob, f.eta_q, q).logf
    d = 2.0 * (_lq_terms(logf_sat, q) - _lq_terms(logf_fit, q))
    d = np.maximum(d, 0.0)
    return np.sign(prob.y - f.mu) * np.sqrt(d)


def _quantile(f, uniforms):
    """Quantile residuals of every row and the per-row count of clamped ones."""
    out, at_bound = quantile_residual_base(f.prob.family, f.prob.y, f.mu, f.prob.phi, uniforms)
    return out, np.count_nonzero(at_bound, axis=-1)


def _residuals(kind, f, uniforms):
    """Residuals of ``kind`` of every row of the batch ``f`` and each
    row's count of those that ``_WARNINGS[kind]`` warns of.  Standardized
    ones read the hat off ``f.cov`` (``(X' W J X)^{-1} = (2 - q) phi cov``)."""
    if kind == "quantile":
        return _quantile(f, uniforms)
    return _standardized(f) if kind == "standardized" else (_deviance(f), np.zeros(len(f.mu), int))


def _of_fit(data, fit, kind, rng):
    """Residuals of ``kind`` of one fit and the count of those to warn of;
    raises where the public residual function of ``kind`` raises."""
    discrete_u = kind == "quantile" and data.family.discrete
    if discrete_u and rng is None:
        raise UsageError("discrete families need an rng for randomized residuals")
    uniforms = rng.uniform(size=data.n)[None] if discrete_u else None
    vals, counts = _residuals(kind, _batch_of_one(data, fit), uniforms)
    return vals[0], counts


def standardized_residuals(data, fit):
    """Mean-shift standardized residuals ``t_i`` (approximately N(0,1)).

    ``t_i = sqrt(2-q) U_i (y_i - mu_i) / [phi^{-1/2} (J_i V_i)^{1/2}
    sqrt(1 - m_ii)]`` with ``m_ii`` the diagonal of ``M = P W J``,
    everything at the surrogate-scale fit (``M`` is idempotent, so the
    bracket ``(1 - m_ii) - (m_ii - m*_ii)`` with ``m*_ii`` from ``M^2`` is
    ``1 - m_ii``).  Observations where the bracket is at or below
    ``DEGENERATE`` (zero to roundoff, as at a leverage of 1, or negative),
    or whose surrogate mean saturates so that ``V_i = 0``, are returned as
    NaN with a warning, not an error.

    With ``G = X (X' W J X)^{-1}`` (rows ``g_i``) the diagonal is
    ``m_ii = (WJ)_i g_i' x_i``, so the n x n matrix is never formed.
    """
    t, undefined = _of_fit(data, fit, "standardized", None)
    _warn_rows(undefined, _UNDEFINED)
    return t


def deviance_residuals(data, fit):
    """Signed square roots of per-observation Lq deviances.

    ``r_i = sign(y_i - mu_i) sqrt(2 {l_q(y_i; y_i) - l_q(y_i; mu_i)})``
    at the calibrated fitted means, with the saturated value taken as the
    family's limit (Bernoulli saturated density 1; Poisson ``theta =
    log y`` with ``l_q = 0`` at ``y = 0``).
    """
    return _of_fit(data, fit, "deviance", None)[0]


def quantile_residuals(data, fit, rng=None):
    """Quantile residuals at the calibrated fit.

    Discrete families use the randomized convention with uniforms from
    ``rng`` (seeded by the caller for reproducibility).  CDF values hitting
    0 or 1 are clamped with a warning.
    """
    out, clamped = _of_fit(data, fit, "quantile", rng)
    _warn_rows(clamped, _CLAMPED)
    return out


def influence_fn(data, fit, y_new, x_new):
    """Empirical influence of a new observation on the calibrated estimate.

    ``B_n^{-1} f(y; k(x' beta), phi)^{1-q} s(beta)`` with the score
    ``s = phi W^{1/2} (y - mu) x / sqrt(V)``, evaluated at the
    surrogate-scale fit and its ``q``.  At q = 1 this is the
    maximum-likelihood influence function ``F_n^{-1} s``.
    """
    x_new = np.asarray(x_new, dtype=float).ravel()
    if x_new.shape[0] != data.p:
        raise UsageError("x_new must have length p")
    prob = _Problem.build(data.family, data.link, x_new[None], np.array([y_new], dtype=float),
                          fit.phi_hat)
    eta = _predictor(prob, fit.beta_star)
    data.family.check_theta(data.link.k(eta))
    data.family.validate_y(prob.y)
    return solve_spd(fit.B_n, _working(prob, eta, fit.q).psi)


def _envelope_block(data, fit, kind, rows, seed, control):
    """Sorted residuals of the replicates ``rows`` whose refit and
    residuals succeed, the number that failed, the number of those used
    whose refit did not converge, and the count of residuals to warn of
    (``_WARNINGS[kind]``) of each refit, used or not.

    Replicate r's stream draws its responses, then its quantile-residual
    uniforms.  A response outside the family support counts as failed;
    the others share the observed design, and their refits run as one
    batch and use no randomness.
    """
    discrete_u = kind == "quantile" and data.family.discrete
    ys, uniforms, failed = [], [], 0
    for r in rows:
        rng = rng_stream(seed, r)
        y_sim = data.family.sample(rng, fit.mu, fit.phi_hat)
        try:
            data.family.validate_y(y_sim)
        except DomainError:
            failed += 1
            continue
        ys.append(y_sim)
        if discrete_u:
            uniforms.append(rng.uniform(size=data.n))
    if not ys:
        return np.empty((0, data.n)), failed, 0, np.zeros(0, dtype=int)
    block = _problem(data, data.phi, y=np.array(ys))
    prob, res = _fit(block, control.q, control)
    w, _, cov = _fitted(prob, control.q, res)
    ok = res.ok
    sub, eta_star = prob.rows(ok), w.eta[ok]
    eta_q = calibrate(sub.link, eta_star, control.q)
    fits = _Fits(sub, control.q, eta_star, eta_q, sub.family.b_dot(sub.link.k(eta_q)), cov[ok])
    vals, counts = _residuals(kind, fits, np.asarray(uniforms)[ok] if discrete_u else None)
    vals = np.sort(vals, axis=-1)
    used = np.all(np.isfinite(vals), axis=-1)
    failed += len(ys) - int(np.count_nonzero(used))
    return vals[used], failed, int(np.count_nonzero(~res.converged[ok][used])), counts


def _envelope_control(control, fit):
    """The refits' policy: ``control`` (default ``FitControl(q=fit.q)``) if
    at ``fit.q``, else its loop settings at ``fit.q`` from the warm start."""
    ctl = control if control is not None else FitControl(q=fit.q)
    return ctl if ctl.q == fit.q else replace(ctl, q=fit.q, init="ml-warm-start")


def simulation_envelope(data, fit, kind="standardized", reps=100, seed=0,
                        level=0.95, control=None):
    """Parametric-bootstrap QQ envelope for a residual type.

    Simulates ``reps`` response vectors from the calibrated fitted model,
    refits each with the same control, and returns pointwise
    ``(1-level)/2`` and ``(1+level)/2`` bands of the sorted residuals,
    together with the observed sorted residuals and Blom plotting
    positions.  ``level`` lies in (0, 1) and ``reps`` is at least
    ``MIN_ENVELOPE_REPS``.
    Replicates whose refit fails, or whose residuals are not all finite,
    are dropped and counted.  The refits of up to ``BLOCK``
    replicates run as one batch; beyond 16 columns a replicate's last bits
    may depend on the others (see ``numerics.solve_spd_rows``).
    """
    if kind not in _WARNINGS:
        raise UsageError(f"unknown residual kind {kind!r}")
    if not 0.0 < _real(level, "level") < 1.0:
        raise UsageError(f"envelope level must lie in (0, 1), got {level!r}")
    if _integer(reps, "reps") < MIN_ENVELOPE_REPS:
        raise UsageError(
            f"envelope needs at least {MIN_ENVELOPE_REPS} replicates, got {reps!r}")
    _check_data(data, fit, "fit")
    ctl = _envelope_control(control, fit)
    sims, failed, nonconverged = [np.empty((0, data.n))], 0, 0
    for k in range(0, reps, BLOCK):
        vals, block_failed, block_nonconverged, counts = _envelope_block(
            data, fit, kind, range(k, min(k + BLOCK, reps)), seed, ctl)
        _warn_rows(counts, _WARNINGS[kind])
        sims.append(vals)
        failed += block_failed
        nonconverged += block_nonconverged
    sims = np.concatenate(sims)
    if len(sims) < max(MIN_ENVELOPE_REPS, reps // 2):
        raise UsageError(
            f"too few successful envelope replicates ({len(sims)}/{reps})"
        )
    alpha = 0.5 * (1.0 - level)
    lower, upper = np.percentile(sims, [100 * alpha, 100 * (1.0 - alpha)], axis=0)
    observed, counts = _of_fit(data, fit, kind, rng_stream(seed, reps))
    _warn_rows(counts, _WARNINGS[kind])
    observed = np.sort(observed)
    i = np.arange(1, data.n + 1)
    positions = normal_quantile((i - 0.375) / (data.n + 0.25))
    return EnvelopeResult(kind, observed, lower, upper, positions,
                          len(sims), failed, nonconverged)
