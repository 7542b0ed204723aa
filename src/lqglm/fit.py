"""Maximum Lq-likelihood fitting for GLMs.

The estimator maximizes ``sum_i l_q(f(y_i; k(x_i' beta), phi))`` where
``l_q`` is the deformed logarithm.  Solving the estimating equation yields
the surrogate-scale solution ``beta_star``; Fisher consistency is restored
by the calibration ``eta_q = k^{-1}(q k(eta_star))`` (``beta_q = q
beta_star`` under the canonical link).  The Newton-scoring recursion has an
iteratively reweighted least squares structure with weights
``U_i = f(y_i)^(1-q)`` that downweight observations of low probability.
"""

from typing import NamedTuple

import numpy as np

from .errors import BracketError, DomainError, SingularMatrixError, UsageError
from .families import Q_ONE_EPS, _lq_terms
from .model import PROFILE, FitControl, FitResult, ModelData
from .numerics import inv_spd, maximize_1d, solve_spd

__all__ = [
    "lq_objective",
    "robust_weights",
    "estimating_function",
    "matrices_ab",
    "fit_mlq",
    "calibrate",
    "calibrate_coefficients",
    "estimate_phi",
]

# Stop and flag indeterminacy when coefficients blow past this multiple of
# the starting scale, or when any natural parameter exceeds +-700.
SEPARATION_NORM_FACTOR = 1e4
THETA_OVERFLOW = 700.0


class _Working(NamedTuple):
    """Per-observation quantities of the Lq fit at one linear predictor."""

    eta: np.ndarray
    theta: np.ndarray
    in_domain: bool
    logf: np.ndarray
    objective: float
    U: np.ndarray
    mu: np.ndarray
    kdot: np.ndarray
    psi: np.ndarray


def _working(data, eta, q, phi):
    """Evaluate the fit at the linear predictor ``eta``.

    ``logf`` is the log-density ``phi*(y*theta - b(theta)) + c(y, phi)``,
    ``objective`` the Lq-objective, ``U = f^(1-q)`` the estimation weights,
    ``mu`` the means and ``psi`` the estimating function.  ``in_domain``
    is False when a natural parameter leaves the family domain; the other
    fields are then not meaningful.
    """
    fam, y = data.family, data.y
    theta = data.link.k(eta)
    logf = phi * (y * theta - fam.b(theta)) + fam.c(y, phi)
    U = np.exp((1.0 - q) * logf)
    mu = fam.b_dot(theta)
    kdot = data.link.k_dot(eta)
    # W^{1/2} V^{-1/2} reduces to k_dot since W = V k_dot^2
    psi = phi * (data.X.T @ (U * kdot * (y - mu)))
    objective = float(np.sum(_lq_terms(logf, q)))
    return _Working(eta, theta, fam.in_theta_domain(theta), logf, objective, U, mu, kdot, psi)


def _sensitivity(data, w, q, phi):
    """``V``, ``W``, ``J``, ``GK`` and ``X' diag(W J GK) X`` at a working point.

    ``W_i = V_i k_dot(eta_i)^2``, ``J_i = J_q(theta_i)^(-phi)`` and
    ``GK_i = g_dot(theta_i) k_dot(eta_i)`` are the factors of ``A_n`` and
    ``B_n``.
    """
    fam = data.family
    V = fam.b_ddot(w.theta)
    W = V * w.kdot * w.kdot
    J = np.exp(phi * (q * fam.b(w.theta) - fam.b(q * w.theta)))
    GK = data.link.g_dot(w.theta) * w.kdot
    return V, W, J, GK, data.X.T @ ((W * J * GK)[:, None] * data.X)


def _predictor(data, beta, offset):
    eta = data.X @ np.asarray(beta, dtype=float)
    return eta if offset is None else eta + offset


def _working_at(data, beta, q, phi, offset):
    """``_working`` at coefficients ``beta``, with the public ``phi`` default.

    Returns the working point and the resolved ``phi``; raises DomainError
    naming the first row whose natural parameter leaves the family domain.
    """
    phi = data.family.resolve_phi(_phi_value(data, phi))
    w = _working(data, _predictor(data, beta, offset), q, phi)
    if not w.in_domain:
        lo, hi = data.family.theta_domain
        bad = int(np.argmax(~np.isfinite(w.theta) | (w.theta <= lo) | (w.theta >= hi)))
        raise DomainError(
            f"natural parameter outside the family domain at row {bad}",
            index=bad,
        )
    return w, phi


def lq_objective(data, beta, q, phi=None, offset=None):
    """Lq-likelihood objective ``sum_i l_q(f(y_i; k(x_i' beta), phi))``."""
    return _working_at(data, beta, q, phi, offset)[0].objective


def lq_value_from_eta(data, eta_q, q, phi):
    """Objective evaluated at given (calibrated) predictors."""
    return _working(data, eta_q, q, phi).objective


def robust_weights(data, beta, q, phi=None, offset=None):
    """Estimation weights ``U_i = f(y_i; k(x_i' beta), phi)^(1-q)``.

    All weights are 1 at q = 1; for q < 1 they downweight observations
    whose density under the current fit is small.
    """
    return _working_at(data, beta, q, phi, offset)[0].U


def estimating_function(data, beta, q, phi=None, offset=None):
    """Gradient of the Lq-objective: ``phi X' W^{1/2} U V^{-1/2} (y - mu)``."""
    return _working_at(data, beta, q, phi, offset)[0].psi


def matrices_ab(data, beta, q, phi=None, offset=None):
    """Variability and sensitivity matrices at ``beta``.

    ``A_n = phi/(2-q) X' W J X`` and ``B_n = phi X' W J G K X`` with
    ``W_i = V_i k_dot(eta_i)^2``, ``J_i = J_q(theta_i)^(-phi)``,
    ``G_i = g_dot(theta_i)`` and ``K_i = k_dot(eta_i)``, all evaluated at
    the supplied (surrogate-scale) ``beta``.  Requires ``q theta_i`` inside
    the natural parameter space.
    """
    w, phi = _working_at(data, beta, q, phi, offset)
    return _matrices_ab(data, w, q, phi)


def _matrices_ab(data, w, q, phi):
    fam = data.family
    if not fam.in_theta_domain(q * w.theta):
        raise DomainError(
            "q*theta outside the natural parameter space; J_q undefined",
            bound=fam.theta_domain,
        )
    _, W, J, _, XtDX = _sensitivity(data, w, q, phi)
    A = (phi / (2.0 - q)) * (data.X.T @ ((W * J)[:, None] * data.X))
    return A, phi * XtDX


def calibrate(link, eta_star, q):
    """Calibrated predictor ``eta_q = k^{-1}(q k(eta_star))``."""
    eta_star = np.asarray(eta_star, dtype=float)
    return link.g(q * link.k(eta_star))


def calibrate_coefficients(link, beta_star, q):
    """Calibrated coefficients.

    At q = 1 the calibration is the identity for every link; otherwise
    only the canonical link admits calibrated coefficients (``q *
    beta_star``), and ``None`` is returned for other links, where only
    calibrated predictors are identifiable.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    if abs(q - 1.0) < Q_ONE_EPS:
        return beta_star
    if not link.is_canonical:
        return None
    return q * beta_star


def _phi_value(data, phi):
    if phi is not None:
        return phi
    return 1.0 if data.phi == PROFILE else data.phi


def _classical_start(data, q, phi, offset):
    """Adjusted-response starting coefficients (standard GLM start)."""
    fam, link = data.family, data.link
    mu0 = fam.initial_mu(data.y)
    theta0 = fam.theta_from_mu(mu0)
    eta0 = link.g(theta0)
    kdot = link.k_dot(eta0)
    V0 = fam.b_ddot(theta0)
    W0 = V0 * kdot * kdot
    z0 = eta0 + (data.y - mu0) / (V0 * kdot)
    if offset is not None:
        z0 = z0 - offset
    XtW = data.X.T * W0
    return solve_spd(XtW @ data.X, XtW @ z0)


def _irls(data, q, phi, beta0, control, offset=None):
    """Newton-scoring/IRLS loop on the surrogate scale.

    Each accepted point is evaluated once: the line-search evaluation that
    accepts it also gives the next step and the reported ``psi_norm``.

    Returns ``(beta, iterations, converged, psi_norm, message,
    objective_trace)``.
    """
    beta = np.asarray(beta0, dtype=float).copy()

    def evaluate(b):
        # trial points may overflow; the domain and finiteness checks reject them
        with np.errstate(over="ignore", invalid="ignore"):
            return _working(data, _predictor(data, b, offset), q, phi)

    w = evaluate(beta)
    obj = w.objective
    if not (w.in_domain and np.isfinite(obj)):
        raise DomainError("starting value gives a non-finite Lq-objective")
    psi0_norm = psi_norm = float(np.max(np.abs(w.psi)))
    start_scale = max(1.0, float(np.linalg.norm(beta)))
    converged = False
    message = ""
    trace = [obj]
    it = 0
    for it in range(1, control.max_iter + 1):
        if float(np.max(np.abs(w.theta))) > THETA_OVERFLOW:
            message = "stopped: |theta| overflow points to separation/indeterminacy"
            break
        with np.errstate(over="ignore"):
            XtDX = _sensitivity(data, w, q, phi)[-1]
        try:
            step = solve_spd(XtDX, w.psi / phi)
        except SingularMatrixError as e:
            raise SingularMatrixError(
                f"weighted normal equations singular at iteration {it} "
                f"(pivot {e.pivot}): likely separation or indeterminacy in the data",
                pivot=e.pivot,
            ) from e
        lam = 1.0
        accepted = False
        merit_slack = 1e-12 * max(1.0, abs(obj))  # tolerate ulp-level noise
        for _ in range(control.step_halving_max + 1):
            trial = beta + lam * step
            tw = evaluate(trial)
            if tw.in_domain and np.isfinite(tw.objective) and tw.objective >= obj - merit_slack:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            message = "stopped: step halving exhausted without improving the objective"
            break
        coef_change = float(np.max(np.abs(trial - beta))) / max(1.0, float(np.max(np.abs(beta))))
        obj_change = abs(tw.objective - obj) / (0.1 + abs(tw.objective))
        beta, obj, w = trial, tw.objective, tw
        trace.append(obj)
        psi_norm = float(np.max(np.abs(w.psi)))
        if float(np.linalg.norm(beta)) > SEPARATION_NORM_FACTOR * start_scale:
            message = "stopped: coefficient blow-up points to separation/indeterminacy"
            break
        if control.stop_rule == "objective":
            if obj_change < control.tol:
                converged = True
                break
        else:
            if coef_change <= control.tol and psi_norm <= control.tol * (1.0 + psi0_norm):
                converged = True
                break
    if not converged and not message:
        message = f"no convergence within {control.max_iter} iterations"
    return beta, it, converged, psi_norm, message, trace


def fit_mlq(data, control=None, offset=None):
    """Fit a GLM by maximum Lq-likelihood.

    Runs Newton scoring (equivalently IRLS on the working response) with
    step halving on the Lq-objective, then applies the calibration that
    restores Fisher consistency.  With ``init="ml-warm-start"`` a q = 1
    (maximum likelihood) fit from the standard adjusted-response start is
    used as the starting point for q < 1.

    Parameters
    ----------
    data : ModelData
    control : FitControl, optional
    offset : array, optional
        Fixed addition to the linear predictor (used by constrained fits).

    Returns
    -------
    FitResult
        With ``converged=False`` (result still populated) when the loop
        stopped on the iteration cap or a separation guard.
    """
    if control is None:
        control = FitControl()
    q = control.q
    profile_phi = data.phi == PROFILE
    phi = 1.0 if profile_phi else data.phi

    if isinstance(control.init, str):
        if control.init != "ml-warm-start":
            raise UsageError(f"unknown init {control.init!r}")
        beta0 = _classical_start(data, q, phi, offset)
        if q < 1.0 - Q_ONE_EPS:
            # _irls takes q as an argument and reads only the loop settings
            # from the control.
            beta0 = _irls(data, 1.0, phi, beta0, control, offset)[0]
    else:
        beta0 = np.asarray(control.init, dtype=float)
        if beta0.shape != (data.p,):
            raise UsageError("explicit init vector has the wrong length")

    if profile_phi:
        beta, it, conv, psin, msg, trace = _irls(data, q, phi, beta0, control, offset)
        # Alternate beta | phi and phi | beta until the dispersion settles.
        for _ in range(25):
            eta_q = calibrate(data.link, _predictor(data, beta, offset), q)
            phi_new = _profile_phi_from_eta(data, eta_q, q)
            if abs(np.log(phi_new / phi)) < 1e-8:
                phi = phi_new
                break
            phi = phi_new
            beta, it, conv, psin, msg, trace = _irls(data, q, phi, beta, control, offset)
    else:
        beta, it, conv, psin, msg, trace = _irls(data, q, phi, beta0, control, offset)

    return _assemble_result(data, beta, q, phi, it, conv, psin, msg, trace, offset)


def _assemble_result(data, beta_star, q, phi, iterations, converged, psi_norm, message, trace, offset=None):
    w, phi = _working_at(data, beta_star, q, phi, offset)
    eta_q = calibrate(data.link, w.eta, q)
    at_eta_q = _working(data, eta_q, q, phi)
    A_n, B_n = _matrices_ab(data, w, q, phi)
    Binv = inv_spd(B_n)
    cov = Binv @ A_n @ Binv
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        q=q,
        beta_star=beta_star,
        beta_q=calibrate_coefficients(data.link, beta_star, q),
        eta_star=w.eta,
        eta_q=eta_q,
        weights=w.U,
        mu=at_eta_q.mu,
        mu_star=w.mu,
        A_n=A_n,
        B_n=B_n,
        cov=cov,
        lq_value=at_eta_q.objective,
        phi_hat=phi,
        iterations=iterations,
        converged=converged,
        psi_norm=psi_norm,
        message=message,
        objective_trace=list(trace),
        data=data,
    )


def _profile_phi_from_eta(data, eta_q, q, expand=1e4):
    theta = data.link.k(eta_q)
    mu = data.family.b_dot(theta)
    rss = float(np.sum((data.y - mu) ** 2))
    if rss <= 1e-300:
        raise BracketError(
            "profiled dispersion diverges (zero residuals); no interior maximum"
        )
    phi0 = data.n / rss
    lo, hi = np.log(phi0 / expand), np.log(phi0 * expand)

    def h(t):
        return lq_value_from_eta(data, eta_q, q, float(np.exp(t)))

    t_hat, _ = maximize_1d(h, lo, hi, tol=1e-10)
    if t_hat - lo < 1e-6 or hi - t_hat < 1e-6:
        raise BracketError(
            "profiled dispersion maximum sits on the bracket edge; expand the bracket"
        )
    return float(np.exp(t_hat))


def estimate_phi(data, beta_q, q, expand=1e4):
    """Profiled Lq-likelihood estimate of a free dispersion.

    Maximizes ``H_n(phi) = sum_i l_q(f(y_i; k(x_i' beta_q), phi))`` over
    ``phi`` by golden-section search on ``log(phi)``, bracketing around the
    moment estimate.  ``beta_q`` is on the calibrated scale.

    Raises
    ------
    BracketError
        If no interior maximum exists in the bracket (e.g. zero residuals).
    """
    if data.family.phi_fixed is not None:
        raise UsageError(f"family '{data.family.name}' has fixed dispersion")
    eta_q = data.X @ np.asarray(beta_q, dtype=float)
    return _profile_phi_from_eta(data, eta_q, q, expand=expand)
