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
from .numerics import (
    _not_positive_definite,
    inv_spd,
    maximize_1d,
    solve_spd_rows,
)

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


class _Problem(NamedTuple):
    """Fits that share a family, theta-link, dispersion and offset.

    ``X`` (..., n, p) and ``y`` (..., n) may carry a leading batch axis of
    independent rows; ``Xt`` is the contiguous transpose of ``X``, ``c``
    caches ``c(y, phi)``, and ``offset`` (n,) or None is shared by every
    row.
    """

    family: object
    link: object
    X: np.ndarray
    Xt: np.ndarray
    y: np.ndarray
    phi: float
    c: np.ndarray
    offset: object

    @classmethod
    def build(cls, family, link, X, y, phi, offset=None):
        Xt = np.ascontiguousarray(np.swapaxes(X, -1, -2))
        return cls(family, link, X, Xt, y, phi, family.c(y, phi), offset)

    def rows(self, keep):
        """The problem restricted to the rows selected by ``keep``."""
        return self._replace(X=self.X[keep], Xt=self.Xt[keep], y=self.y[keep], c=self.c[keep])


def _problem(data, phi, offset=None):
    """The fit problem of one ModelData, without a batch axis."""
    return _Problem.build(data.family, data.link, data.X, data.y, phi, offset)


def _stack(datas, phi):
    """ModelData sharing a family and link, stacked on a leading batch axis."""
    return _Problem.build(datas[0].family, datas[0].link, np.stack([d.X for d in datas]),
                          np.stack([d.y for d in datas]), phi)


class _Working(NamedTuple):
    """Per-observation quantities of the Lq fit at one linear predictor."""

    eta: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    in_domain: np.ndarray
    logf: np.ndarray
    objective: np.ndarray
    U: np.ndarray
    mu: np.ndarray
    kdot: np.ndarray
    psi: np.ndarray


def _working(prob, eta, q):
    """Evaluate the fit at the linear predictor ``eta`` (..., n).

    ``b`` is the cumulant ``b(theta)``, ``logf`` the log-density
    ``phi*(y*theta - b(theta)) + c(y, phi)``, ``objective`` the Lq-objective, ``U = f^(1-q)`` the estimation weights,
    ``mu`` the means and ``psi`` the estimating function, each per row.
    ``in_domain`` is False on rows where a natural parameter leaves the
    family domain; the other fields of such a row are not meaningful.
    """
    fam, y, phi = prob.family, prob.y, prob.phi
    theta = prob.link.k(eta)
    b = fam.b(theta)
    logf = phi * (y * theta - b) + prob.c
    U = np.exp((1.0 - q) * logf)
    mu = fam.b_dot(theta)
    kdot = prob.link.k_dot(eta)
    # W^{1/2} V^{-1/2} reduces to k_dot since W = V k_dot^2
    psi = phi * ((U * kdot * (y - mu))[..., None, :] @ prob.X)[..., 0, :]
    objective = np.add.reduce(_lq_terms(logf, q), axis=-1)
    return _Working(eta, theta, b, fam.in_theta_domain(theta, axis=-1), logf, objective,
                    U, mu, kdot, psi)


def _sensitivity(prob, w, q):
    """``V``, ``W``, ``J``, ``GK`` and ``X' diag(W J GK) X`` at a working point.

    ``W_i = V_i k_dot(eta_i)^2``, ``J_i = J_q(theta_i)^(-phi)`` and
    ``GK_i = g_dot(theta_i) k_dot(eta_i)`` are the factors of ``A_n`` and
    ``B_n``.
    """
    fam = prob.family
    V = fam.b_ddot(w.theta)
    W = V * w.kdot * w.kdot
    J = np.exp(prob.phi * (q * w.b - fam.b(q * w.theta)))
    GK = prob.link.g_dot(w.theta) * w.kdot
    XtDX = (prob.Xt * (W * J * GK)[..., None, :]) @ prob.X
    return V, W, J, GK, XtDX


def _predictor(prob, beta):
    eta = (prob.X @ beta[..., None])[..., 0]
    return eta if prob.offset is None else eta + prob.offset


def _working_at(data, beta, q, phi, offset):
    """``_working`` at coefficients ``beta``, with the public ``phi`` default.

    Returns the working point and its problem (with the resolved ``phi``);
    raises DomainError naming the first row whose natural parameter leaves
    the family domain.
    """
    phi = data.family.resolve_phi(_phi_value(data, phi))
    prob = _problem(data, phi, offset)
    w = _working(prob, _predictor(prob, np.asarray(beta, dtype=float)), q)
    if not w.in_domain:
        lo, hi = data.family.theta_domain
        bad = int(np.argmax(~np.isfinite(w.theta) | (w.theta <= lo) | (w.theta >= hi)))
        raise DomainError(
            f"natural parameter outside the family domain at row {bad}",
            index=bad,
        )
    return w, prob


def lq_objective(data, beta, q, phi=None, offset=None):
    """Lq-likelihood objective ``sum_i l_q(f(y_i; k(x_i' beta), phi))``."""
    return float(_working_at(data, beta, q, phi, offset)[0].objective)


def lq_value_from_eta(data, eta_q, q, phi):
    """Objective evaluated at given (calibrated) predictors."""
    return float(_working(_problem(data, phi), eta_q, q).objective)


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
    w, prob = _working_at(data, beta, q, phi, offset)
    return _matrices_ab(prob, w, q)


def _matrices_ab(prob, w, q):
    fam, phi = prob.family, prob.phi
    if not fam.in_theta_domain(q * w.theta):
        raise DomainError(
            "q*theta outside the natural parameter space; J_q undefined",
            bound=fam.theta_domain,
        )
    _, W, J, _, XtDX = _sensitivity(prob, w, q)
    A = (phi / (2.0 - q)) * ((prob.Xt * (W * J)) @ prob.X)
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


def _classical_start(prob):
    """Adjusted-response starting coefficients (standard GLM start) per row.

    Returns ``(beta, pivot)`` as ``solve_spd_rows`` does: rows whose
    weighted normal equations are singular get NaN coefficients.
    """
    fam, link = prob.family, prob.link
    mu0 = fam.initial_mu(prob.y)
    theta0 = fam.theta_from_mu(mu0)
    eta0 = link.g(theta0)
    kdot = link.k_dot(eta0)
    V0 = fam.b_ddot(theta0)
    W0 = V0 * kdot * kdot
    z0 = eta0 + (prob.y - mu0) / (V0 * kdot)
    if prob.offset is not None:
        z0 = z0 - prob.offset
    XtW = prob.Xt * W0[..., None, :]
    return solve_spd_rows(XtW @ prob.X, (XtW @ z0[..., None])[..., 0])


class _Irls(NamedTuple):
    """Per-row outcome of ``_irls``.

    ``trace[k, r]`` is row r's objective after k accepted steps (NaN past
    its last); ``error[r]`` is the LqglmError the row stopped on (a start
    without a finite objective, or singular normal equations), else None.
    """

    beta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    message: list
    trace: np.ndarray
    error: list


def _irls(prob, q, beta0, control):
    """Newton-scoring/IRLS on the surrogate scale for every row of ``prob``.

    ``beta0`` is (R, p).  Rows are independent fits sharing q, phi and the
    loop settings of ``control``; each has its own step halving, stop rule
    and guards, and a row that stops leaves the compacted active arrays.
    Each accepted point is evaluated once: the line-search evaluation that
    accepts it also gives the next step.
    """
    R = len(beta0)
    max_iter, tol = control.max_iter, control.tol
    out = _Irls(
        beta=np.array(beta0, dtype=float),
        iterations=np.zeros(R, dtype=int),
        converged=np.zeros(R, dtype=bool),
        message=[""] * R,
        trace=np.full((max_iter + 1, R), np.nan),
        error=[None] * R,
    )
    idx = np.arange(R)
    beta = out.beta.copy()

    def stop(m, it, message):
        r = idx[m]
        out.beta[r] = beta[m]
        out.iterations[r] = it
        for j in r.tolist():
            out.message[j] = message

    def compact(keep):
        nonlocal idx, beta, psi0_norm, blowup_sq, w, prob
        if not keep.any():
            idx = idx[:0]
            return
        idx, beta = idx[keep], beta[keep]
        psi0_norm, blowup_sq = psi0_norm[keep], blowup_sq[keep]
        w = _Working(*(f[keep] for f in w))
        prob = prob.rows(keep)

    def accepts(tw, floor):
        return tw.in_domain & np.isfinite(tw.objective) & (tw.objective >= floor)

    # trial points may overflow; the domain and finiteness checks reject them
    with np.errstate(over="ignore", invalid="ignore"):
        w = _working(prob, _predictor(prob, beta), q)
        psi0_norm = np.maximum.reduce(np.abs(w.psi), axis=-1)
        # squared coefficient norm beyond which a row has blown up
        blowup_sq = SEPARATION_NORM_FACTOR**2 * np.maximum(1.0, np.add.reduce(beta * beta, axis=-1))
        out.trace[0] = w.objective
        bad = ~(w.in_domain & np.isfinite(w.objective))
        if bad.any():
            stop(bad, 0, "")
            for j in idx[bad].tolist():
                out.error[j] = DomainError("starting value gives a non-finite Lq-objective")
            compact(~bad)
        for it in range(1, max_iter + 1):
            if not idx.size:
                break
            overflow = np.maximum.reduce(np.abs(w.theta), axis=-1) > THETA_OVERFLOW
            step, pivot = solve_spd_rows(_sensitivity(prob, w, q)[-1], w.psi / prob.phi)
            if overflow.any() or pivot.any():
                halt = overflow | (pivot > 0)
                singular = halt & ~overflow
                stop(overflow, it, "stopped: |theta| overflow points to separation/indeterminacy")
                stop(singular, it, "")
                for j, k in zip(idx[singular].tolist(), pivot[singular].tolist()):
                    out.error[j] = SingularMatrixError(
                        f"weighted normal equations singular at iteration {it} "
                        f"(pivot {k}): likely separation or indeterminacy in the data",
                        pivot=k,
                    )
                step = step[~halt]
                compact(~halt)
                if not idx.size:
                    break
            # tolerate ulp-level noise in the merit test
            floor = w.objective - 1e-12 * np.maximum(1.0, np.abs(w.objective))
            trial = beta + step
            tw = _working(prob, _predictor(prob, trial), q)
            accepted = accepts(tw, floor)
            if not accepted.all():
                # halve the step of the rejected rows only
                pending = np.flatnonzero(~accepted)
                lam = 1.0
                for _ in range(control.step_halving_max):
                    lam *= 0.5
                    sub = prob.rows(pending)
                    t = beta[pending] + lam * step[pending]
                    sw = _working(sub, _predictor(sub, t), q)
                    hit = accepts(sw, floor[pending])
                    trial[pending[hit]] = t[hit]
                    for f, g in zip(tw, sw):
                        f[pending[hit]] = g[hit]
                    pending = pending[~hit]
                    if not pending.size:
                        break
                if pending.size:
                    exhausted = np.zeros(idx.size, dtype=bool)
                    exhausted[pending] = True
                    stop(exhausted, it,
                         "stopped: step halving exhausted without improving the objective")
                    trial, tw = trial[~exhausted], _Working(*(f[~exhausted] for f in tw))
                    compact(~exhausted)
                    if not idx.size:
                        break
            if control.stop_rule == "objective":
                done = np.abs(tw.objective - w.objective) / (0.1 + np.abs(tw.objective)) < tol
            else:
                coef_change = np.maximum.reduce(np.abs(trial - beta), axis=-1) / np.maximum(
                    1.0, np.maximum.reduce(np.abs(beta), axis=-1))
                done = (coef_change <= tol) & (
                    np.maximum.reduce(np.abs(tw.psi), axis=-1) <= tol * (1.0 + psi0_norm))
            beta, w = trial, tw
            out.trace[it, idx] = w.objective
            blowup = np.add.reduce(beta * beta, axis=-1) > blowup_sq
            ended = blowup | done
            if ended.any():
                stop(done & ~blowup, it, "")
                out.converged[idx[done & ~blowup]] = True
                stop(blowup, it, "stopped: coefficient blow-up points to separation/indeterminacy")
                compact(~ended)
    if idx.size:
        stop(np.ones(idx.size, dtype=bool), max_iter,
             f"no convergence within {max_iter} iterations")
    return out


def _fit_rows(prob, q, beta0, control):
    """The fits ``fit_mlq`` would run on every row from the starts ``beta0``.

    Builds no FitResult.  Returns ``(beta_star, converged, ok)``: ``ok`` is
    False on rows where ``fit_mlq`` would raise an LqglmError, in the loop
    (a start without a finite objective, NaN included, or singular normal
    equations) or in the result assembly (``q theta`` outside the domain,
    or ``B_n`` not positive definite).
    """
    res = _irls(prob, q, beta0, control)
    ok = np.array([e is None for e in res.error], dtype=bool)
    sub = prob.rows(ok)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _working(sub, _predictor(sub, res.beta[ok]), q)
        B = prob.phi * _sensitivity(sub, w, q)[-1]
    ok[ok] = (w.in_domain & prob.family.in_theta_domain(q * w.theta, axis=-1)
              & (solve_spd_rows(B, w.psi)[1] == 0))
    return res.beta, res.converged, ok


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

    def batch_of_one(phi):
        return _Problem.build(data.family, data.link, data.X[None], data.y[None], phi, offset)

    prob = batch_of_one(phi)

    def irls(q, beta0):
        # one row; _irls reads only the loop settings from the control
        res = _irls(prob, q, beta0, control)
        if res.error[0] is not None:
            raise res.error[0]
        return res

    if isinstance(control.init, str):
        if control.init != "ml-warm-start":
            raise UsageError(f"unknown init {control.init!r}")
        beta0, pivot = _classical_start(prob)
        if pivot[0]:
            raise _not_positive_definite(pivot[0])
        if q < 1.0 - Q_ONE_EPS:
            beta0 = irls(1.0, beta0).beta
    else:
        beta0 = np.asarray(control.init, dtype=float)
        if beta0.shape != (data.p,):
            raise UsageError("explicit init vector has the wrong length")
        beta0 = beta0[None]

    res = irls(q, beta0)
    if profile_phi:
        # Alternate beta | phi and phi | beta until the dispersion settles.
        for _ in range(25):
            eta_q = calibrate(data.link, _predictor(prob, res.beta)[0], q)
            phi_new = _profile_phi_from_eta(data, eta_q, q)
            if abs(np.log(phi_new / phi)) < 1e-8:
                phi = phi_new
                break
            phi = phi_new
            prob = batch_of_one(phi)
            res = irls(q, res.beta)

    return _assemble_result(data, res.beta[0], q, phi, res, offset)


def _assemble_result(data, beta_star, q, phi, res, offset=None):
    """FitResult of the one-row ``_irls`` outcome ``res`` at ``(beta_star, phi)``."""
    w, prob = _working_at(data, beta_star, q, phi, offset)
    eta_q = calibrate(data.link, w.eta, q)
    at_eta_q = _working(prob, eta_q, q)
    A_n, B_n = _matrices_ab(prob, w, q)
    Binv = inv_spd(B_n)
    cov = Binv @ A_n @ Binv
    cov = 0.5 * (cov + cov.T)
    trace = res.trace[:, 0]
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
        lq_value=float(at_eta_q.objective),
        phi_hat=prob.phi,
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
        psi_norm=float(np.max(np.abs(w.psi))),
        message=res.message[0],
        objective_trace=trace[~np.isnan(trace)].tolist(),
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
