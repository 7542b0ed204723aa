"""Maximum Lq-likelihood fitting for GLMs.

The estimator maximizes ``sum_i l_q(f(y_i; k(x_i' beta), phi))`` where
``l_q`` is the deformed logarithm.  Solving the estimating equation yields
the surrogate-scale solution ``beta_star``; Fisher consistency is restored
by the calibration ``eta_q = k^{-1}(q k(eta_star))`` (``beta_q = q
beta_star`` under the canonical link).  The Newton-scoring recursion has an
iteratively reweighted least squares structure with weights
``U_i = f(y_i)^(1-q)`` that downweight observations of low probability.
"""

from math import inf, isfinite
from typing import NamedTuple

import numpy as np

from .errors import (BracketError, DomainError, EvaluationError, LqglmError,
                     SingularMatrixError, UsageError)
from .families import _lq_terms
from .model import PROFILE, FitControl, FitResult
from .numerics import (
    _not_positive_definite,
    _solve_spd_each,
    gram_cache,
    solve_spd_rows,
    unpack_band,
    weighted_gram,
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
# Halvings of a rejected step before the loop stops as exhausted.
STEP_HALVING_MAX = 20
# The profiled dispersion is scanned at PHI_SCAN points within this factor of its moment estimate.
PHI_BRACKET = 1e4
PHI_SCAN = 33
# Replicates fitted together as one batch (and one task of a worker pool).
BLOCK = 64


class _Problem(NamedTuple):
    """Fits that share a family, theta-link, dispersion and offset.

    ``y`` (..., n) may carry a leading batch axis of independent rows.
    ``X`` is one (n, p) design that every row shares through numpy
    broadcasting, or an (R, n, p) stack of one design per row; ``xx`` is
    what ``numerics.weighted_gram`` reads of it (``gram_cache``: its column
    products), ``c`` caches ``c(y, phi)``, and ``offset``
    (n,) or None (the constrained fit's ``X b0``) is shared by every row.
    ``phi`` is a float shared by every row, or an (R, 1) column of per-row
    dispersions; with ``profile`` the dispersion is profiled out of each
    fit, starting from ``phi``.  ``build`` takes ModelData's ``phi``:
    ``PROFILE`` sets ``profile`` and starts at phi = 1.
    """

    family: object
    link: object
    X: np.ndarray
    xx: np.ndarray
    y: np.ndarray
    phi: float
    c: np.ndarray
    offset: object
    profile: bool = False

    @classmethod
    def build(cls, family, link, X, y, phi, offset=None):
        profile = isinstance(phi, str) and phi == PROFILE
        phi = 1.0 if profile else phi
        return cls(family, link, X, gram_cache(X), y, phi, family.c(y, phi), offset, profile)

    def rows(self, keep):
        """The problem restricted to the rows selected by ``keep``; a
        shared design stays the same object."""
        X, xx = (self.X, self.xx) if self.X.ndim == 2 else (self.X[keep], self.xx[keep])
        return self._replace(X=X, xx=xx, y=self.y[keep], phi=_rows(self.phi, keep),
                             c=self.c[keep])

    def with_phi(self, phi):
        """The problem at dispersion ``phi``."""
        return self._replace(phi=phi, c=self.family.c(self.y, phi))


def _rows(v, keep):
    """The rows ``keep`` of a per-row (R, 1) column ``v``; a float shared
    by every row is returned as it is."""
    return v if np.ndim(v) == 0 else v[keep]


def _problem(data, phi, y=None):
    """The fit problem of the design of ``data`` with the responses ``y``
    (``data.y`` by default); an (R, n) batch of them shares the design."""
    return _Problem.build(data.family, data.link, data.X, data.y if y is None else y, phi)


class _Working(NamedTuple):
    """Per-observation quantities of the Lq fit at one linear predictor."""

    eta: np.ndarray
    theta: np.ndarray
    b: np.ndarray
    theta_max: np.ndarray
    logf: np.ndarray
    objective: np.ndarray
    U: np.ndarray
    mu: np.ndarray
    V: np.ndarray
    kdot: object
    psi: np.ndarray

    def rows(self, keep):
        """The working point of the rows selected by ``keep``."""
        return _Working(*(f[keep] if isinstance(f, np.ndarray) else f for f in self))


def _unit(phi):
    """Whether the dispersion is the float 1, whose multiply or divide is
    the identity (``x * 1.0 == x / 1.0 == x``) and is skipped."""
    return isinstance(phi, float) and phi == 1.0


def _weights_terms(logf, q):
    """``U = f^(1-q)`` and the objective terms ``l_q(f)`` from ``logf``.

    ``(1-q) logf`` is formed once for both.  With a float q = 1 exactly,
    ``U`` is 1 and the terms are ``logf`` without an ``exp`` pass; with a
    column, rows at q = 1 get ``U = 1``.
    """
    column = isinstance(q, np.ndarray)
    if not column and q == 1.0:
        return np.ones_like(logf), logf
    a = (1.0 - q) * logf
    U = np.exp(a)
    return (np.where(q == 1.0, 1.0, U) if column else U), _lq_terms(logf, q, a)


def _working(prob, eta, q):
    """Evaluate the fit at the linear predictor ``eta`` (..., n).

    ``b``, ``mu`` and ``V`` are the cumulant ``b(theta)`` and its first two
    derivatives, ``logf`` the log-density ``phi*(y*theta - b(theta)) +
    c(y, phi)``, ``objective`` the Lq-objective, ``U = f^(1-q)`` the
    estimation weights and ``psi`` the estimating function, each per row.
    ``theta_max`` is each row's ``max|theta|``.  Every shipped family's
    natural parameter ranges over the real line, so "in the domain" means
    finite: a row is in the domain where ``theta_max < inf``, not where
    ``theta`` has an infinite or NaN entry, and its other fields are then
    not meaningful.

    ``q``, like ``prob.phi``, is a float shared by every row or an (R, 1)
    column of per-row values; each row equals its own float-q evaluation.
    On the canonical link ``theta = eta`` and ``k_dot = 1``: ``kdot`` is
    the float 1.0 and ``psi`` is not multiplied by it.  At q = 1 exactly,
    ``U = f^0 = 1`` without an ``exp`` pass (see ``_weights_terms``).  A
    float ``phi = 1`` (every Bernoulli and Poisson fit) scales neither
    ``logf`` nor ``psi`` (see ``_unit``).
    """
    fam, link, y, phi = prob.family, prob.link, prob.y, prob.phi
    unit = _unit(phi)
    theta = eta if link.is_canonical else link.k(eta)
    b, mu, V = fam.cumulants(theta)
    logf = y * theta - b
    logf = (logf if unit else phi * logf) + prob.c
    U, terms = _weights_terms(logf, q)
    if link.is_canonical:
        kdot, s = 1.0, U * (y - mu)
    else:
        # W^{1/2} V^{-1/2} reduces to k_dot since W = V k_dot^2
        kdot = link.k_dot(eta)
        s = U * kdot * (y - mu)
    psi = (s[..., None, :] @ prob.X)[..., 0, :]
    if not unit:
        psi = phi * psi
    objective = np.add.reduce(terms, axis=-1)
    theta_max = np.maximum.reduce(np.abs(theta), axis=-1)
    return _Working(eta, theta, b, theta_max, logf, objective, U, mu, V, kdot, psi)


def _sensitivity(prob, w, q):
    """``W`` and ``J`` at a working point: ``X' diag(W J) X`` is the
    sensitivity matrix over phi, whose band is ``weighted_gram(prob.xx, W
    * J)``.

    ``W_i = V_i k_dot(eta_i)^2`` and ``J_i = J_q(theta_i)^(-phi)`` are the
    factors of ``A_n`` and ``B_n`` on every link (``g = k^{-1}``, so the
    chain rule's ``g'(theta) k_dot(eta)`` is 1); on the canonical link
    ``W`` is ``V`` itself.  At a float q = 1 exactly, ``J = exp(phi (b -
    b)) = 1`` is the float 1.0; with a column of q, rows at q = 1 get
    ``J = 1``.
    """
    column = isinstance(q, np.ndarray)
    if not column and q == 1.0:
        J = 1.0
    else:
        e = q * w.b - prob.family.b(q * w.theta)
        J = np.exp(e if _unit(prob.phi) else prob.phi * e)
        if column:
            J = np.where(q == 1.0, 1.0, J)
    return (w.V if prob.link.is_canonical else w.V * w.kdot * w.kdot), J


def _predictor(prob, beta):
    eta = (prob.X @ beta[..., None])[..., 0]
    return eta if prob.offset is None else eta + prob.offset


def _working_at(data, beta, q, phi):
    """``_working`` at coefficients ``beta``, with the public ``phi`` default.

    Returns the working point and its problem (with the resolved ``phi``);
    raises DomainError naming the first row whose natural parameter is
    not finite.
    """
    phi = data.family.resolve_phi(_phi_value(data, phi))
    prob = _problem(data, phi)
    w = _working(prob, _predictor(prob, np.asarray(beta, dtype=float)), q)
    if not (w.theta_max < np.inf):
        bad = int(np.argmax(~np.isfinite(w.theta)))
        raise DomainError(f"natural parameter not finite at row {bad}", index=bad)
    return w, prob


def lq_objective(data, beta, q, phi=None):
    """Lq-likelihood objective ``sum_i l_q(f(y_i; k(x_i' beta), phi))``."""
    return float(_working_at(data, beta, q, phi)[0].objective)


def robust_weights(data, beta, q, phi=None):
    """Estimation weights ``U_i = f(y_i; k(x_i' beta), phi)^(1-q)``.

    All weights are 1 at q = 1; for q < 1 they downweight observations
    whose density under the current fit is small.
    """
    return _working_at(data, beta, q, phi)[0].U


def estimating_function(data, beta, q, phi=None):
    """Gradient of the Lq-objective: ``phi X' W^{1/2} U V^{-1/2} (y - mu)``."""
    return _working_at(data, beta, q, phi)[0].psi


def matrices_ab(data, beta, q, phi=None):
    """Variability and sensitivity matrices at ``beta``.

    ``A_n = phi/(2-q) X' W J X`` and ``B_n = phi X' W J X`` with
    ``W_i = V_i k_dot(eta_i)^2`` and ``J_i = J_q(theta_i)^(-phi)``, all
    evaluated at the supplied (surrogate-scale) ``beta``.  ``J_q`` is
    defined at every finite ``theta``, so only a non-finite ``theta_i``
    raises DomainError.
    """
    return _evaluate(data, beta, q, phi)[1:]


def _evaluate(data, beta, q, phi=None):
    """The working point, ``A_n`` and ``B_n`` of one ModelData at ``beta``;
    DomainError where ``theta`` is not finite.  ``J_q`` needs no check of
    its own: it is defined at every finite ``theta``.

    ``b(theta)`` and ``J`` may overflow at a finite ``theta``; the working
    point and the matrices then carry the non-finite entries that the
    solves reject, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        w, prob = _working_at(data, beta, q, phi)
        return (w, *_matrices_ab(prob, w, q))


def _matrices_ab(prob, w, q):
    """``A_n`` and ``B_n`` of every row at the working point ``w``, at a
    float q or an (R, 1) column of them: ``X' W J X`` is formed once and
    scaled into both."""
    W, J = _sensitivity(prob, w, q)
    XtDX = unpack_band(weighted_gram(prob.xx, W * J))
    phi = prob.phi
    A = np.asarray(phi / (2.0 - q))[..., None] * XtDX
    return A, (XtDX if _unit(phi) else np.asarray(phi)[..., None] * XtDX)


def _hat(prob, w, q):
    """``W``, ``J``, ``G = X (X' W J X)^{-1}`` (..., n, p), NaN on a row
    whose ``X' W J X`` is not positive definite, and each row's Cholesky
    pivot, at the working point ``w``: the hat matrix ``P W J`` has
    ``P = G X'``.  The dense per-row solve and this product order keep
    every row bit-identical to a batch of one."""
    W, J = _sensitivity(prob, w, q)
    # a shared (p, n) design is one right-hand side of every row
    Xt = np.swapaxes(prob.X, -1, -2)
    Gt, pivot = _solve_spd_each(unpack_band(weighted_gram(prob.xx, W * J)),
                                Xt.reshape(-1, *Xt.shape[-2:]))
    return W, J, np.ascontiguousarray(np.swapaxes(Gt, -1, -2)), pivot


def calibrate(link, eta_star, q):
    """Calibrated predictor ``eta_q = k^{-1}(q k(eta_star))``."""
    eta_star = np.asarray(eta_star, dtype=float)
    return link.g(q * link.k(eta_star))


def calibrate_coefficients(link, beta_star, q):
    """Calibrated coefficients.

    At q = 1 exactly the calibration is the identity for every link;
    otherwise only the canonical link admits calibrated coefficients (``q
    * beta_star``), and ``None`` is returned for other links, where only
    calibrated predictors are identifiable.
    """
    beta_star = np.asarray(beta_star, dtype=float)
    if q == 1.0:
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
    weighted normal equations are singular get NaN coefficients.  A
    zero-weight observation (``k_dot(eta0) = 0``) drops its undefined
    working response, which the normal equations would not use.
    """
    fam, link = prob.family, prob.link
    mu0 = fam.initial_mu(prob.y)
    theta0 = fam.theta_from_mu(mu0)
    eta0 = link.g(theta0)
    kdot = link.k_dot(eta0)
    V0 = fam.b_ddot(theta0)
    W0 = V0 * kdot * kdot
    with np.errstate(divide="ignore", invalid="ignore"):
        z0 = np.where(W0 > 0, eta0 + (prob.y - mu0) / (V0 * kdot), 0.0)
    if prob.offset is not None:
        z0 = z0 - prob.offset
    return solve_spd_rows(weighted_gram(prob.xx, W0), ((W0 * z0)[..., None, :] @ prob.X)[..., 0, :])


class _Irls(NamedTuple):
    """Per-row outcome of ``_irls``; every field is indexed by row on its
    first axis.

    ``trace[r, k]`` is row r's objective after k accepted steps (NaN past
    its last); ``message`` and ``error`` are object arrays: ``error[r]`` is
    the LqglmError the row stopped on (a start without a finite objective,
    or singular normal equations), else None.
    """

    beta: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    message: np.ndarray
    trace: np.ndarray
    error: np.ndarray

    @property
    def ok(self):
        """Rows that stopped on no LqglmError."""
        return np.equal(self.error, None)

    def put(self, rows, other):
        """Overwrite the ``rows`` of every field with the rows of ``other``."""
        for f, g in zip(self, other):
            f[rows] = g


def _step(prob, w, q, newton):
    """The ascent step of every row at the working point ``w`` and q (a
    float or an (R, 1) column), and the Cholesky pivot of its matrix as
    ``solve_spd_rows`` reports it.

    Scoring solves ``X' W J X step = psi / phi``.  Newton (canonical
    link only) solves with the observed negative Hessian over phi,
    ``X' diag(U [V - (1-q) phi (y-mu)^2]) X``, whose diagonal weights turn
    negative on observations with large residuals at q < 1; a row whose
    Hessian is not positive definite takes the scoring step instead.
    """
    rhs = w.psi if _unit(prob.phi) else w.psi / prob.phi
    if not newton:
        W, J = _sensitivity(prob, w, q)
        return solve_spd_rows(weighted_gram(prob.xx, W * J), rhs)
    r = prob.y - w.mu
    D = w.U * (w.V - (1.0 - q) * prob.phi * r * r)
    step, pivot = solve_spd_rows(weighted_gram(prob.xx, D), rhs)
    if np.count_nonzero(pivot):
        fb = pivot > 0
        sub = prob.rows(fb)
        W, J = _sensitivity(sub, w.rows(fb), _rows(q, fb))
        step[fb], pivot[fb] = solve_spd_rows(weighted_gram(sub.xx, W * J), rhs[fb])
    return step, pivot


def _irls(prob, q, beta0, control):
    """Newton-scoring/IRLS on the surrogate scale for every row of ``prob``.

    ``beta0`` is (R, p).  Rows are independent fits sharing the loop
    settings of ``control``; q, like ``prob.phi``, is a float shared by
    every row or an (R, 1) column of per-row values.  Each row has its own
    step halving, stop rule and guards, and a row that stops leaves the
    compacted active arrays.
    Each accepted point is evaluated once: the line-search evaluation that
    accepts it also gives the next step.

    ``control.solver`` picks the step matrix (see ``_step``).  Scoring is
    the default because the paper's reference fits near indeterminacy are
    stopping points of 25-iteration scoring; there it crawls, taking up to
    74 iterations per q on the vaso grid from the q = 1 fit, where Newton's
    quadratic convergence takes at most 9.  A q-grid needs every fit
    converged, not a particular stopping point, so the grid uses Newton.
    """
    R = len(beta0)
    max_iter, tol = control.max_iter, control.tol
    newton = control.solver == "newton" and prob.link.is_canonical
    out = _Irls(
        beta=np.array(beta0, dtype=float),
        iterations=np.zeros(R, dtype=int),
        converged=np.zeros(R, dtype=bool),
        message=np.full(R, "", dtype=object),
        trace=np.full((R, max_iter + 1), np.nan),
        error=np.full(R, None, dtype=object),
    )
    idx = np.arange(R)
    beta = out.beta.copy()

    def retire(ended, it, message, converged=False):
        """Record the active rows ``ended`` as stopped at iteration ``it``
        and drop them from the active arrays; ``message`` and ``converged``
        are one value or one per ended row."""
        nonlocal idx, beta, psi0_norm, blowup_sq, w, theta_max, prob, q
        r = idx[ended]
        out.beta[r], out.iterations[r] = beta[ended], it
        out.message[r], out.converged[r] = message, converged
        keep = ~ended
        if not np.count_nonzero(keep):
            idx = idx[:0]
            return
        idx, beta, blowup_sq = idx[keep], beta[keep], blowup_sq[keep]
        psi0_norm = None if psi0_norm is None else psi0_norm[keep]
        w = w.rows(keep)
        theta_max = w.theta_max.tolist()
        prob, q = prob.rows(keep), _rows(q, keep)

    def accepts(tw, floor):
        return (tw.theta_max < np.inf) & np.isfinite(tw.objective) & (tw.objective >= floor)

    # Each per-row decision tests its common outcome on Python floats before any numpy mask:
    # ``theta_max`` is the list of w.theta_max, and a row is in the domain where its entry
    # is finite, so every row is where their sum is (an overflowed sum only takes the masks).
    # trial points may overflow; the domain and finiteness checks reject them
    with np.errstate(over="ignore", invalid="ignore"):
        w = _working(prob, _predictor(prob, beta), q)
        theta_max = w.theta_max.tolist()
        psi0_norm = None if control.stop_rule == "objective" else np.maximum.reduce(
            np.abs(w.psi), axis=-1)
        # squared coefficient norm beyond which a row has blown up
        blowup_sq = SEPARATION_NORM_FACTOR**2 * np.maximum(1.0, np.add.reduce(beta * beta, axis=-1))
        out.trace[:, 0] = w.objective
        if not (sum(theta_max) < inf and all(map(isfinite, w.objective.tolist()))):
            bad = ~((w.theta_max < np.inf) & np.isfinite(w.objective))
            for j in idx[bad].tolist():
                out.error[j] = DomainError("starting value gives a non-finite Lq-objective")
            retire(bad, 0, "")
        for it in range(1, max_iter + 1):
            if not idx.size:
                break
            step, pivot = _step(prob, w, q, newton)
            # theta_max is finite: a row with a NaN or infinite theta is out of the domain
            if max(theta_max) > THETA_OVERFLOW or np.count_nonzero(pivot):
                overflow = w.theta_max > THETA_OVERFLOW
                halt = overflow | (pivot > 0)
                singular = halt & ~overflow
                for j, k in zip(idx[singular].tolist(), pivot[singular].tolist()):
                    out.error[j] = SingularMatrixError(
                        f"weighted normal equations singular at iteration {it} "
                        f"(pivot {k}): likely separation or indeterminacy in the data",
                        pivot=k,
                    )
                step = step[~halt]
                retire(halt, it, np.where(
                    overflow[halt], "stopped: |theta| overflow points to separation/indeterminacy", ""))
                if not idx.size:
                    break
            trial = beta + step
            tw = _working(prob, _predictor(prob, trial), q)
            c = (tw.objective - w.objective).tolist()
            least = min(c)
            theta_max = tw.theta_max.tolist()
            # Every row is accepted where each change is finite and not negative (a NaN makes the
            # sum NaN), as each start is finite and above its merit floor, and in the domain.
            if not (0.0 <= least and sum(c) < inf and sum(theta_max) < inf):
                # tolerate ulp-level noise in the merit test
                floor = w.objective - 1e-12 * np.maximum(1.0, np.abs(w.objective))
                # halve the step of the rejected rows only
                pending = np.flatnonzero(~accepts(tw, floor))
                lam = 1.0
                for _ in range(STEP_HALVING_MAX):
                    if not pending.size:
                        break
                    lam *= 0.5
                    sub = prob.rows(pending)
                    t = beta[pending] + lam * step[pending]
                    sw = _working(sub, _predictor(sub, t), _rows(q, pending))
                    hit = accepts(sw, floor[pending])
                    trial[pending[hit]] = t[hit]
                    for f, g in zip(tw, sw):
                        if isinstance(f, np.ndarray):
                            f[pending[hit]] = g[hit]
                    pending = pending[~hit]
                if pending.size:
                    exhausted = np.zeros(idx.size, dtype=bool)
                    exhausted[pending] = True
                    trial, tw = trial[~exhausted], tw.rows(~exhausted)
                    retire(exhausted, it,
                           "stopped: step halving exhausted without improving the objective")
                    if not idx.size:
                        break
                least = min((tw.objective - w.objective).tolist())
                theta_max = tw.theta_max.tolist()
            if control.stop_rule == "objective":
                obj = tw.objective.tolist()
                # No row can stop where the least change over the largest scale reaches tol
                # (rounding is monotone; a negative change never does): ``done`` is then False.
                done = (least / (0.1 + max(max(obj), -min(obj))) < tol
                        and np.abs(tw.objective - w.objective) / (0.1 + np.abs(tw.objective)) < tol)
            else:
                coef_change = np.maximum.reduce(np.abs(trial - beta), axis=-1) / np.maximum(
                    1.0, np.maximum.reduce(np.abs(beta), axis=-1))
                done = (coef_change <= tol) & (
                    np.maximum.reduce(np.abs(tw.psi), axis=-1) <= tol * (1.0 + psi0_norm))
            beta, w = trial, tw
            out.trace[idx, it] = w.objective
            blowup = np.add.reduce(beta * beta, axis=-1) > blowup_sq
            ended = blowup if done is False else blowup | done
            if np.count_nonzero(ended):
                blown = blowup[ended]
                retire(ended, it, np.where(
                    blown, "stopped: coefficient blow-up points to separation/indeterminacy", ""),
                    converged=~blown)
    if idx.size:
        retire(np.ones(idx.size, dtype=bool), max_iter,
               f"no convergence within {max_iter} iterations")
    return out


def _fitted(prob, q, res):
    """The working point, ``A_n``, ``B_n`` and ``B_n^{-1}`` (the dense
    Cholesky of ``inv_spd``) of every row of the ``_irls`` outcome ``res``
    at its solution, not meaningful on rows with an error.  ``q`` is a
    float shared by every row or an (R, 1) column, as in ``_working``.

    Sets the error of a row without one to what ``fit_mlq`` raises on it,
    a SingularMatrixError where ``B_n`` is not positive definite or not
    finite: ``W J`` may overflow at a finite ``theta``, and the Cholesky
    factorization lets that through.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = _working(prob, _predictor(prob, res.beta), q)
        A, B = _matrices_ab(prob, w, q)
    Binv, pivot = _solve_spd_each(B, np.eye(B.shape[-1])[None])
    finite = np.isfinite(B).all(axis=(-2, -1))
    for r in np.flatnonzero(res.ok & ~(finite & (pivot == 0))).tolist():
        res.error[r] = _not_positive_definite(pivot[r]) if finite[r] else SingularMatrixError(
            "B_n is not finite: the weights W J overflowed")
    return w, A, B, Binv


def _start(base, control):
    """``(seed, warm, error)``: the start of every row of the stacked
    ``_Problem`` ``base`` at q < 1, and ``warm``, the q = 1 fit that gave
    it, or None.

    The start is the explicit ``control.init``, or the q = 1 fit from the
    classical start; ``error[r]`` is the error of a row whose classical
    normal equations are singular or whose q = 1 fit failed, and such a
    row's start is NaN.
    """
    R = len(base.y)
    if not isinstance(control.init, str):
        beta0 = np.asarray(control.init, dtype=float)
        if beta0.shape != (base.X.shape[-1],):
            raise UsageError("explicit init vector has the wrong length")
        return np.tile(beta0, (R, 1)), None, np.full(R, None, dtype=object)
    beta0, pivot = _classical_start(base)
    # _irls reads only the loop settings from the control
    warm = _irls(base, 1.0, beta0, control)
    error, singular = warm.error.copy(), pivot > 0
    error[singular] = [_not_positive_definite(k) for k in pivot[singular].tolist()]
    return np.where(np.equal(error, None)[:, None], warm.beta, np.nan), warm, error


def _fit(base, q, control, start=None):
    """Fit every row of the stacked ``_Problem`` ``base`` at q, a float or
    a descending (R, 1) column; returns ``(prob, res)``: the rows at their
    dispersion, and each row's ``_irls`` outcome, with ``res.error[r]``
    what ``fit_mlq`` raises on row r before it evaluates the solution.

    ``base`` is a ModelData's, or built from arrays whose responses the
    caller has checked (a study or envelope block, a constrained fit) but
    not their rank: a rank-deficient row fails at the classical start.
    Every row starts from ``start = (seed, warm, error)``, by default
    ``_start(base, control)``.  A row at q = 1 exactly (only a column's
    head row can be) takes a copy of its warm fit, so ``_profile`` never
    edits a shared start.  A row whose start failed keeps that error, and
    a profiled ``base`` is profiled.
    """
    seed, warm, error = _start(base, control) if start is None else start
    R = len(seed)
    head = 0 if warm is None or np.ravel(q)[0] != 1.0 else R if np.ndim(q) == 0 else 1
    if not head:
        res = _irls(base, q, seed, control)
    else:
        stages = [[f[:head] for f in warm]]
        if head < R:
            stages.append(_irls(base.rows(slice(head, R)), q[head:], seed[head:], control))
        res = _Irls(*map(np.concatenate, zip(*stages)))
    failed = ~np.equal(error, None)
    res.error[failed] = error[failed]
    return (_profile(base, q, res, control) if base.profile else base), res


def _fit_grid(data, qs, control):
    """Yield, in the order of the descending list ``qs``, the FitResult of
    ``fit_mlq(data, replace(control, q=q))`` at each q, or the LqglmError
    that it raises instead.

    ``_start`` runs once, and each block of at most ``BLOCK`` values is
    one ``_fit`` from it at an (R, 1) column of q, assembled by
    ``_results``.  So no value depends on the others, and each equals its
    ``fit_mlq`` byte for byte up to p = 16 columns, and within roundoff
    beyond, where the batched solves round their last block differently.
    """
    base = _problem(data, data.phi, y=data.y[None])
    seed, warm, error = _start(base, control)
    n = base.y.shape[-1]
    for k in range(0, len(qs), BLOCK):
        block = qs[k:k + BLOCK]
        R = len(block)
        prob = base._replace(y=np.broadcast_to(base.y, (R, n)), c=np.broadcast_to(base.c, (R, n)))
        # the start, broadcast to the block's rows (of warm, only a head row at q = 1 is read)
        start = (np.broadcast_to(seed, (R, seed.shape[1])), warm, np.broadcast_to(error, R))
        yield from _results(data, block, *_fit(prob, np.array(block, dtype=float)[:, None],
                                                control, start))


def _profile(prob, q, res, control):
    """Alternate beta | phi and phi | beta on each row until its dispersion
    settles, at most 25 rounds.

    ``prob`` is at phi = 1 and ``res`` holds the fits there, at a float q
    or an (R, 1) column.  ``res`` is updated in place with each row's last
    fit; a failed phi search sets the row's error.  Returns the problem at
    each row's final dispersion, an (R, 1) column.  Rows whose dispersion
    has settled leave the alternation.
    """
    phi = np.ones(len(prob.y))
    live = np.flatnonzero(res.ok)
    for _ in range(25):
        if not live.size:
            break
        sub, q_live = prob.rows(live), _rows(q, live)
        eta_q = calibrate(prob.link, _predictor(sub, res.beta[live]), q_live)
        phi_new, error = _profile_phi(sub, eta_q, q_live)
        res.error[live] = error
        ok = res.ok[live]
        refit = live[ok & ~(np.abs(np.log(phi_new / phi[live])) < 1e-8)]
        phi[live[ok]] = phi_new[ok]
        if not refit.size:
            break
        sub = _irls(prob.rows(refit).with_phi(phi[refit, None]), _rows(q, refit), res.beta[refit],
                    control)
        res.put(refit, sub)
        live = refit[sub.ok]
    return prob.with_phi(phi[:, None])


def _profile_objective(fam, y, yb, phi, q):
    """``_working``'s objective of each row at ``phi`` (R, 1), from ``yb = y theta - b``."""
    return np.add.reduce(_lq_terms(phi * yb + fam.c(y, phi), q), axis=-1)


def _profile_phi(prob, eta_q, q):
    """Profiled Lq-likelihood dispersion of each row at the predictors ``eta_q``.

    Each local maximum of a scan of ``t = log(phi)`` (``PHI_SCAN`` points
    spanning ``PHI_BRACKET`` either side of the moment estimate) is
    polished by Newton steps on the Gaussian score ``g(t) = sum_i U_i (1 -
    phi r_i^2) / 2``, kept by bisection between its scan neighbours
    (``rtsafe``, Numerical Recipes 9.4); the highest is the global maximum
    wherever the scan separates the peaks.  Each row stops on its own.
    q is a float or an (R, 1) column.  Returns ``(phi, error)``:
    ``error[r]`` is the BracketError (zero residuals, or the maximum
    within 1e-6 of the bracket edge) or EvaluationError (a scan value not
    finite) of row r, else None.
    """
    fam, y = prob.family, prob.y
    theta = prob.link.k(eta_q)
    b, mu, _ = fam.cumulants(theta)
    r2 = (y - mu) ** 2
    rss = np.add.reduce(r2, axis=-1)
    zero = rss <= 1e-300
    error = [BracketError("profiled dispersion diverges (zero residuals); no interior maximum")
             if z else None for z in zero.tolist()]
    rows = np.flatnonzero(~zero)
    phi0 = y.shape[-1] / rss[rows]
    lo, hi = np.log(phi0 / PHI_BRACKET), np.log(phi0 * PHI_BRACKET)
    # only phi varies along the scan: y*theta - b is formed once
    y, yb, r2, q = y[rows], (y * theta - b)[rows], r2[rows], _rows(q, rows)
    grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, PHI_SCAN)
    H = np.stack([_profile_objective(fam, y, yb, np.exp(t)[:, None], q) for t in grid.T], axis=-1)
    for i in np.flatnonzero(~np.isfinite(H).all(axis=-1)).tolist():
        probe = float(grid[i, np.argmin(np.isfinite(H[i]))])
        error[rows[i]] = EvaluationError(
            f"profiled Lq-likelihood not finite at log(phi) = {probe!r}", probe=probe)
        H[i] = np.nan
    # Newton from each local maximum of the scan (the first point of a
    # plateau) within its scan neighbours: a where g > 0, b where g <= 0
    edged = np.pad(H, ((0, 0), (1, 1)), constant_values=-np.inf)
    row, k = np.nonzero((H > edged[:, :-2]) & (H >= edged[:, 2:]))
    t, a, b = grid[row, k], grid[row, np.maximum(k - 1, 0)], grid[row, np.minimum(k + 1, PHI_SCAN - 1)]
    step, step_old = b - a, b - a
    live = np.arange(len(row))
    for _ in range(100):
        if not live.size:
            break
        tk = t[live]
        phi = np.exp(tk)[:, None]
        pr2 = phi * r2[row[live]]
        s = 1.0 - pr2
        qk = _rows(q, row[live])
        U = np.exp((0.5 * (1.0 - qk)) * (np.log(phi / (2.0 * np.pi)) - pr2))
        g = 0.5 * np.add.reduce(U * s, axis=-1)
        dg = np.add.reduce(U * ((0.25 * (1.0 - qk)) * s * s - 0.5 * pr2), axis=-1)
        a[live] = ak = np.where(g > 0, tk, a[live])
        b[live] = bk = np.where(g > 0, b[live], tk)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = tk - g / dg
        # bisect where a Newton step leaves the bracket or shrinks it slower than bisection
        bisect = ~((ak <= newton) & (newton <= bk)) | (np.abs(2.0 * g) > np.abs(step_old[live] * dg))
        step_old[live], step[live] = step[live], np.where(bisect, 0.5 * (bk - ak), newton - tk)
        t[live] = np.where(bisect, ak + 0.5 * (bk - ak), newton)
        # a row stops on a step below 1e-13 in log(phi), or on one that no longer moves it
        live = live[(np.abs(step[live]) >= 1e-13) & (t[live] != tk)]
    # each row keeps its highest maximum, the first of equal ones
    order = np.lexsort((-_profile_objective(fam, y[row], yb[row], np.exp(t)[:, None],
                                            _rows(q, row)), row))
    keep = order[np.diff(row[order], prepend=-1) != 0]
    row, t = row[keep], t[keep]
    for r, tr in zip(row.tolist(), t.tolist()):
        if tr - lo[r] < 1e-6 or hi[r] - tr < 1e-6:
            error[rows[r]] = BracketError(
                "profiled dispersion maximum sits on the bracket edge; the bracket "
                f"spans a factor {PHI_BRACKET:g} either side of the moment estimate")
    phi = np.full(len(rss), np.nan)
    phi[rows[row]] = np.exp(t)
    return phi, error


def fit_mlq(data, control=None):
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

    Returns
    -------
    FitResult
        With ``converged=False`` (result still populated) when the loop
        stopped on the iteration cap or a separation guard.
    """
    if control is None:
        control = FitControl()
    prob, res = _fit(_problem(data, data.phi, y=data.y[None]), control.q, control)
    fit = next(_results(data, [control.q], prob, res))
    if isinstance(fit, LqglmError):
        raise fit
    return fit


def _results(data, qs, prob, res):
    """Yield, in the order of ``qs``, the FitResult of each row of the
    fits ``(prob, res)`` of ``data`` at the q values ``qs``, one per row,
    or the LqglmError that ``fit_mlq`` raises on that row instead.

    The rows' solution working point, ``A_n``, ``B_n`` and ``B_n^{-1}``,
    the calibration and the calibrated working point are each formed once
    for the batch, at an (R, 1) column of q over the one design of
    ``data``; each row equals its fit evaluated alone.  One row (every
    ``fit_mlq``) keeps its float q, whose scalar paths skip the column's
    ``np.where`` passes.  The sandwich is formed as each result is
    yielded, so a caller that warns per row interleaves its warnings with
    those of an overflowed ``A_n`` as a loop of ``fit_mlq`` would.
    """
    q = qs[0] if len(qs) == 1 else np.array(qs, dtype=float)[:, None]
    w, A, B, Binv = _fitted(prob, q, res)
    rows = np.flatnonzero(res.ok)
    if not rows.size:
        yield from res.error
        return
    if rows.size < len(qs):
        # the calibration sees only the rows fit_mlq would return (a stack:
        # a single stage without an error has none to leave out)
        prob, q = prob.rows(rows), q[rows]
    eta_q = calibrate(data.link, w.eta[rows], q)
    at_eta_q = _working(prob, eta_q, q)
    phi = np.broadcast_to(np.ravel(prob.phi), rows.shape)
    psi_norm = np.maximum.reduce(np.abs(w.psi[rows]), axis=-1)
    k = 0
    for r, error in enumerate(res.error):
        if error is not None:
            yield error
            continue
        cov = Binv[r] @ A[r] @ Binv[r]
        trace = res.trace[r]
        yield FitResult(
            q=qs[r],
            beta_star=res.beta[r],
            beta_q=calibrate_coefficients(data.link, res.beta[r], qs[r]),
            eta_star=w.eta[r],
            eta_q=eta_q[k],
            weights=w.U[r],
            mu=at_eta_q.mu[k],
            mu_star=w.mu[r],
            A_n=A[r],
            B_n=B[r],
            cov=0.5 * (cov + cov.T),
            lq_value=float(at_eta_q.objective[k]),
            phi_hat=float(phi[k]),
            iterations=int(res.iterations[r]),
            converged=bool(res.converged[r]),
            psi_norm=float(psi_norm[k]),
            message=res.message[r],
            objective_trace=trace[~np.isnan(trace)].tolist(),
            data=data,
        )
        k += 1


def estimate_phi(data, beta_q, q):
    """Profiled Lq-likelihood estimate of a free dispersion.

    Maximizes ``H_n(phi) = sum_i l_q(f(y_i; k(x_i' beta_q), phi))`` over
    ``phi`` within a factor ``PHI_BRACKET`` either side of the moment
    estimate by a scan and Newton steps (``_profile_phi``), at its global
    maximum there.  ``beta_q`` is on the calibrated scale.

    Raises
    ------
    BracketError
        If no interior maximum exists in the bracket (e.g. zero residuals).
    EvaluationError
        If ``H_n`` is not finite at a scan point.
    """
    if data.family.phi_fixed is not None:
        raise UsageError(f"family '{data.family.name}' has fixed dispersion")
    eta_q = data.X @ np.asarray(beta_q, dtype=float)
    phi, error = _profile_phi(_problem(data, data.phi, y=data.y[None]), eta_q[None], q)
    if error[0] is not None:
        raise error[0]
    return float(phi[0])
