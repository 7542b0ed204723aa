"""Distortion-parameter selection over a q-grid.

Two data-driven rules are provided: a stability rule based on the movement
of successive grid estimates, and an efficiency rule minimizing the trace
of the sandwich covariance.  Both fit the whole grid as one batch from the
q = 1 fit (see ``fit._fit_grid``), so that each grid fit is ``fit_mlq`` at
its q and no value depends on the others.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LqglmError, SelectionError, UsageError, _real, _reals
from .fit import FitControl, _fit_grid, _matrices_ab, _problem, _working
from .numerics import inv_spd

__all__ = [
    "QGrid",
    "QSelectResult",
    "fisher_information",
    "are",
    "select_q_stability",
    "select_q_efficiency",
]


# Every grid value is a fit; a grid beyond this size is a typo in q_min or
# step, and would otherwise allocate and fit until memory or patience runs out.
MAX_GRID = 10_000

# The SelectionError of a collapsed grid names this many dropped values.
SHOWN_DROPPED = 3


class QGrid:
    """Decreasing grid ``1 >= q_1 > q_2 > ... > q_m`` of distortion values.

    Without ``q_values`` the grid runs from 1 down to ``q_min`` in steps of
    ``step``; both must be finite, ``step`` positive, and the number of
    steps ``(1 - q_min) / step`` finite.  A grid has at most ``MAX_GRID``
    values.  ``rho_factor``, finite and nonnegative, scales the stability
    threshold ``rho = rho_factor * ||beta at q_m||``.
    """

    def __init__(self, q_values=None, q_min=0.70, step=0.01, rho_factor=0.05):
        if q_values is None:
            if not (np.isfinite(_real(q_min, "q_min")) and np.isfinite(_real(step, "step"))
                    and step > 0.0 and np.isfinite((1.0 - q_min) / step)):
                raise UsageError("grid needs a finite q_min, a positive step and a finite size")
            m = int(round((1.0 - q_min) / step))
            if m + 1 > MAX_GRID:
                raise UsageError(f"grid of {m + 1} values exceeds {MAX_GRID}; use a larger step")
            q_values = np.round(1.0 - step * np.arange(m + 1), 12)
        q_values = np.asarray(sorted(set(_reals(q_values, "q_values", "a grid value")), reverse=True))
        if not np.all((q_values > 0.0) & (q_values <= 1.0)):
            raise UsageError("grid values must lie in (0, 1]")
        if not 1 <= len(q_values) <= MAX_GRID:
            raise UsageError(f"grid has {len(q_values)} values; it needs 1 to {MAX_GRID}")
        if not (np.isfinite(_real(rho_factor, "rho_factor")) and rho_factor >= 0.0):
            raise UsageError(f"rho_factor must be finite and nonnegative, got {rho_factor!r}")
        self.q_values = q_values
        self.rho_factor = rho_factor


@dataclass
class QSelectResult:
    q_opt: float
    qv_profile: dict
    rho: float
    fits: dict
    method: str
    dropped: list = field(default_factory=list)


def fisher_information(data, fit):
    """Classical information ``phi X' W X`` at the calibrated predictors.

    This is the q = 1 sensitivity matrix ``B_n`` evaluated at the same
    fit, the reference against which the sandwich covariance is compared.
    """
    prob = _problem(data, fit.phi_hat)
    return _matrices_ab(prob, _working(prob, fit.eta_q, 1.0), 1.0)[1]


def are(fit):
    """Asymptotic relative efficiency ``tr(F_n^{-1}) / tr(cov)``.

    Compares the MLq sandwich covariance with the classical information at
    the calibrated fit, on the data the fit carries; equals 1 at q = 1.
    """
    if fit.data is None:
        raise UsageError("fit does not carry its data")
    F = fisher_information(fit.data, fit)
    return float(np.trace(inv_spd(F)) / np.trace(fit.cov))


def _coefs(data, fit):
    """The calibrated coefficients on the canonical link.  Any other link
    has them at q = 1 only, so every grid value is compared by its
    calibrated predictors scaled by ``1 / sqrt(n)``."""
    return fit.beta_q if data.link.is_canonical else fit.eta_q / np.sqrt(data.n)


_GRID_CONTROL = FitControl(max_iter=100, solver="newton")


def _grid_fits(data, grid, control, need=3):
    """The fit at each grid value; non-convergent q's are dropped.

    Each fit is ``fit_mlq(data, replace(control, q=q))`` from the warm
    start, whatever ``control.init`` says, and ``fit._fit_grid`` fits them
    all as one batch from the one q = 1 fit.  ``control`` defaults to
    Newton steps with a higher iteration cap than single fits.  The
    selection rules need every grid point converged, not the stopping
    point of a capped loop, and near indeterminacy scoring converges only
    linearly: on vaso the 0.70:0.01 grid's batch takes 9 Newton
    iterations, while the default 25 scoring iterations leave 10 of its
    31 values unconverged.
    Raises SelectionError when fewer than ``need`` fits converge.
    """
    ctl = replace(control if control is not None else _GRID_CONTROL, init="ml-warm-start")
    fits, dropped = {}, {}
    qs = [float(q) for q in grid.q_values]
    for q, fit in zip(qs, _fit_grid(data, qs, ctl)):
        if isinstance(fit, LqglmError):  # singular weights etc.: treat as non-convergent
            warnings.warn(f"grid fit at q={q:.4g} failed: {fit}", stacklevel=3)
            dropped[q] = str(fit)
        elif not fit.converged:
            warnings.warn(
                f"grid fit at q={q:.4g} did not converge ({fit.message}); dropped",
                stacklevel=3,
            )
            dropped[q] = fit.message
        else:
            fits[q] = fit
    if len(fits) < need:
        raise SelectionError(_too_few(len(fits), need, dropped))
    return fits, list(dropped)


def _too_few(converged, need, dropped):
    """The message of a grid with fewer than ``need`` converged fits:
    the first ``SHOWN_DROPPED`` dropped values with their reasons, and the
    number of the others."""
    reasons = [f"q={q:.4g}: {why}" for q, why in list(dropped.items())[:SHOWN_DROPPED]]
    if len(dropped) > SHOWN_DROPPED:
        reasons.append(f"{len(dropped) - SHOWN_DROPPED} more")
    return (f"only {converged} grid fits converged; selection needs at least {need}"
            + (f" (dropped {'; '.join(reasons)})" if reasons else ""))


def select_q_stability(data, grid=None, control=None):
    """Stability selection of the distortion parameter.

    Fits every grid value and computes the movement
    ``QV_j = ||beta_{q_j} - beta_{q_{j+1}}||`` of consecutive (calibrated)
    estimates, with threshold ``rho = rho_factor * ||beta at q_m||``.  The
    selected value is the largest q whose movement still reaches ``rho``,
    i.e. the onset of the stable plateau when approaching q = 1; when the
    whole path is stable (no movement reaches ``rho``, the uncontaminated
    case) the largest grid value is returned.
    """
    grid = grid if grid is not None else QGrid()
    fits, dropped = _grid_fits(data, grid, control)
    qs = sorted(fits, reverse=True)
    coefs = [_coefs(data, fits[q]) for q in qs]
    qv = {qs[j]: float(np.linalg.norm(coefs[j] - coefs[j + 1])) for j in range(len(qs) - 1)}
    rho = grid.rho_factor * float(np.linalg.norm(coefs[-1]))
    moving = [q for q, v in qv.items() if v >= rho]
    q_opt = max(moving) if moving else qs[0]
    return QSelectResult(
        q_opt=float(q_opt),
        qv_profile=qv,
        rho=float(rho),
        fits={q: _summary(f) for q, f in fits.items()},
        method="stability",
        dropped=dropped,
    )


def select_q_efficiency(data, grid=None, control=None):
    """Efficiency selection: minimize the trace of the sandwich covariance.

    Needs ``min(3, len(grid))`` converged grid fits, where the stability
    rule needs 3.  Ties break toward larger q.
    """
    grid = grid if grid is not None else QGrid()
    fits, dropped = _grid_fits(data, grid, control, min(3, len(grid.q_values)))
    traces = {q: float(np.trace(f.cov)) for q, f in fits.items()}
    best = min(traces.values())
    # relative to |best|, so that a negative (roundoff) best is its own tie
    q_opt = max(q for q, t in traces.items() if t <= best + 1e-12 * abs(best))
    return QSelectResult(
        q_opt=float(q_opt),
        qv_profile=traces,
        rho=0.0,
        fits={q: _summary(f) for q, f in fits.items()},
        method="efficiency",
        dropped=dropped,
    )


def _summary(fit):
    return {
        "beta_q": None if fit.beta_q is None else fit.beta_q.tolist(),
        "se": fit.se.tolist(),
        "trace_cov": float(np.trace(fit.cov)),
        "lq_value": fit.lq_value,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
