"""Model data container and fit configuration/result types."""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import SingularMatrixError, UsageError
from .families import CanonicalLink, Family, ThetaLink, get_family, get_link
from .numerics import solve_spd

__all__ = ["ModelData", "FitControl", "FitResult", "PROFILE"]

# Sentinel for a dispersion profiled out of the Lq-likelihood.
PROFILE = "profile"


class ModelData:
    """Design matrix, response, family, theta-link, and dispersion.

    ``X`` must have full column rank with ``n > p >= 1`` and every response
    must lie in the family's support.  Arrays are copied and frozen so a
    ModelData can be shared across threads.

    Parameters
    ----------
    X : array, shape (n, p)
    y : array, shape (n,)
    family : Family or str
    link : ThetaLink or str, default canonical
    phi : float or "profile"
        Dispersion; ignored (pinned) for Bernoulli/Poisson.  "profile"
        requests profiling of a free dispersion (Gaussian only).
    """

    def __init__(self, X, y, family, link=None, phi=1.0):
        X = np.array(X, dtype=float, copy=True)
        y = np.array(y, dtype=float, copy=True).ravel()
        if X.ndim != 2:
            raise UsageError("X must be two-dimensional")
        n, p = X.shape
        if not (n > p >= 1):
            raise UsageError(f"need n > p >= 1, got n={n}, p={p}")
        if y.shape[0] != n:
            raise UsageError("X and y have incompatible lengths")
        if not np.all(np.isfinite(X)):
            raise UsageError("X contains non-finite entries")
        self.family: Family = get_family(family)
        self.link: ThetaLink = get_link(link) if link is not None else CanonicalLink()
        self.family.validate_y(y)
        try:
            solve_spd(X.T @ X, np.zeros(p))
        except SingularMatrixError as e:
            raise UsageError(
                f"design matrix is rank deficient (Cholesky pivot {e.pivot})"
            ) from e
        if phi == PROFILE:
            if self.family.phi_fixed is not None:
                raise UsageError(
                    f"family '{self.family.name}' has fixed dispersion; "
                    "cannot profile"
                )
            self.phi: Union[float, str] = PROFILE
        else:
            self.phi = self.family.resolve_phi(phi)
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y
        self.n = n
        self.p = p

    def subset_columns(self, cols):
        """ModelData restricted to the given design columns (nested model)."""
        return ModelData(self.X[:, list(cols)], self.y, self.family, self.link, self.phi)


@dataclass(frozen=True)
class FitControl:
    """Tuning for the MLq IRLS loop.

    ``q`` is the distortion parameter in (0, 1] and ``max_iter`` the
    iteration cap, 0 or more (at 0 the fit stays at its start).
    ``stop_rule`` selects the convergence test, with the positive
    tolerance ``tol``: "objective" stops when the relative change in the
    Lq-objective falls below ``tol`` (the criterion classical GLM software
    uses; near indeterminacy the estimate depends on the stopping point,
    and this rule with the default cap matches established fits there);
    "coef-psi" additionally requires the relative coefficient change and
    the estimating-function sup-norm to fall below ``tol``.

    ``solver`` selects the matrix of each step.  "scoring" (Fisher
    scoring, the IRLS of classical GLM software) uses the expected
    sensitivity ``X' W J X`` and converges only linearly near
    indeterminacy; the reference fits of the paper are its stopping
    points.  "newton" uses the observed negative Hessian of the
    Lq-objective and converges quadratically; it applies to the canonical
    link only (other links keep scoring), and a row whose Hessian is not
    positive definite takes the scoring step for that iteration.  The
    q-grid of the selection rules defaults to "newton".
    """

    q: float = 1.0
    max_iter: int = 25
    tol: float = 1e-8
    init: Union[str, np.ndarray] = "ml-warm-start"
    stop_rule: str = "objective"
    solver: str = "scoring"

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise UsageError("q must lie in (0, 1]")
        if self.max_iter < 0:
            raise UsageError("max_iter must be non-negative")
        if not self.tol > 0.0:
            raise UsageError("tol must be positive")
        if self.stop_rule not in ("objective", "coef-psi"):
            raise UsageError("stop_rule must be 'objective' or 'coef-psi'")
        if self.solver not in ("scoring", "newton"):
            raise UsageError("solver must be 'scoring' or 'newton'")


@dataclass
class FitResult:
    """Everything the MLq fit produces.

    ``beta_star`` is the uncalibrated (surrogate-scale) solution of the
    estimating equation; ``beta_q`` the Fisher-consistent calibrated
    coefficients (``q * beta_star`` under the canonical link, ``None`` for
    non-affine links where only calibrated predictors are identifiable).
    ``eta_star``/``eta_q`` are the per-observation predictors on the two
    scales; ``mu`` holds the calibrated fitted means while ``mu_star`` (the
    means at the surrogate scale) is what the residual and influence
    machinery uses.  ``weights`` are the estimation weights
    ``U_i = f(y_i)^(1-q)`` at the surrogate solution.  ``A_n``/``B_n`` are
    the variability/sensitivity matrices evaluated at the surrogate
    solution and ``cov = B_n^{-1} A_n B_n^{-1}`` estimates the covariance
    of ``beta_q``; on a non-canonical link, where ``beta_q`` is None, it is
    q^2 times the closed-form sandwich covariance of ``beta_star`` (whose
    sensitivity is ``q B_n``).  ``lq_value`` is the Lq-objective at the
    calibrated predictors.
    """

    q: float
    beta_star: np.ndarray
    beta_q: Optional[np.ndarray]
    eta_star: np.ndarray
    eta_q: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    mu_star: np.ndarray
    A_n: np.ndarray
    B_n: np.ndarray
    cov: np.ndarray
    lq_value: float
    phi_hat: float
    iterations: int
    converged: bool
    psi_norm: float
    message: str = ""
    objective_trace: list = field(default_factory=list, repr=False)
    data: Optional[ModelData] = field(default=None, repr=False)

    @property
    def se(self):
        """Sandwich standard errors of the calibrated coefficients."""
        return np.sqrt(np.diag(self.cov))

    def check_same_problem(self, other, what="fits"):
        if abs(self.q - other.q) > 0:
            raise UsageError(f"{what} were computed at different q")
        if self.data is not None and other.data is not None:
            if self.data.y.shape != other.data.y.shape or not np.array_equal(
                self.data.y, other.data.y
            ):
                raise UsageError(f"{what} were computed on different data")
