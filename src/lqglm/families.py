"""Exponential-family primitives and theta-links.

Families are parameterized in natural form: the log-density of an
observation is ``phi * (y * theta - b(theta)) + c(y, phi)`` where ``b`` is
the cumulant function, ``theta`` the natural parameter, and ``phi > 0`` a
precision-type dispersion (``var(y) = b_ddot(theta) / phi``; for the
Gaussian, ``phi`` is the inverse variance).  The natural parameter space of
every shipped family (Bernoulli, Poisson, Gaussian) is the whole real line,
so "in the domain" means finite, and ``J_q`` below is defined at every
finite ``theta`` for every ``q`` in (0, 1].  The linear predictor ``eta``
maps to ``theta`` through a one-to-one differentiable theta-link ``k``; the
canonical link is the identity.

Also houses the order-q deformed logarithm, the normalizer
``jq(theta, q) = exp(-q b(theta) + b(q theta))`` that links power-weighted
expectations to escort-density expectations, the escort log-density itself,
and randomized quantile residuals.

All functions are pure; family and link objects are immutable and safe to
share across threads.
"""

import numpy as np
from scipy.special import expit, gammaln, ndtr, ndtri
from scipy.stats import poisson as _poisson

from .errors import DomainError

__all__ = [
    "Family",
    "Bernoulli",
    "Poisson",
    "Gaussian",
    "ThetaLink",
    "CanonicalLink",
    "PowerThetaLink",
    "get_family",
    "get_link",
    "deformed_log",
    "log_density",
    "jq",
    "escort_log_density",
    "escort_normalization",
    "quantile_residual_base",
]

# Treat |q - 1| below this as the q = 1 (logarithmic) branch.
Q_ONE_EPS = 1e-12
# A discrete escort sum stops at a term past the mean below this share of its total.
ESCORT_TAIL_TOL = 1e-15


class ThetaLink:
    """Theta-link ``theta = k(eta)``, its derivative ``k_dot`` and its inverse ``g``."""

    is_canonical = False

    def k(self, eta):
        raise NotImplementedError

    def k_dot(self, eta):
        raise NotImplementedError

    def g(self, theta):
        """Inverse of ``k``."""
        raise NotImplementedError


class CanonicalLink(ThetaLink):
    """Identity theta-link: the linear predictor is the natural parameter."""

    is_canonical = True

    def k(self, eta):
        return np.asarray(eta, dtype=float)

    def k_dot(self, eta):
        return np.ones_like(np.asarray(eta, dtype=float))

    def g(self, theta):
        return np.asarray(theta, dtype=float)


class PowerThetaLink(ThetaLink):
    """Odd-power theta-link ``k(u) = u**m``, a non-canonical reference link."""

    def __init__(self, exponent=3):
        if exponent % 2 != 1 or exponent < 1:
            raise ValueError("exponent must be a positive odd integer")
        self.m = int(exponent)

    def k(self, eta):
        return np.asarray(eta, dtype=float) ** self.m

    def k_dot(self, eta):
        return self.m * np.asarray(eta, dtype=float) ** (self.m - 1)

    def g(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.sign(theta) * np.abs(theta) ** (1.0 / self.m)


class Family:
    """Base class for natural exponential families.

    Subclasses define the cumulant ``b``, the cumulant and its two
    derivatives in one pass (``cumulants``, from which ``b_dot`` and
    ``b_ddot`` are taken), the normalizer ``c(y, phi)``, the CDF, sampling,
    and support checks.  The natural parameter ranges over the real line,
    so ``check_theta`` asks only that ``theta`` be finite; ``phi_fixed``
    is the dispersion value pinned by the family (``None`` when free).
    """

    name = "family"
    discrete = False
    phi_fixed = None

    def b(self, theta):
        raise NotImplementedError

    def cumulants(self, theta):
        """``(b, b_dot, b_ddot)`` at ``theta``, sharing work where the family can."""
        raise NotImplementedError

    def b_dot(self, theta):
        """Mean function: ``mu = b_dot(theta)``."""
        return self.cumulants(theta)[1]

    def b_ddot(self, theta):
        """Variance function ``V = b_ddot(theta)``."""
        return self.cumulants(theta)[2]

    def c(self, y, phi):
        raise NotImplementedError

    def cdf(self, y, mu, phi):
        raise NotImplementedError

    def sample(self, rng, mu, phi):
        """Draw responses with mean ``mu`` under dispersion ``phi``."""
        raise NotImplementedError

    def theta_from_mu(self, mu):
        """Inverse mean function (used for IRLS starting values)."""
        raise NotImplementedError

    def initial_mu(self, y):
        """Classical adjusted starting means for IRLS."""
        raise NotImplementedError

    def validate_y(self, y):
        """Raise DomainError if any response is outside the support."""
        raise NotImplementedError

    def saturated_log_density(self, y, phi):
        """Log-density at the saturated mean ``mu = y`` (limit where needed)."""
        raise NotImplementedError

    def check_theta(self, theta):
        """Raise DomainError unless every ``theta`` is finite."""
        if not np.all(np.isfinite(theta)):
            raise DomainError(f"natural parameter of family '{self.name}' is not finite")

    def resolve_phi(self, phi):
        """The dispersion to use: the pinned value, else ``phi`` checked
        positive (a float, or an array of per-row values)."""
        if self.phi_fixed is not None:
            return self.phi_fixed
        phi = float(phi) if np.ndim(phi) == 0 else np.asarray(phi, dtype=float)
        if not np.all(phi > 0):
            raise DomainError("dispersion phi must be positive", value=phi)
        return phi


class Bernoulli(Family):
    """Bernoulli family: ``b(theta) = log(1 + exp(theta))``, phi = 1."""

    name = "bernoulli"
    discrete = True
    phi_fixed = 1.0

    def b(self, theta):
        # log1p(exp(theta)) with the large-theta branch folded in
        return np.logaddexp(0.0, np.asarray(theta, dtype=float))

    def cumulants(self, theta):
        theta = np.asarray(theta, dtype=float)
        mu = expit(theta)
        return np.logaddexp(0.0, theta), mu, mu * expit(-theta)

    def c(self, y, phi):
        return np.zeros_like(np.asarray(y, dtype=float))

    def cdf(self, y, mu, phi):
        y = np.asarray(y, dtype=float)
        mu = np.asarray(mu, dtype=float)
        out = np.where(y < 0.0, 0.0, np.where(y < 1.0, 1.0 - mu, 1.0))
        return out

    def sample(self, rng, mu, phi):
        return rng.binomial(1, mu).astype(float)

    def theta_from_mu(self, mu):
        mu = np.asarray(mu, dtype=float)
        return np.log(mu / (1.0 - mu))

    def initial_mu(self, y):
        return (np.asarray(y, dtype=float) + 0.5) / 2.0

    def validate_y(self, y):
        y = np.asarray(y, dtype=float)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DomainError("Bernoulli responses must be 0 or 1")

    def saturated_log_density(self, y, phi):
        # density 1 at the degenerate saturated fit
        return np.zeros_like(np.asarray(y, dtype=float))


class Poisson(Family):
    """Poisson family: ``b(theta) = exp(theta)``, phi = 1."""

    name = "poisson"
    discrete = True
    phi_fixed = 1.0

    def b(self, theta):
        return np.exp(np.asarray(theta, dtype=float))

    def cumulants(self, theta):
        # b = b_dot = b_ddot: one array, three names
        e = np.exp(np.asarray(theta, dtype=float))
        return e, e, e

    def c(self, y, phi):
        return -gammaln(np.asarray(y, dtype=float) + 1.0)

    def cdf(self, y, mu, phi):
        return _poisson.cdf(np.asarray(y, dtype=float), np.asarray(mu, dtype=float))

    def sample(self, rng, mu, phi):
        return rng.poisson(mu).astype(float)

    def theta_from_mu(self, mu):
        mu = np.asarray(mu, dtype=float)
        if np.any(mu <= 0):
            raise DomainError("Poisson mean must be positive")
        return np.log(mu)

    def initial_mu(self, y):
        return np.asarray(y, dtype=float) + 0.1

    def validate_y(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise DomainError("Poisson responses must be nonnegative integers")

    def saturated_log_density(self, y, phi):
        # theta = log(y); f -> 1 in the y = 0 limit
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        pos = y > 0
        yp = y[pos]
        out[pos] = yp * np.log(yp) - yp - gammaln(yp + 1.0)
        return out


class Gaussian(Family):
    """Gaussian family: ``b(theta) = theta**2 / 2``; phi is the precision."""

    name = "gaussian"
    discrete = False

    def b(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta * theta

    def cumulants(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * theta * theta, theta, np.ones_like(theta)

    def c(self, y, phi):
        y = np.asarray(y, dtype=float)
        return -0.5 * phi * y * y + 0.5 * np.log(phi / (2.0 * np.pi))

    def cdf(self, y, mu, phi):
        y = np.asarray(y, dtype=float)
        mu = np.asarray(mu, dtype=float)
        return ndtr((y - mu) * np.sqrt(phi))

    def sample(self, rng, mu, phi):
        return rng.normal(mu, 1.0 / np.sqrt(phi))

    def theta_from_mu(self, mu):
        return np.asarray(mu, dtype=float)

    def initial_mu(self, y):
        return np.asarray(y, dtype=float)

    def validate_y(self, y):
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise DomainError("Gaussian responses must be finite")

    def saturated_log_density(self, y, phi):
        y = np.asarray(y, dtype=float)
        return np.full_like(y, 0.5 * np.log(phi / (2.0 * np.pi)))


_FAMILIES = {"bernoulli": Bernoulli, "poisson": Poisson, "gaussian": Gaussian}


def get_family(name):
    """Look up a shipped family by name."""
    if isinstance(name, Family):
        return name
    try:
        return _FAMILIES[name.lower()]()
    except (KeyError, AttributeError):
        raise ValueError(
            f"unknown family {name!r}; available: {sorted(_FAMILIES)}"
        ) from None


def get_link(name):
    """Look up a theta-link by name ('canonical' or 'power3')."""
    if isinstance(name, ThetaLink):
        return name
    key = name.lower()
    if key == "canonical":
        return CanonicalLink()
    if key.startswith("power"):
        return PowerThetaLink(int(key[5:] or 3))
    raise ValueError(f"unknown theta-link {name!r}")


def deformed_log(u, q):
    """Deformed logarithm of order q (the Box-Cox transform).

    ``(u**(1-q) - 1) / (1-q)`` for q != 1 and ``log(u)`` at q = 1; the
    logarithmic branch is taken for ``|q - 1| < 1e-12`` so the function is
    continuous in q.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise DomainError("deformed_log requires u > 0")
    if q <= 0.0:
        raise DomainError("deformed_log requires q > 0", value=q)
    out = _lq_terms(np.log(u), q)
    return float(out) if out.ndim == 0 else out


def _lq_terms(logf, q, a=None):
    """``l_q`` of a density given its logarithm (no argument checks).

    ``q`` is a float, or an array of per-row values (such as an (R, 1)
    column) that broadcasts against ``logf``; the logarithmic branch is
    taken where ``|q - 1| < Q_ONE_EPS``.  ``a`` is ``(1 - q) * logf`` when
    the caller has already formed it.
    """
    column = isinstance(q, np.ndarray)
    near = abs(q - 1.0) < Q_ONE_EPS
    if not column and near:
        return logf
    a = (1.0 - q) * logf if a is None else a
    if not column:
        return np.expm1(a) / (1.0 - q)
    return np.where(near, logf, np.expm1(a) / np.where(near, 1.0, 1.0 - q))


def log_density(family, y, theta, phi=None):
    """Natural-form log-density ``phi*(y*theta - b(theta)) + c(y, phi)``."""
    family = get_family(family)
    phi = family.resolve_phi(phi if phi is not None else 1.0)
    family.check_theta(theta)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = phi * (y * theta - family.b(theta)) + family.c(y, phi)
    return float(out) if out.ndim == 0 else out


def jq(family, theta, q):
    """Normalizer ``J_q(theta) = exp(-q b(theta) + b(q theta))``.

    The escort construction needs ``q theta`` in the natural parameter
    space; that space is the real line, so ``J_q`` is defined at every
    finite ``theta``.
    """
    family = get_family(family)
    if q <= 0.0:
        raise DomainError("jq requires q > 0", value=q)
    family.check_theta(theta)
    theta = np.asarray(theta, dtype=float)
    out = np.exp(-q * family.b(theta) + family.b(q * theta))
    return float(out) if out.ndim == 0 else out


def escort_log_density(family, y, theta, phi, q, r):
    """Log of the escort function of order ``(q, r)``.

    ``phi*(r*(1-q)+q)*(y*theta - b(theta)) + (r*(1-q)+1)*c(y, phi)``.
    At ``r = 1`` with ``q = 1`` (or any ``r`` with ``q = 1``) this reduces
    to the ordinary log-density.  The escort need not integrate to one for
    every family; see ``escort_normalization``.
    """
    family = get_family(family)
    if r < 0:
        raise DomainError("escort order r must be nonnegative", value=r)
    phi = family.resolve_phi(phi)
    family.check_theta(theta)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rho = r * (1.0 - q) + q
    out = phi * rho * (y * theta - family.b(theta)) + (r * (1.0 - q) + 1.0) * family.c(y, phi)
    return float(out) if out.ndim == 0 else out


def escort_normalization(family, theta, phi, q, r):
    """Total mass of the escort function over the family's support.

    The escort enters expectation identities as if it were a density; this
    check computes its actual mass so tests can assert the identities only
    where the mass is 1 and record the (family, theta, q, r) combinations
    where it is not.
    """
    family = get_family(family)
    phi = family.resolve_phi(phi)
    theta = float(theta)
    if family.name == "bernoulli":
        ys = np.array([0.0, 1.0])
        return float(np.sum(np.exp(escort_log_density(family, ys, theta, phi, q, r))))
    if family.discrete:
        total = 0.0
        y = 0
        while True:
            term = float(np.exp(escort_log_density(family, float(y), theta, phi, q, r)))
            total += term
            mu_scale = family.b_dot(theta)
            if y > 10 * (1 + mu_scale) and term < ESCORT_TAIL_TOL * max(total, 1.0):
                break
            y += 1
            if y > 100000:
                break
        return total
    from scipy.integrate import quad

    mu = float(family.b_dot(theta))
    sd = float(np.sqrt(family.b_ddot(theta) / phi))
    val, _ = quad(
        lambda u: np.exp(escort_log_density(family, u, theta, phi, q, r)),
        mu - 40 * sd,
        mu + 40 * sd,
        limit=200,
    )
    return float(val)


def quantile_residual_base(family, y, mu, phi=None, uniform_draw=None):
    """Quantile residuals of observations ``y`` with means ``mu``.

    Continuous families: ``Phi^{-1}(F(y; mu, phi))``.  Discrete families use
    the randomized convention ``Phi^{-1}(F(y-) + u * (F(y) - F(y-)))`` with
    the caller supplying the uniforms ``u`` so results are reproducible.

    Returns ``(residual, clamped)``, elementwise; ``clamped`` is True where
    the CDF value hit 0 or 1 exactly and was clamped to
    ``[1e-12, 1 - 1e-12]``.  Scalar inputs give a float and a bool.
    """
    family = get_family(family)
    phi = family.resolve_phi(phi if phi is not None else 1.0)
    y = np.asarray(y, dtype=float)
    if family.discrete:
        if uniform_draw is None:
            raise ValueError("discrete families need a uniform_draw in [0, 1]")
        f_hi = family.cdf(y, mu, phi)
        f_lo = family.cdf(y - 1.0, mu, phi)
        val = f_lo + np.asarray(uniform_draw, dtype=float) * (f_hi - f_lo)
    else:
        val = family.cdf(y, mu, phi)
    val = np.asarray(val, dtype=float)
    clamped = (val <= 0.0) | (val >= 1.0)
    r = ndtri(np.clip(val, 1e-12, 1.0 - 1e-12))
    if r.ndim == 0:
        return float(r), bool(clamped)
    return r, clamped
