import numpy as np
import pytest
from scipy.integrate import quad

from lqglm import FitControl, ModelData, PowerThetaLink, fit_mlq, get_family, rng_stream
from lqglm.datasets import vaso_model_data
from lqglm.fit import _Problem


def stack(datas):
    """The fit problem of ModelData sharing a family, link and dispersion
    setting, with their designs stacked on a leading batch axis."""
    return _Problem.build(datas[0].family, datas[0].link, np.array([d.X for d in datas]),
                          np.array([d.y for d in datas]), datas[0].phi)


def escort(family, theta, phi, q, r, y=None):
    """The escort function of order ``(q, r)`` of ``family`` at ``theta``
    (Ferrari & Yang 2010, Ann. Statist. 38:753-783): its log at ``y``, or,
    with ``y`` None, its total mass over the family's support.

    The log is ``phi*(r*(1-q)+q)*(y*theta - b(theta)) + (r*(1-q)+1)*c(y,
    phi)``, the log-density at ``q = 1``.  The closed forms of ``A_n`` and
    ``B_n`` treat the escort as a density, but its mass is 1 only for the
    carrier-free Bernoulli at ``r = 1`` (README "Known limitations"); so
    the premise tests assert an expectation identity only where the mass
    is 1 and record the other combinations.  A discrete sum stops at a
    term past ten times the mean below 1e-15 of its total.
    """
    family = get_family(family)
    phi = family.resolve_phi(phi)

    def log_escort(y):
        y = np.asarray(y, dtype=float)
        return (phi * (r * (1.0 - q) + q) * (y * theta - family.b(theta))
                + (r * (1.0 - q) + 1.0) * family.c(y, phi))

    if y is not None:
        return log_escort(y)
    if family.name == "bernoulli":
        return float(np.sum(np.exp(log_escort([0.0, 1.0]))))
    if family.discrete:
        total, mean = 0.0, float(family.b_dot(theta))
        for k in range(100_001):
            term = float(np.exp(log_escort(float(k))))
            total += term
            if k > 10 * (1 + mean) and term < 1e-15 * max(total, 1.0):
                break
        return total
    mu, sd = float(family.b_dot(theta)), float(np.sqrt(family.b_ddot(theta) / phi))
    return quad(lambda u: np.exp(log_escort(u)), mu - 40 * sd, mu + 40 * sd, limit=200)[0]


@pytest.fixture(scope="session")
def vaso():
    return vaso_model_data()


@pytest.fixture(scope="session")
def vaso_ml(vaso):
    return fit_mlq(vaso, FitControl(q=1.0))


@pytest.fixture(scope="session")
def vaso_79(vaso):
    return fit_mlq(vaso, FitControl(q=0.79))


@pytest.fixture(scope="session")
def poisson_example():
    """Fixed-seed Poisson dataset from the simulation design (n=100)."""
    rng = rng_stream(3, 0)
    X = rng.uniform(size=(100, 3))
    y = rng.poisson(np.exp(X @ np.ones(3))).astype(float)
    return ModelData(X, y, "poisson")


@pytest.fixture(scope="session")
def gaussian_example():
    """Fixed-seed Gaussian dataset with unit dispersion."""
    rng = rng_stream(11, 0)
    X = np.column_stack([np.ones(60), rng.uniform(-1, 1, size=60)])
    y = rng.normal(X @ np.array([0.5, 1.0]), 1.0)
    return ModelData(X, y, "gaussian", phi=1.0)


@pytest.fixture(scope="session")
def gaussian_power3():
    """Fixed-seed Gaussian dataset on the non-canonical power-3 theta-link."""
    rng = rng_stream(55, 0)
    X = np.column_stack([np.ones(80), rng.uniform(0.2, 1.0, size=80)])
    link = PowerThetaLink(3)
    y = rng.normal(link.k(X @ np.array([0.8, 0.5])), 1.0)
    return ModelData(X, y, "gaussian", link=link, phi=1.0)


@pytest.fixture
def summation_orders(monkeypatch):
    """A generator function that runs its loop body once with ``X' diag(d)
    X`` summed over the observations in their order, then once summed in
    reverse order.

    A fit whose ``B_n`` or normal equations fail at a Cholesky pivot at
    roundoff is degenerate: its weights ``W J`` span 20 or more orders of
    magnitude, so that its ``X' W J X`` is singular to roundoff and its
    verdict could move with the summation order (ROADMAP item 7 lists
    designs whose verdict did).  An exactly zero pivot is out of reach:
    ModelData refuses a rank-deficient design, and ``W J`` is positive at
    every finite ``theta`` short of underflow beyond the theta guard.  So
    the designs of such verdicts are chosen to keep them under both
    orders, and the tests check both.
    """
    from lqglm import fit, numerics

    def orders():
        yield "forward"
        with monkeypatch.context() as m:
            m.setattr(fit, "weighted_gram",
                      lambda cache, d: numerics.weighted_gram(cache[..., ::-1], d[..., ::-1]))
            yield "reversed"

    return orders


@pytest.fixture(scope="session")
def small_profiled():
    """Profiled Gaussian data at n = 6, with the calibrated means and the
    dispersion of its q = 0.5 fit as the golden-section dispersion search
    recorded them.  Envelope-style replicates are drawn from these recorded
    values, so that their data do not move with the dispersion solver."""
    rng = rng_stream(203, 6)
    X = np.column_stack([np.ones(6), rng.uniform(-1, 1, size=6)])
    data = ModelData(X, rng.normal(X @ np.array([0.5, 1.0]), 0.5), "gaussian", phi="profile")
    mu = np.array([0.4594087261898939, 0.7631384318316334, 0.336748448245198,
                   -0.0781044472453798, 1.042212024998529, -0.21768592477705268])
    return data, mu, 2.008977817897735
