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


def staged_fits(prob, qs, control, start=None):
    """The per-row reference of the library's staged fits: each row of the
    stacked ``_Problem`` ``prob`` fitted alone by one ``_irls`` per q of the
    descending ``qs`` under ``control``, profiled where ``prob`` is.
    Returns ``(prob, res)`` per q: the rows at their dispersion and their
    ``_Irls`` outcome.

    Row r starts from ``start[r]``, or without ``start`` from the warm
    start, the q = 1 fit from the row's classical start (solved for the
    batch), which is also its fit at q = 1; ``_irls`` reads only the loop
    settings of ``control``.  Each later q starts from the row's last
    converged solution, its start while it has none.  A row whose classical
    normal equations are singular, or whose q = 1 fit failed, keeps that
    error at every q.
    """
    from lqglm.fit import _Irls, _classical_start, _irls, _profile
    from lqglm.numerics import _not_positive_definite

    if start is None:
        beta0, pivot = _classical_start(prob)
    rows = []
    for r in range(len(prob.y)):
        row, warm, error, stages = prob.rows([r]), None, None, []
        if start is None:
            warm = _irls(row, 1.0, beta0[[r]], control)
            error = _not_positive_definite(int(pivot[r])) if pivot[r] else warm.error[0]
            seed = warm.beta if error is None else np.full_like(warm.beta, np.nan)
        else:
            seed = start[[r]]
        for q in qs:
            res = (_Irls(*(f.copy() for f in warm)) if warm is not None and q == 1.0
                   else _irls(row, q, seed, control))
            if error is not None:
                res.error[0] = error
            stages.append((_profile(row, q, res, control) if row.profile else row, res))
            if res.ok[0] and res.converged[0]:
                seed = res.beta
        rows.append(stages)
    return [(prob.with_phi(np.concatenate([p.phi for p, _ in stage])) if prob.profile else prob,
             _Irls(*map(np.concatenate, zip(*(res for _, res in stage)))))
            for stage in zip(*rows)]


def assert_same_irls(got, want):
    """Every field of two ``_Irls`` outcomes is equal, byte for byte."""
    for name, a, b in zip(got._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.dtype == object:
            assert list(map(repr, a)) == list(map(repr, b)), name
        else:
            assert a.tobytes() == b.tobytes(), name


def fit_result(data, prob, q, res):
    """The FitResult of the batch-of-one fit ``(prob, res)`` of ``data``
    at the float q, assembled alone, or its error raised."""
    from lqglm.fit import FitResult, _fitted, _working, calibrate, calibrate_coefficients

    w, B, cov = _fitted(prob, q, res)
    if res.error[0] is not None:
        raise res.error[0]
    eta_star = w.eta[0]
    eta_q = calibrate(data.link, eta_star, q)
    at_eta_q = _working(prob, eta_q[None], q)
    trace = res.trace[0]
    return FitResult(
        q=q,
        beta_star=res.beta[0],
        beta_q=calibrate_coefficients(data.link, res.beta[0], q),
        eta_star=eta_star,
        eta_q=eta_q,
        weights=w.U[0],
        mu=at_eta_q.mu[0],
        mu_star=w.mu[0],
        A_n=B[0] / (2.0 - q),
        B_n=B[0],
        cov=cov[0],
        lq_value=float(at_eta_q.objective[0]),
        phi_hat=float(np.ravel(prob.phi)[0]),
        iterations=int(res.iterations[0]),
        converged=bool(res.converged[0]),
        psi_norm=float(np.max(np.abs(w.psi[0]))),
        message=res.message[0],
        objective_trace=trace[~np.isnan(trace)].tolist(),
        data=data,
    )


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
