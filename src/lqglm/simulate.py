"""Contamination Monte Carlo harness.

Generates replicated datasets from the Poisson log-link design with
U(0,1) covariates and coefficients ``beta_true`` (an intercept only with
``include_intercept``), multiplies a random fraction ``eps`` of
responses by a factor ``nu``, fits the MLq estimator over a list of q
values, and summarizes the calibrated estimates by bias
``||mean(beta_hat - beta)||`` and the mean per-coordinate interquartile
range.  The q values are fitted in descending order with the warm starts
of a scoring path: the q = 1 fit from the classical start, then each q
from the replicate's last converged estimate (its q = 1 fit while it has
none).

Replicates are embarrassingly parallel: each uses its own counter-based
random stream keyed by the replicate index, and each block of replicates
is fitted as one batch, the same batch whatever the worker count, so
reports are byte-identical regardless of it.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, _integer, _real, _reals
from .families import CanonicalLink, Poisson
from .fit import BLOCK, FitControl, _fit, _fitted, _Problem, _start, calibrate_coefficients
from .numerics import rng_stream

__all__ = ["SimDesign", "SimReport", "contaminate", "run_study"]

# The schema tag of every JSON document the package writes.
SCHEMA = "lq-glm/1"

# The model every replicate is drawn from and fitted under.
POISSON = Poisson()

# Stream id reserved for the shared design matrix in fixed-X mode.
FIXED_X_STREAM = 2**63

# Loop settings of every fit.  Heavily contaminated cells converge slowly
# at small q; the higher cap lets every replicate reach its estimate
# instead of being excluded.
MAX_ITER = 100
TOL = 1e-8


@dataclass
class SimDesign:
    """Configuration of one cell of the Poisson contamination study."""

    n: int = 400
    eps: float = 0.05
    nu: float = 5.0
    reps: int = 1000
    q_list: tuple = (1.0, 0.97)
    beta_true: tuple = (1.0, 1.0, 1.0)
    seed: int = 0
    include_intercept: bool = False
    fixed_x: bool = False

    def __post_init__(self):
        self.n, self.reps = _integer(self.n, "n"), _integer(self.reps, "reps")
        self.seed = _integer(self.seed, "seed")
        # stored as Python floats, which the CSV and JSON reports write as such
        self.q_list = _reals(self.q_list, "q_list", "a q_list entry")
        self.beta_true = _reals(self.beta_true, "beta_true", "a beta_true entry")
        if not 0.0 <= _real(self.eps, "eps") < 1.0:
            raise UsageError("eps must lie in [0, 1)")
        if not (np.isfinite(_real(self.nu, "nu")) and self.nu > 0.0):
            raise UsageError(f"nu must be finite and positive, got {self.nu!r}")
        if self.reps < 1:
            raise UsageError("reps must be at least 1")
        if not self.n > len(self.beta_true) >= 1:
            raise UsageError(f"need n > p >= 1, got n={self.n}, p={len(self.beta_true)}")
        if not all(np.isfinite(self.beta_true)):
            raise UsageError("beta_true must be finite")
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must lie in [0, 2**64), got {self.seed!r}")
        if len(self.q_list) == 0:
            raise UsageError("q_list needs at least one q value")
        if any(not 0.0 < q <= 1.0 for q in self.q_list):
            raise UsageError("q values must lie in (0, 1]")
        self.eps, self.nu = float(self.eps), float(self.nu)
        self.include_intercept = _flag(self.include_intercept, "include_intercept")
        self.fixed_x = _flag(self.fixed_x, "fixed_x")


def _flag(value, what):
    """The ``bool`` of a Python or numpy boolean; UsageError otherwise,
    where any truthy value (``"no"`` included) would set the flag."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise UsageError(f"{what} must be a boolean, got {value!r}")


@dataclass
class SimReport:
    """Bias/IQR summary rows, one per q, plus bookkeeping."""

    design: SimDesign
    rows: list
    runtime_s: float
    unreliable: bool = field(init=False)

    def __post_init__(self):
        self.unreliable = any(r["unreliable"] for r in self.rows)

    def to_csv(self):
        lines = ["n,eps,nu,q,bias,iqr,nonconverged"]
        for r in self.rows:
            lines.append(
                f"{self.design.n},{self.design.eps!r},{self.design.nu!r},"
                f"{r['q']!r},{r['bias']!r},{r['iqr']!r},{r['nonconverged']}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        """Indented JSON led by ``"schema"``, then the other keys sorted."""
        design = {
            "n": self.design.n, "eps": self.design.eps, "nu": self.design.nu,
            "reps": self.design.reps, "q_list": list(self.design.q_list),
            "beta_true": list(self.design.beta_true), "seed": self.design.seed,
            "family": "poisson", "include_intercept": self.design.include_intercept,
            "fixed_x": self.design.fixed_x,
        }
        return json.dumps({"schema": SCHEMA, "design": dict(sorted(design.items())),
                           "rows": [dict(sorted(r.items())) for r in self.rows],
                           "unreliable": self.unreliable}, indent=2)


def _design_matrix(design, rng):
    p = len(design.beta_true) - (1 if design.include_intercept else 0)
    X = rng.uniform(size=(design.n, p))
    if design.include_intercept:
        X = np.column_stack([np.ones(design.n), X])
    return X


def _draw(design, rng, X=None):
    """Covariates (fresh U(0,1) draws unless ``X`` is given), then Poisson
    responses with means ``exp(X beta_true)``; returns ``(X, y)``."""
    if X is None:
        X = _design_matrix(design, rng)
    mu = POISSON.b_dot(X @ np.asarray(design.beta_true, dtype=float))
    return X, POISSON.sample(rng, mu, 1.0)


def contaminate(y, eps, nu, rng):
    """Multiply a random fraction ``eps`` of responses by ``nu``.

    Selects ``round(eps * n)`` distinct indices uniformly without
    replacement; products are rounded to keep integer-supported responses
    in their support.  Returns the modified copy and the indices.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    m = int(round(eps * n))
    idx = rng.choice(n, size=m, replace=False) if m > 0 else np.empty(0, dtype=int)
    out = y.copy()
    if m > 0:
        out[idx] = np.round(nu * out[idx])
    return out, idx


def _replicates(design, ks, X_fixed=None):
    """Fit all q values on a block of contaminated replicates.

    Returns the calibrated estimates, shape ``(len(ks), len(q_list), p)``
    (NaN on non-convergence).  Replicate k's stream drives, in order, the
    covariate draws (unless fixed), the responses, and the contamination
    indices, so contamination patterns are reproducible.  The replicates
    are drawn into one (R, n, p) design, or share the fixed (n, p) one,
    and one (R, n) response array, whose responses are checked once, and
    the block is fitted as one batch at each q, in descending order, by
    ``fit._fit``: the q = 1 fit from the classical start, then each q
    from the row's last converged estimate (its q = 1 fit while it has
    none).  A row's fits depend on the other rows only through the
    rounding of the batched solves beyond 16 columns (``solve_spd_rows``).
    A replicate whose design is rank deficient fails at the classical
    start and counts as non-converged at every q.
    """
    X, y = [], np.empty((len(ks), design.n))
    for i, k in enumerate(ks):
        rng = rng_stream(design.seed, k)
        X_k, y_k = _draw(design, rng, X_fixed)
        X.append(X_k)
        y[i] = contaminate(y_k, design.eps, design.nu, rng)[0]
    POISSON.validate_y(y)
    X = np.array(X) if X_fixed is None else X_fixed
    block = _Problem.build(POISSON, CanonicalLink(), X, y, 1.0)
    control = FitControl(max_iter=MAX_ITER, tol=TOL)
    seed, warm, error = _start(block, control)
    out = {}
    for q in sorted(set(float(q) for q in design.q_list), reverse=True):
        prob, res = _fit(block, q, control, (seed, warm, error))
        # the next q starts here, before _fitted's B_n verdicts: bench/reference.json pins these
        # scoring stopping points
        seed = np.where((res.ok & res.converged)[:, None], res.beta, seed)
        _fitted(prob, q, res)
        good = (res.ok & res.converged)[:, None]
        out[q] = np.where(good, calibrate_coefficients(prob.link, res.beta, q), np.nan)
    return np.stack([out[float(q)] for q in design.q_list], axis=1)


def run_study(design, jobs=1):
    """Run the full study and summarize bias and IQR per q.

    Non-convergent replicates are excluded from the statistics and counted;
    a q whose non-convergence exceeds 10% of ``reps`` is flagged
    unreliable.  Replicates are fitted in blocks of ``BLOCK`` as batches,
    spread over ``jobs`` processes, at most one per block (none is started
    for a single worker); identical designs (seed included) produce
    byte-identical reports for any ``jobs``.
    """
    if _integer(jobs, "jobs") < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs!r}")
    t0 = time.perf_counter()
    X_fixed = _design_matrix(design, rng_stream(design.seed, FIXED_X_STREAM)) if design.fixed_x else None
    blocks = [range(k, min(k + BLOCK, design.reps)) for k in range(0, design.reps, BLOCK)]
    args = ([design] * len(blocks), blocks, [X_fixed] * len(blocks))
    workers = min(jobs, len(blocks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            estimates = np.concatenate(list(pool.map(_replicates, *args)))
    else:
        estimates = np.concatenate(list(map(_replicates, *args)))

    beta_true = np.asarray(design.beta_true, dtype=float)
    rows = []
    for j, q in enumerate(design.q_list):
        B = estimates[:, j, :]
        good = ~np.any(np.isnan(B), axis=1)
        Bg = B[good]
        nonconv = int(design.reps - good.sum())
        if len(Bg) == 0:
            bias = iqr = float("nan")
        else:
            bias = float(np.linalg.norm(Bg.mean(axis=0) - beta_true))
            q25, q75 = np.percentile(Bg, [25, 75], axis=0)
            iqr = float(np.mean(q75 - q25))
        rows.append({
            "q": float(q),
            "bias": bias,
            "iqr": iqr,
            "nonconverged": nonconv,
            "unreliable": nonconv > 0.10 * design.reps,
        })
    return SimReport(design=design, rows=rows, runtime_s=time.perf_counter() - t0)
