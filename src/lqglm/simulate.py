"""Contamination Monte Carlo harness.

Generates replicated datasets from a GLM (by default the three-covariate
Poisson log-link design with unit coefficients and U(0,1) covariates and no
intercept), multiplies a random fraction ``eps`` of responses by a factor
``nu``, fits the MLq estimator over a list of q values, and summarizes the
calibrated estimates by bias ``||mean(beta_hat - beta)||`` and the mean
per-coordinate interquartile range.

Replicates are embarrassingly parallel: each uses its own counter-based
random stream keyed by the replicate index, and blocks of replicates are
fitted as one batch in which no row depends on another, so reports are
byte-identical regardless of worker count.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .families import get_family, get_link
from .fit import FitControl, _classical_start, _fit_rows, _stack, calibrate_coefficients
from .model import ModelData
from .numerics import rng_stream

__all__ = ["SimDesign", "SimReport", "gen_dataset", "contaminate", "run_study"]

# Stream id reserved for the shared design matrix in fixed-X mode.
FIXED_X_STREAM = 2**63

# Replicates fitted together as one batch (and one task of a worker pool).
BLOCK = 64


@dataclass
class SimDesign:
    """Configuration of one contamination study cell."""

    n: int = 400
    eps: float = 0.05
    nu: float = 5.0
    reps: int = 1000
    q_list: tuple = (1.0, 0.97)
    beta_true: tuple = (1.0, 1.0, 1.0)
    seed: int = 0
    family: str = "poisson"
    link: str = "canonical"
    include_intercept: bool = False
    fixed_x: bool = False
    # heavily contaminated cells converge slowly at small q; the higher cap
    # lets every replicate reach its estimate instead of being excluded
    max_iter: int = 100
    tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.eps < 1.0:
            raise UsageError("eps must lie in [0, 1)")
        if self.nu <= 0.0:
            raise UsageError("nu must be positive")
        if self.reps < 1:
            raise UsageError("reps must be at least 1")
        if any(not 0.0 < q <= 1.0 for q in self.q_list):
            raise UsageError("q values must lie in (0, 1]")


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
        doc = {
            "schema": "lq-glm/1",
            "design": {
                "n": self.design.n, "eps": self.design.eps, "nu": self.design.nu,
                "reps": self.design.reps, "q_list": list(self.design.q_list),
                "beta_true": list(self.design.beta_true), "seed": self.design.seed,
                "family": self.design.family, "include_intercept": self.design.include_intercept,
                "fixed_x": self.design.fixed_x,
            },
            "rows": self.rows,
            "unreliable": self.unreliable,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _design_matrix(design, rng):
    p = len(design.beta_true) - (1 if design.include_intercept else 0)
    X = rng.uniform(size=(design.n, p))
    if design.include_intercept:
        X = np.column_stack([np.ones(design.n), X])
    return X


def _draw(design, rng, X=None):
    """Covariates (fresh U(0,1) draws unless ``X`` is given), then model
    responses; returns ``(X, y, family, link)``."""
    family = get_family(design.family)
    link = get_link(design.link)
    if X is None:
        X = _design_matrix(design, rng)
    theta = link.k(X @ np.asarray(design.beta_true, dtype=float))
    y = family.sample(rng, family.b_dot(theta), 1.0)
    return X, y, family, link


def gen_dataset(design, rng):
    """One dataset from the design: fresh U(0,1) covariates, model responses."""
    return ModelData(*_draw(design, rng), 1.0)


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
    indices, so contamination patterns are reproducible.  Every q-stage
    fits the whole block as one batch: q = 1 from the classical start,
    then the q < 1 values in descending order, each row warm-started from
    its last converged estimate.  A row's fits never depend on the other
    rows of its block.
    """
    datas = []
    for k in ks:
        rng = rng_stream(design.seed, k)
        X, y, family, link = _draw(design, rng, X_fixed)
        y, _ = contaminate(y, design.eps, design.nu, rng)
        datas.append(ModelData(X, y, family, link, 1.0))
    prob = _stack(datas, 1.0)
    control = FitControl(max_iter=design.max_iter, tol=design.tol)

    # a replicate whose q = 1 fit fails gets NaN at every q; its NaN start
    # makes every later fit fail at the start point
    start, _ = _classical_start(prob)
    beta, converged, ok = _fit_rows(prob, 1.0, start, control)
    start = np.where(ok[:, None], beta, np.nan)
    out = {1.0: np.where((ok & converged)[:, None], beta, np.nan)}
    for q in sorted(set(float(q) for q in design.q_list), reverse=True):
        if q == 1.0:
            continue
        beta, converged, ok = _fit_rows(prob, q, start, control)
        good = (ok & converged)[:, None]
        out[q] = np.where(good, calibrate_coefficients(prob.link, beta, q), np.nan)
        start = np.where(good, beta, start)
    return np.stack([out[float(q)] for q in design.q_list], axis=1)


def _replicates_star(args):
    return _replicates(*args)


def run_study(design, jobs=1):
    """Run the full study and summarize bias and IQR per q.

    Non-convergent replicates are excluded from the statistics and counted;
    a q whose non-convergence exceeds 10% of ``reps`` is flagged
    unreliable.  Replicates are fitted in blocks of ``BLOCK`` as batches,
    spread over ``jobs`` processes; identical designs (seed included)
    produce byte-identical reports for any ``jobs``.
    """
    t0 = time.perf_counter()
    X_fixed = _design_matrix(design, rng_stream(design.seed, FIXED_X_STREAM)) if design.fixed_x else None
    args = [(design, range(k, min(k + BLOCK, design.reps)), X_fixed)
            for k in range(0, design.reps, BLOCK)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            estimates = np.concatenate(list(pool.map(_replicates_star, args)))
    else:
        estimates = np.concatenate([_replicates(*a) for a in args])

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
            iqr = float(np.mean(np.percentile(Bg, 75, axis=0) - np.percentile(Bg, 25, axis=0)))
        rows.append({
            "q": float(q),
            "bias": bias,
            "iqr": iqr,
            "nonconverged": nonconv,
            "unreliable": nonconv > 0.10 * design.reps,
        })
    return SimReport(design=design, rows=rows, runtime_s=time.perf_counter() - t0)
