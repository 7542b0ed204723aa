"""Numerical plumbing: SPD solves, 1-d maximization, reference
distributions, and seeded random streams.

Matrices are plain ``numpy.ndarray`` objects (row-major, finite entries);
random streams are ``numpy.random.Generator`` instances built on the
counter-based Philox engine so that per-replicate streams keyed by
``(seed, stream_id)`` are independent and order-insensitive.
"""

import numpy as np
from scipy.linalg import lapack
from scipy.special import ndtr, ndtri
from scipy.stats import chi2

from .errors import BracketError, EvaluationError, SingularMatrixError

__all__ = [
    "solve_spd",
    "solve_spd_rows",
    "inv_spd",
    "maximize_1d",
    "chi_square_sf",
    "normal_quantile",
    "normal_cdf",
    "rng_stream",
]

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def solve_spd(A, B, sym_tol=1e-10):
    """Solve ``A X = B`` for symmetric positive-definite ``A`` by Cholesky.

    Parameters
    ----------
    A : array, shape (p, p)
        Symmetric (within ``sym_tol`` relative) positive-definite matrix.
    B : array, shape (p,) or (p, m)
        Right-hand side(s).

    Returns
    -------
    X : array, same shape as ``B``

    Raises
    ------
    SingularMatrixError
        If a Cholesky pivot is non-positive; ``pivot`` holds its 1-based
        index.  In IRLS this signals rank deficiency or weight collapse.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    scale = np.max(np.abs(A)) if A.size else 0.0
    if scale > 0 and np.max(np.abs(A - A.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise _not_positive_definite(info)
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    b2d = B if B.ndim == 2 else B[:, None]
    x, info = lapack.dpotrs(c, b2d, lower=1)
    if info != 0:
        raise ValueError(f"dpotrs failed with info={info}")
    return x if B.ndim == 2 else x[:, 0]


def _not_positive_definite(pivot):
    """The SingularMatrixError for a non-positive Cholesky pivot (1-based)."""
    return SingularMatrixError(
        f"Cholesky pivot {pivot} non-positive; matrix not positive definite",
        pivot=int(pivot),
    )


def solve_spd_rows(A, B):
    """Solve ``A[r] x[r] = B[r]`` for a stack of symmetric matrices.

    ``A`` has shape ``(R, p, p)`` and ``B`` shape ``(R, p)``.  One banded
    Cholesky factorization of the block-diagonal matrix
    ``diag(A[0], ..., A[R-1])`` gives every solve; the blocks share no
    nonzero entry, so each row's result does not depend on the others.
    Returns ``(x, pivot)``: ``pivot[r]`` is 0 where ``A[r]`` is positive
    definite and otherwise the 1-based index of its first non-positive
    Cholesky pivot, as ``solve_spd`` reports it; ``x[r]`` is NaN there.
    """
    R, p, _ = A.shape
    # lower band storage: band[d, r, k] = A[r, k + d, k]
    flat = A.reshape(R, p * p)
    band = np.zeros((p, R, p))
    for d in range(p):
        band[d, :, :p - d] = flat[:, d * p::p + 1]
    factor, info = lapack.dpbtrf(band.reshape(p, R * p), lower=1)
    if info == 0:
        x, _ = lapack.dpbtrs(factor, B.reshape(R * p), lower=1)
        return x.reshape(R, p), np.zeros(R, dtype=int)
    # the factorization stops at the first failing row: factor row by row
    x = np.full(B.shape, np.nan)
    pivot = np.zeros(R, dtype=int)
    for r in range(R):
        factor, pivot[r] = lapack.dpotrf(A[r], lower=1)
        if pivot[r] == 0:
            x[r] = lapack.dpotrs(factor, B[r], lower=1)[0]
    return x, pivot


def inv_spd(A):
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    A = np.asarray(A, dtype=float)
    return solve_spd(A, np.eye(A.shape[0]))


def maximize_1d(f, lo, hi, tol=1e-8, max_iter=500):
    """Golden-section maximization of a unimodal function on ``[lo, hi]``.

    Returns ``(argmax, value)`` with ``|argmax - optimum| <= tol`` for
    unimodal ``f``.  Unimodality is the caller's responsibility.

    Raises
    ------
    EvaluationError
        If ``f`` returns a non-finite value; ``probe`` holds the location.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")

    def ev(x):
        v = f(x)
        if not np.isfinite(v):
            raise EvaluationError(f"f({x!r}) is not finite", probe=x)
        return v

    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = ev(x1), ev(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = ev(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = ev(x1)
    xm = 0.5 * (a + b)
    return xm, ev(xm)


def chi_square_sf(x, d):
    """Chi-square survival function P(X > x) with ``d`` degrees of freedom."""
    if d < 1 or int(d) != d:
        raise ValueError("degrees of freedom must be a positive integer")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square statistic must be nonnegative")
    out = chi2.sf(x, int(d))
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


def normal_quantile(p):
    """Standard normal quantile function, accurate to ~1e-15."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probability must lie strictly in (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal cumulative distribution function."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def rng_stream(seed, stream_id=0):
    """Independent random generator for ``(seed, stream_id)``.

    Built on the counter-based Philox engine: identical keys give identical
    draw sequences, distinct ``stream_id`` values give statistically
    independent streams, and construction order is irrelevant.  A stream is
    single-owner; spawn one per task instead of sharing.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
