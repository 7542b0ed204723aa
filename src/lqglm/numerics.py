"""Numerical plumbing: SPD solves, reference distributions, and seeded
random streams.

Matrices are plain ``numpy.ndarray`` objects (row-major, finite entries);
random streams are ``numpy.random.Generator`` instances built on the
counter-based Philox engine so that per-replicate streams keyed by
``(seed, stream_id)`` are independent and order-insensitive.
"""

from functools import lru_cache
from math import isqrt
from operator import index

import numpy as np
from scipy.linalg import lapack
from scipy.special import chdtrc, ndtri

from .errors import DomainError, SingularMatrixError, UsageError

__all__ = [
    "solve_spd",
    "solve_spd_rows",
    "gram_cache",
    "weighted_gram",
    "unpack_band",
    "inv_spd",
    "chi_square_sf",
    "normal_quantile",
    "rng_stream",
]

# ``solve_spd`` rejects an asymmetry above this fraction of the largest entry.
SYM_TOL = 1e-10


def solve_spd(A, B):
    """Solve ``A X = B`` for symmetric positive-definite ``A`` by Cholesky.

    Parameters
    ----------
    A : array, shape (p, p)
        Symmetric (within ``SYM_TOL`` relative) positive-definite matrix.
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
    DomainError
        If ``A`` or ``B`` has a non-finite entry (an overflowed fit, say),
        which the symmetry check and the factorization let through.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    scale = np.max(np.abs(A)) if A.size else 0.0
    if not (np.isfinite(scale) and np.isfinite(B).all()):
        raise DomainError("matrix or right-hand side has non-finite entries")
    if scale > 0 and np.max(np.abs(A - A.T)) > SYM_TOL * scale:
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


def gram_cache(X):
    """What ``weighted_gram`` reads of the design ``X`` (..., n, p): its
    p(p+1)/2 column products ``x_j x_k`` (..., m, n) in lower band order."""
    Xt = np.ascontiguousarray(np.swapaxes(X, -1, -2))
    col, row, _ = _band_index(X.shape[-1])
    return np.take(Xt, row, axis=-2) * np.take(Xt, col, axis=-2)


def weighted_gram(cache, d):
    """The band of ``X' diag(d) X`` for the weights ``d`` (..., n) of every
    row, from ``cache = gram_cache(X)``.

    The band (..., p, p) is what ``solve_spd_rows`` solves with and
    ``unpack_band`` turns into the full matrices: the band of a stack of R
    symmetric p x p matrices is LAPACK's lower band storage of
    ``diag(A[0], ..., A[R-1])`` with ``kd = p - 1``, ``band[r, k, d] =
    A[r][k + d, k]``, so that ``band.reshape(R p, p).T`` is the (p, R p)
    Fortran-ordered array ``dpbsv`` reads.  Each row's entries are one
    matrix-vector product of the cache with its weights, so a row's band
    does not depend on the other rows, and the entries that couple one
    row's block to the next are exactly 0, whatever ``d``.
    """
    p = (isqrt(8 * cache.shape[-2] + 1) - 1) // 2
    values = (cache @ d[..., None])[..., 0]
    band = np.zeros(values.shape[:-1] + (p * p,))
    band[..., _band_index(p)[2]] = values
    return band.reshape(values.shape[:-1] + (p, p))


def unpack_band(band):
    """The symmetric matrices (..., p, p) whose lower triangles the band
    of ``weighted_gram`` holds."""
    p = band.shape[-1]
    col, row, slot = _band_index(p)
    values = band.reshape(band.shape[:-2] + (p * p,))[..., slot]
    out = np.empty(band.shape)
    out[..., row, col] = values
    out[..., col, row] = values
    return out


@lru_cache(maxsize=None)
def _band_index(p):
    """``(col, row, slot)`` of the lower band's p(p+1)/2 entries: entry
    ``(row, col) = (k + d, k)``, diagonal ``d`` within column ``k``, sits at
    flat position ``slot = k p + d`` of a (p, p) band block; every other
    slot couples to the next block.  The arrays are shared, so read-only."""
    col = np.repeat(np.arange(p), np.arange(p, 0, -1))
    diag = np.concatenate([np.arange(p - k) for k in range(p)])
    index = col, col + diag, col * p + diag
    for a in index:
        a.flags.writeable = False
    return index


def solve_spd_rows(band, B):
    """Solve ``A[r] x[r] = B[r]`` for a stack of symmetric matrices.

    ``band`` (R, p, p) holds the lower triangles of ``A`` as
    ``weighted_gram`` forms them, and ``B`` has shape ``(R, p)``.  One
    banded Cholesky factorization of the block-diagonal matrix
    ``diag(A[0], ..., A[R-1])`` gives every solve.  The blocks share no
    nonzero entry, so each row's factor is the one its own solve forms,
    but LAPACK's triangular solves may round a row of a batch differently
    from a batch of one: with OpenBLAS 0.3.30 the bits agree up to p = 16,
    and beyond it most rows of a 64-row batch differ in their last bits.
    Returns ``(x, pivot)``: ``pivot[r]`` is 0 where ``A[r]`` is positive
    definite and otherwise the 1-based index of its first non-positive
    Cholesky pivot, as ``solve_spd`` reports it; ``x[r]`` is NaN there.
    """
    R, p, _ = band.shape
    # dpbsv is dpbtrf then dpbtrs; it copies the band and the right-hand side
    _, x, info = lapack.dpbsv(band.reshape(R * p, p).T, B.reshape(R * p, 1), lower=1)
    if info == 0 and (R == 1 or np.isfinite(x).all()):
        return x.reshape(R, p), np.zeros(R, dtype=int)
    if R == 1:  # the dense factorization finds the failing pivot
        return _solve_spd_each(unpack_band(band), B)
    # A row whose factorization fails stops the band there, and a NaN in
    # one block reaches the next through the zero coupling entries: solve
    # each row as a batch of one.
    x, pivot = zip(*(solve_spd_rows(band[r:r + 1], B[r:r + 1]) for r in range(R)))
    return np.concatenate(x), np.concatenate(pivot)


def _solve_spd_each(A, B):
    """``solve_spd_rows`` by one dense Cholesky factorization per row.

    ``B`` may also hold ``m`` right-hand sides per row, ``(R, p, m)``; a
    ``B`` of one row is shared by every row.  Each row's result is
    bit-identical to ``solve_spd(A[r], B[r])``; the banded factorization
    orders its arithmetic differently.
    """
    x = np.full(A.shape[:1] + B.shape[1:], np.nan)
    pivot = np.zeros(len(A), dtype=int)
    for r in range(len(A)):
        factor, pivot[r] = lapack.dpotrf(A[r], lower=1)
        if pivot[r] == 0:
            x[r] = lapack.dpotrs(factor, B[0 if len(B) == 1 else r], lower=1)[0]
    return x, pivot


def inv_spd(A):
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    A = np.asarray(A, dtype=float)
    return solve_spd(A, np.eye(A.shape[0]))


def chi_square_sf(x, d):
    """Chi-square survival function P(X > x) with ``d`` degrees of freedom."""
    if d < 1 or int(d) != d:
        raise ValueError("degrees of freedom must be a positive integer")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("chi-square statistic must be nonnegative")
    out = chdtrc(int(d), x)
    return float(out) if out.ndim == 0 else out


def normal_quantile(p):
    """Standard normal quantile function, accurate to ~1e-15."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("probability must lie strictly in (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def _key_word(value, what):
    """``operator.index(value)``, a Python or numpy integer; UsageError
    otherwise, since a float would truncate onto another seed's stream."""
    try:
        return index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None


def rng_stream(seed, stream_id=0):
    """Independent random generator for ``(seed, stream_id)``.

    Built on the counter-based Philox engine: identical keys give identical
    draw sequences, distinct ``stream_id`` values give statistically
    independent streams, and construction order is irrelevant.  A stream is
    single-owner; spawn one per task instead of sharing.  ``seed`` and
    ``stream_id`` are the engine's 64-bit key words: a non-integer (see
    ``_key_word``) or a value outside [0, 2**64) raises UsageError.
    """
    seed, stream_id = _key_word(seed, "seed"), _key_word(stream_id, "stream id")
    if not (0 <= seed < 2**64 and 0 <= stream_id < 2**64):
        raise UsageError(
            f"seed and stream id must lie in [0, 2**64), got {seed!r} and {stream_id!r}")
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

