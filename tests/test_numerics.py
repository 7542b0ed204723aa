import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from scipy.special import ndtr

from lqglm import (
    DomainError,
    SingularMatrixError,
    UsageError,
    chi_square_sf,
    inv_spd,
    normal_quantile,
    rng_stream,
    solve_spd,
)
from lqglm.numerics import (
    gram_cache,
    solve_spd_rows,
    unpack_band,
    weighted_gram,
)


class TestSolveSpd:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        assert_allclose(solve_spd(np.eye(3), b), b)

    def test_diagonal(self):
        assert_allclose(solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_spd_inverse(self):
        # residual-check oracle
        rng = rng_stream(5, 0)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + 5 * np.eye(5)
        Ainv = solve_spd(A, np.eye(5))
        assert np.max(np.abs(A @ Ainv - np.eye(5))) < 1e-8

    def test_roundtrip_many_sizes(self):
        for seed in range(100):
            rng = rng_stream(seed, 1)
            n = int(rng.integers(1, 11))
            M = rng.normal(size=(n, n))
            A = M @ M.T + n * np.eye(n)
            B = rng.normal(size=n)
            x = solve_spd(A, B)
            assert np.max(np.abs(A @ x - B)) <= 1e-8 * max(1.0, np.max(np.abs(B)))

    def test_singular_reports_pivot(self):
        A = np.diag([1.0, 0.0, 2.0])
        with pytest.raises(SingularMatrixError) as exc:
            solve_spd(A, np.ones(3))
        assert exc.value.pivot == 2

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(DomainError, match="^matrix is not symmetric within tolerance$"):
            solve_spd(A, np.ones(2))

    @pytest.mark.parametrize("A,B", [(np.eye(2), np.ones(3)), (np.eye(2), np.ones((3, 2))),
                                     (np.ones((2, 3)), np.ones(2)), (np.ones(2), np.ones(2)),
                                     (np.eye(2), np.ones((2, 1, 1)))],
                             ids=["B-long", "B-rows", "A-wide", "A-1-D", "B-3-D"])
    def test_mismatched_shapes_rejected(self, A, B):
        # a B of the wrong length once reached f2py's "failed to create array"
        message = f"^shapes {re.escape(str(A.shape))} of A and {re.escape(str(B.shape))} of B do not match$"
        with pytest.raises(UsageError, match=message):
            solve_spd(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # the symmetry check compares NaN as unequal and dpotrf reports no
        # error on it, so a NaN matrix used to give a NaN solution
        A = np.eye(2)
        A[1, 1] = bad
        for call in (lambda: solve_spd(A, np.ones(2)), lambda: inv_spd(A),
                     lambda: solve_spd(np.eye(2), np.array([1.0, bad]))):
            with pytest.raises(DomainError, match="non-finite"):
                call()


class TestSolveSpdRows:
    @staticmethod
    def _rows():
        rng = rng_stream(17, 0)
        A, B = [], []
        for _ in range(12):
            M = rng.normal(size=(3, 3))
            A.append(M @ M.T + 0.1 * np.eye(3))
            B.append(rng.normal(size=3))
        v = rng.normal(size=3)
        A[3] = np.outer(v, v)  # singular: pivot 2
        A[6] = np.outer(v, v) + 1e-14 * np.eye(3)  # nearly singular
        A[8] = np.full((3, 3), np.nan)  # non-finite
        B[10] = np.array([np.inf, 0.0, 1.0])
        return np.array(A), np.array(B)

    def test_rows_do_not_depend_on_the_batch(self):
        # a failing or non-finite row changes no other row's solution
        A, B = self._rows()
        band = _band_of(A)
        x, pivot = solve_spd_rows(band, B)
        for r in range(len(A)):
            x_r, pivot_r = solve_spd_rows(band[[r]], B[[r]])
            assert x[r].tobytes() == x_r[0].tobytes()
            assert pivot[r] == pivot_r[0]
        assert pivot[3] == 2 and np.isnan(x[3]).all()
        assert np.isnan(x[8]).all() and not np.isfinite(x[10]).all()

    def test_wide_rows_agree_with_their_own_solves(self):
        # at p = 30 LAPACK's triangular solves may round a row of a 64-row
        # batch differently from a batch of one (with OpenBLAS 0.3.30 most
        # rows differ in their last bits beyond p = 16): each row agrees with
        # its own solve to roundoff, not byte for byte
        rng = rng_stream(19, 0)
        X = rng.normal(size=(120, 30))
        band = weighted_gram(gram_cache(X), rng.uniform(0.5, 2.0, size=(64, 120)))
        B = rng.normal(size=(64, 30))
        x, pivot = solve_spd_rows(band, B)
        assert not pivot.any()
        for r in range(64):
            x_r = solve_spd_rows(band[[r]], B[[r]])[0][0]
            assert np.max(np.abs(x[r] - x_r)) <= 1e-13 * np.max(np.abs(x_r))

    def test_fallback_equals_row_by_row_solves(self):
        # on stacks with non-positive-definite, rank-one, zero and
        # non-finite rows, every row equals its own band solve, or, where
        # that fails, NaN at the pivot of its own band factorization
        rng = rng_stream(23, 0)
        failing = 0
        for _ in range(300):
            R, p = int(rng.integers(2, 12)), int(rng.integers(1, 6))
            M = rng.normal(size=(R, p, p + 2))
            A, B = M @ np.swapaxes(M, 1, 2), rng.normal(size=(R, p))
            for r, kind in enumerate(rng.integers(0, 12, size=R)):
                if kind == 0:
                    A[r] = -A[r]
                elif kind == 1:
                    A[r] = np.outer(M[r, :, 0], M[r, :, 0])
                elif kind == 2:
                    A[r] = 0.0
                elif kind == 3:
                    A[r, rng.integers(p), rng.integers(p)] = np.nan
                elif kind == 4:
                    B[r, rng.integers(p)] = rng.choice([np.nan, np.inf])
            band = _band_of(A)
            x, pivot = solve_spd_rows(band, B)
            failing += bool(pivot.any())
            for r in range(R):
                x_r, info = _band_solve_two_calls(band[[r]], B[[r]])
                if info:
                    x_r = np.full((1, p), np.nan)
                assert x[r].tobytes() == x_r[0].tobytes() and pivot[r] == info
        assert failing > 200

    def test_dense_inverses_match_inv_spd(self):
        from lqglm.numerics import _inverse_each

        A, _ = self._rows()
        inverse, pivot = _inverse_each(A[:4])
        for r in range(3):
            assert inverse[r].tobytes() == inv_spd(A[r]).tobytes()
        assert pivot.tolist() == [0, 0, 0, 2] and np.isnan(inverse[3]).all()


def _band_of(A):
    """LAPACK's lower band storage (kd = p - 1) of ``diag(A[0], ..., A[R-1])``
    for the stack ``A`` (R, p, p), written out entry by entry:
    ``band[r, k, d] = A[r][k + d, k]``, and 0 where ``k + d >= p``."""
    R, p, _ = A.shape
    band = np.zeros((R, p, p))
    for k in range(p):
        for d in range(p - k):
            band[:, k, d] = A[:, k + d, k]
    return band


def _band_solve_two_calls(band, B):
    """The band solve as LAPACK ``dpbtrf`` then ``dpbtrs``: the oracle of
    the one ``dpbsv`` call."""
    from scipy.linalg import lapack

    R, p, _ = band.shape
    factor, info = lapack.dpbtrf(band.reshape(R * p, p).T, lower=1)
    if info != 0:
        return None, info
    x, _ = lapack.dpbtrs(factor, B.reshape(R * p), lower=1)
    return x.reshape(R, p), 0


class TestBandSolve:
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_one_call_equals_factor_then_solve(self, p):
        rng = rng_stream(19, p)
        M = rng.normal(size=(40, p, p))
        A = M @ np.swapaxes(M, 1, 2) + 0.05 * np.eye(p)
        B = rng.normal(size=(40, p))
        for rows in (slice(0, 1), slice(0, 40)):
            x, pivot = solve_spd_rows(_band_of(A[rows]), B[rows])
            x_ref, info_ref = _band_solve_two_calls(_band_of(A[rows]), B[rows])
            assert info_ref == 0 and not pivot.any()
            assert x.tobytes() == x_ref.tobytes()
        # a block that is not positive definite stops the factorization at
        # its column, and only that row fails, at the same pivot
        v = rng.normal(size=p)
        A[17] = np.outer(v, v) - (v @ v + 0.5) * np.eye(p)
        x, pivot = solve_spd_rows(_band_of(A), B)
        x_ref, info_ref = _band_solve_two_calls(_band_of(A), B)
        assert x_ref is None and (info_ref - 1) // p == 17
        assert np.flatnonzero(pivot).tolist() == [17] and pivot[17] == info_ref - 17 * p
        assert np.isnan(x[17]).all() and np.isfinite(np.delete(x, 17, axis=0)).all()

    def test_rhs_is_not_overwritten(self):
        A, B = TestSolveSpdRows._rows()
        band = _band_of(A[:3])
        keep, keep_band = B[:3].copy(), band.copy()
        solve_spd_rows(band, B[:3])
        assert B[:3].tobytes() == keep.tobytes() and band.tobytes() == keep_band.tobytes()


class TestWeightedGram:
    """``weighted_gram``'s band of ``X' diag(d) X`` from the cached column
    products."""

    WIDTHS = [1, 2, 3, 4, 5, 6, 12]

    @staticmethod
    def _design(p, n, R, shared, seed=0):
        rng = rng_stream(31, seed * 100 + p)
        X = rng.normal(size=(n, p) if shared else (R, n, p))
        d = rng.uniform(0.0, 2.0, size=(R, n))
        d[:, ::5] = 0.0  # exact zeros
        return X, d

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    @pytest.mark.parametrize("p", WIDTHS)
    def test_equals_dense_product(self, p, shared):
        # entrywise within 1e-14 of the scale |X|' |d| |X| (n u < 1e-14 bounds
        # the rounding of either sum)
        X, d = self._design(p, 40, 3, shared)
        got = unpack_band(weighted_gram(gram_cache(X), d))
        Xs = np.broadcast_to(X, (3,) + X.shape[-2:])
        for r in range(3):
            want = Xs[r].T @ (d[r][:, None] * Xs[r])
            scale = np.abs(Xs[r]).T @ (d[r][:, None] * np.abs(Xs[r]))
            assert np.all(np.abs(got[r] - want) <= 1e-14 * scale), p
            assert np.array_equal(got[r], got[r].T)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_non_finite_weights_stay_in_their_row(self, p, shared):
        # the coupling slots (band[r, k, d] with k + d >= p) stay exactly 0,
        # so an inf or NaN weight leaves every other row's step byte-identical
        X, d = self._design(p, 30, 4, shared, seed=1)
        d[1, 3], d[2, 7] = np.inf, np.nan
        band = weighted_gram(gram_cache(X), d)
        k, diag = np.indices((p, p))
        assert np.all(band[:, k + diag >= p] == 0.0)
        B = rng_stream(31, 2).normal(size=(4, p))
        x, pivot = solve_spd_rows(band, B)
        for r in (0, 3):
            one = X if shared else X[[r]]
            x_r, _ = solve_spd_rows(weighted_gram(gram_cache(one), d[[r]]), B[[r]])
            assert x[r].tobytes() == x_r[0].tobytes() and pivot[r] == 0
        assert not np.isfinite(x[1:3]).all()

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
    @pytest.mark.parametrize("R", [1, 7, 64])
    @pytest.mark.parametrize("p", [2, 3, 12])
    def test_rows_equal_a_batch_of_one(self, p, R, shared):
        X, d = self._design(p, 50, R, shared, seed=2)
        band = weighted_gram(gram_cache(X), d)
        for r in range(R):
            one = X if shared else X[[r]]
            assert band[r].tobytes() == weighted_gram(gram_cache(one), d[[r]])[0].tobytes()

    @pytest.mark.parametrize("p", [1, 2, 4, 12])
    def test_band_round_trips(self, p):
        X, d = self._design(p, 20, 5, shared=False, seed=3)
        band = weighted_gram(gram_cache(X), d)
        A = unpack_band(band)
        assert _band_of(A).tobytes() == band.tobytes()
        assert unpack_band(_band_of(A)).tobytes() == A.tobytes()
        assert np.array_equal(A, np.swapaxes(A, -1, -2))

    def test_one_row_without_a_batch_axis(self):
        X, d = self._design(3, 20, 1, shared=True, seed=4)
        band = weighted_gram(gram_cache(X), d[0])
        assert band.shape == (3, 3)
        assert band.tobytes() == weighted_gram(gram_cache(X), d)[0].tobytes()

    def test_cache_holds_the_column_products(self):
        rng = rng_stream(31, 5)
        for p in (1, 3, 12):
            X = rng.normal(size=(4, 10, p))
            cache = gram_cache(X)
            assert cache.shape == (4, p * (p + 1) // 2, 10) and cache.flags.c_contiguous


class TestDistributions:
    def test_chi_square_sf_at_zero(self):
        for d in (1, 2, 5):
            assert chi_square_sf(0.0, d) == 1.0

    def test_chi_square_sf_matches_scipy_stats(self):
        from scipy.stats import chi2

        x = np.r_[np.linspace(0.0, 60.0, 1201), 1e-12, 0.3, 3.841459, 100.0, np.inf]
        for d in (1, 2, 3, 5, 10):
            assert chi_square_sf(x, d).tobytes() == chi2.sf(x, d).tobytes()
            for v in x[::97]:
                got = chi_square_sf(float(v), d)
                assert type(got) is float and got == float(chi2.sf(v, d))

    def test_normal_quantile_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_chi2_critical_value(self):
        # independent numeric-integration oracle for the chi2(1) tail
        pdf = lambda t: np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi * t)
        tail, _ = quad(pdf, 3.841459, np.inf)
        assert abs(chi_square_sf(3.841459, 1) - tail) < 1e-9
        assert abs(chi_square_sf(3.841459, 1) - 0.05) < 1e-6

    def test_quantile_cdf_roundtrip(self):
        x = np.linspace(-6.0, 6.0, 241)
        assert np.max(np.abs(normal_quantile(ndtr(x)) - x)) < 1e-8

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="^chi-square statistic must be nonnegative$"):
            chi_square_sf(-1.0, 1)
        for p in (0.0, 1.0, -0.5, np.nan):
            with pytest.raises(DomainError, match=r"^probability must lie strictly in \(0, 1\)$"):
                normal_quantile(p)
        for d in (0, -1, 1.5, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="^degrees of freedom must be a positive integer"):
                chi_square_sf(1.0, d)

    @pytest.mark.parametrize("d", [True, "1", None])
    def test_degrees_of_freedom_must_be_a_number(self, d):
        # True once passed as 1 and "1" ended in a bare TypeError
        with pytest.raises(UsageError, match=f"^degrees of freedom must be a real number, got {d!r}$"):
            chi_square_sf(1.0, d)

    def test_integral_float_degrees_of_freedom(self):
        for d in (1, 3):
            assert chi_square_sf(2.5, float(d)) == chi_square_sf(2.5, np.int64(d)) == chi_square_sf(2.5, d)


class TestRngStream:
    def test_reproducible(self):
        a = rng_stream(42, 3).uniform(size=10_000)
        b = rng_stream(42, 3).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_streams_differ_and_uncorrelated(self):
        a = rng_stream(42, 0).uniform(size=100_000)
        b = rng_stream(42, 1).uniform(size=100_000)
        assert not np.array_equal(a[:100], b[:100])
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_order_insensitive(self):
        late = rng_stream(9, 1000).normal(size=5)
        early = rng_stream(9, 1000).normal(size=5)
        assert np.array_equal(late, early)

    def test_key_words_outside_64_bits_are_refused(self):
        # numpy's OverflowError is not a package error: it ended CLI calls in a traceback
        from lqglm import UsageError

        message = r"seed and stream id must lie in \[0, 2\*\*64\), got {} and {}"
        for seed, stream in [(-1, 0), (2**64, 0), (0, -5), (3, 2**64)]:
            with pytest.raises(UsageError, match=message.format(seed, stream)):
                rng_stream(seed, stream)
        assert rng_stream(2**64 - 1, 2**64 - 1).integers(10) >= 0

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", None, True], ids=repr)
    def test_non_integer_key_words_are_refused(self, bad):
        # a float once truncated onto the stream of another seed, True was
        # seed or stream 1, and "3" or None ended in a bare TypeError
        from lqglm import UsageError

        with pytest.raises(UsageError, match=r"seed must be an integer, got "):
            rng_stream(bad, 0)
        with pytest.raises(UsageError, match=r"stream id must be an integer, got "):
            rng_stream(0, bad)

    def test_numpy_integers_are_key_words(self):
        want = rng_stream(3, 2).integers(1 << 62, size=4)
        got = rng_stream(np.uint64(3), np.int32(2)).integers(1 << 62, size=4)
        assert np.array_equal(got, want)
