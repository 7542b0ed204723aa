import json
from dataclasses import replace

import numpy as np
import pytest

from lqglm import (
    LqglmError,
    ModelData,
    SimDesign,
    UsageError,
    contaminate,
    rng_stream,
    run_study,
)
from lqglm import simulate
from lqglm.fit import BLOCK
from lqglm.simulate import _draw, _replicates
from conftest import fit_result, stack, staged_fits


class TestGenDataset:
    def test_zero_coefficients_give_unit_means(self):
        design = SimDesign(n=20000, beta_true=(0.0, 0.0, 0.0), seed=1)
        _, y = _draw(design, rng_stream(1, 0))
        se = y.std(ddof=1) / np.sqrt(design.n)
        assert abs(y.mean() - 1.0) < 4 * se

    def test_mean_of_mu_matches_analytic_moment(self):
        # E exp(x1 + x2 + x3) = (e - 1)^3 for iid U(0,1) covariates
        design = SimDesign(n=400, seed=7)
        X, _ = _draw(design, rng_stream(7, 0))
        mu = np.exp(X @ np.ones(3))
        target = (np.e - 1.0) ** 3
        se = mu.std(ddof=1) / np.sqrt(design.n)
        assert abs(mu.mean() - target) < 4 * se

    def test_reproducible(self):
        design = SimDesign(n=50, seed=3)
        a = _draw(design, rng_stream(3, 5))
        b = _draw(design, rng_stream(3, 5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestContaminate:
    def test_eps_zero_identity(self):
        y = np.arange(10.0)
        out, idx = contaminate(y, 0.0, 5.0, rng_stream(1, 0))
        assert np.array_equal(out, y) and len(idx) == 0

    def test_nu_one_keeps_values(self):
        y = np.arange(10.0)
        out, idx = contaminate(y, 0.3, 1.0, rng_stream(1, 0))
        assert np.array_equal(out, y)
        assert len(idx) == 3

    def test_index_count_contract(self):
        y = np.ones(100)
        _, idx = contaminate(y, 0.10, 5.0, rng_stream(2, 0))
        assert len(idx) == 10
        assert len(np.unique(idx)) == 10

    def test_integer_support_preserved(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        out, _ = contaminate(y, 0.9, 2.5, rng_stream(3, 0))
        assert np.array_equal(out, np.round(out))


class TestRunStudy:
    def test_smoke_and_schema(self):
        design = SimDesign(n=100, eps=0.05, nu=5.0, reps=30, q_list=(1.0, 0.97), seed=11)
        report = run_study(design)
        assert len(report.rows) == 2
        for row in report.rows:
            assert set(row) == {"q", "bias", "iqr", "nonconverged", "unreliable"}
            assert row["bias"] >= 0 and row["iqr"] >= 0
        csv = report.to_csv()
        assert csv.splitlines()[0] == "n,eps,nu,q,bias,iqr,nonconverged"
        assert len(csv.splitlines()) == 3

    def test_clean_data_bias_vanishes_at_q1(self):
        design = SimDesign(n=400, eps=0.0, nu=1.0, reps=50, q_list=(1.0,), seed=21)
        report = run_study(design)
        assert report.rows[0]["bias"] <= 0.05

    def test_deterministic_across_jobs(self):
        design = SimDesign(n=80, eps=0.10, nu=2.0, reps=24, q_list=(1.0, 0.95), seed=31)
        a = run_study(design, jobs=1)
        b = run_study(design, jobs=2)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_repeat_run_byte_identical(self):
        design = SimDesign(n=60, eps=0.05, nu=5.0, reps=20, q_list=(1.0, 0.97), seed=41)
        assert run_study(design).to_csv() == run_study(design).to_csv()

    def test_fixed_x_shares_design(self):
        design = SimDesign(n=50, eps=0.0, nu=1.0, reps=3, q_list=(1.0,), seed=51, fixed_x=True)
        report = run_study(design)
        assert report.rows[0]["nonconverged"] == 0

    def test_validation(self):
        with pytest.raises(UsageError):
            SimDesign(eps=1.0)
        with pytest.raises(UsageError):
            SimDesign(q_list=(1.5,))
        # refused when the design is made, not by a replicate's ModelData
        with pytest.raises(UsageError, match="need n > p >= 1"):
            SimDesign(n=3, beta_true=(1.0, 1.0, 1.0))
        with pytest.raises(UsageError, match="need n > p >= 1"):
            SimDesign(beta_true=())
        # each was refused only by a replicate, or never
        with pytest.raises(UsageError, match="at least one q"):
            SimDesign(q_list=())
        for nu in (float("inf"), float("nan")):
            with pytest.raises(UsageError, match="nu must be finite"):
                SimDesign(nu=nu)
        for b in (float("inf"), float("nan")):
            with pytest.raises(UsageError, match="beta_true must be finite"):
                SimDesign(beta_true=(1.0, b, 1.0))
        for seed in (-5, 2**64):
            with pytest.raises(UsageError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
                SimDesign(seed=seed)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3", None, True], ids=repr)
    def test_non_integer_seed_refused(self, bad):
        # 1.5 and True once gave seed 1's report byte for byte
        with pytest.raises(UsageError, match="seed must be an integer, got "):
            SimDesign(seed=bad)

    def test_numpy_integer_seed_is_the_integer(self):
        design = SimDesign(n=20, reps=2, q_list=(1.0,), seed=np.int64(4))
        assert type(design.seed) is int and design.seed == 4
        assert json.loads(run_study(design).to_json())["design"]["seed"] == 4

    @pytest.mark.parametrize("field", ["n", "reps"])
    def test_non_integer_count_refused(self, field):
        # 50.5 and 2.5 once ended in a bare TypeError inside the study
        with pytest.raises(UsageError, match=f"{field} must be an integer, got 2.5"):
            SimDesign(**{field: 2.5})
        # reps=True once ran one replicate
        with pytest.raises(UsageError, match=f"^{field} must be an integer, got True$"):
            SimDesign(**{field: True})

    @pytest.mark.parametrize("field,value,message", [
        ("nu", "5", "nu must be a real number, got '5'"),
        ("eps", "0.1", "eps must be a real number, got '0.1'"),
        ("q_list", ("1",), "a q_list entry must be a real number, got '1'"),
        ("beta_true", ("1", "1"), "a beta_true entry must be a real number, got '1'"),
        ("q_list", 0.9, "q_list must be a sequence of real numbers, got 0.9"),
        ("beta_true", 1.0, "beta_true must be a sequence of real numbers, got 1.0")],
        ids=["nu", "eps", "q_list", "beta_true", "q_list-scalar", "beta_true-scalar"])
    def test_non_numeric_setting_refused(self, field, value, message):
        # each once ended in a bare TypeError
        with pytest.raises(UsageError, match=f"^{message}$"):
            SimDesign(**{field: value})

    def test_no_replicates_refused(self):
        with pytest.raises(UsageError, match="^reps must be at least 1$"):
            SimDesign(reps=0)

    @pytest.mark.parametrize("field", ["fixed_x", "include_intercept"])
    def test_flags_must_be_booleans(self, field):
        # "no" once ran a fixed-X study and was written to the JSON report
        with pytest.raises(UsageError, match=f"^{field} must be a boolean, got 'no'$"):
            SimDesign(n=20, reps=2, q_list=(1.0,), **{field: "no"})
        with pytest.raises(UsageError, match=f"^{field} must be a boolean, got 1$"):
            SimDesign(n=20, reps=2, q_list=(1.0,), **{field: 1})
        design = SimDesign(n=20, reps=2, q_list=(1.0,), **{field: np.True_})
        assert getattr(design, field) is True
        doc = run_study(design).to_json()
        assert f'"{field}": true' in doc and json.loads(doc)["design"][field] is True

    def test_json_report_is_led_by_its_schema(self):
        # sort_keys once wrote "design" first and "schema" third
        report = run_study(SimDesign(n=20, reps=2, q_list=(1.0,)))
        doc = json.loads(report.to_json())
        assert list(doc) == ["schema", "design", "rows", "unreliable"]
        assert doc["schema"] == "lq-glm/1"
        assert list(doc["design"]) == sorted(doc["design"])
        assert all(list(row) == sorted(row) for row in doc["rows"])

    def test_numpy_scalars_write_the_reports_of_python_numbers(self):
        # np.float64 once reached the CSV as "np.float64(0.05)" and np.int64
        # made the JSON report fail
        plain = SimDesign(n=40, eps=0.05, nu=5.0, reps=2, q_list=(1.0, 0.9),
                          beta_true=(1.0, 1.0, 1.0))
        numpy = SimDesign(n=np.int64(40), eps=np.float64(0.05), nu=np.float32(5.0),
                          reps=np.int64(2), q_list=(np.float64(1.0), np.float64(0.9)),
                          beta_true=tuple(np.ones(3)))
        assert repr(numpy) == repr(plain)  # stored as Python numbers
        a, b = run_study(plain), run_study(numpy)
        assert (a.to_csv(), a.to_json()) == (b.to_csv(), b.to_json())

    def test_non_integer_jobs_refused(self):
        # on two blocks 1.5 once reached the process pool as its worker count
        design = SimDesign(n=20, reps=BLOCK + 1, q_list=(1.0,))
        with pytest.raises(UsageError, match="jobs must be an integer, got 1.5"):
            run_study(design, jobs=1.5)
        # True was once one worker
        with pytest.raises(UsageError, match="^jobs must be an integer, got True$"):
            run_study(design, jobs=True)

    def test_jobs_below_one_refused(self):
        design = SimDesign(n=20, reps=1, q_list=(1.0,))
        for jobs in (0, -2):
            with pytest.raises(UsageError, match="jobs must be at least 1, got"):
                run_study(design, jobs=jobs)

    @pytest.mark.parametrize("reps,jobs,pools", [(10, 3, []), (2 * BLOCK + 2, 2, [2]),
                                                 (2 * BLOCK + 2, 8, [3])])
    def test_pool_capped_at_the_block_count(self, reps, jobs, pools, monkeypatch):
        # a stand-in pool records the workers asked for and maps in this process
        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        design = SimDesign(n=30, eps=0.1, nu=3.0, reps=reps, q_list=(1.0, 0.9), seed=71)
        serial = run_study(design)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Pool)
        report = run_study(design, jobs=jobs)
        assert started == pools
        assert (report.to_csv(), report.to_json()) == (serial.to_csv(), serial.to_json())

    def test_two_worker_processes_match_serial(self):
        # two blocks, so a real pool of two processes
        design = SimDesign(n=30, eps=0.1, nu=3.0, reps=BLOCK + 1, q_list=(1.0, 0.9), seed=73)
        assert run_study(design, jobs=2).to_json() == run_study(design).to_json()

    def test_intercept_design(self):
        design = SimDesign(n=400, eps=0.0, nu=1.0, reps=40, q_list=(1.0, 0.95),
                           beta_true=(0.5, 1.0, 1.0), seed=61, include_intercept=True)
        X, _ = _draw(design, rng_stream(design.seed, 0))
        assert X.shape == (400, 3) and np.all(X[:, 0] == 1.0)
        assert np.all((X[:, 1:] > 0.0) & (X[:, 1:] < 1.0))
        report = run_study(design)
        # at q < 1 the calibration leaves a bias of order 1 - q (README, Known limitations)
        assert [row["nonconverged"] for row in report.rows] == [0, 0]
        assert report.rows[0]["bias"] <= 0.05
        assert json.loads(report.to_json())["design"]["include_intercept"] is True

    def test_q_with_every_replicate_failed(self, monkeypatch):
        # with no iterations allowed, no fit converges: NaN summaries, flagged
        no_steps = replace(simulate._STUDY_CONTROL, max_iter=0)
        monkeypatch.setattr(simulate, "_STUDY_CONTROL", no_steps)
        report = run_study(SimDesign(n=50, reps=4, q_list=(1.0, 0.9), seed=81))
        for row in report.rows:
            assert np.isnan(row["bias"]) and np.isnan(row["iqr"])
            assert row["nonconverged"] == 4 and row["unreliable"]
        assert report.unreliable
        assert report.to_csv().splitlines()[1].endswith(",nan,nan,4")

    def test_report_design_keys(self):
        report = run_study(SimDesign(n=60, reps=2, q_list=(1.0,), seed=5, fixed_x=True))
        design = json.loads(report.to_json())["design"]
        assert design == {
            "n": 60, "eps": 0.05, "nu": 5.0, "reps": 2, "q_list": [1.0],
            "beta_true": [1.0, 1.0, 1.0], "seed": 5, "family": "poisson",
            "include_intercept": False, "fixed_x": True,
        }


class TestPercentilePair:
    """One ``np.percentile`` call for two quantiles equals two calls.

    Byte for byte, unless the data hold both zeros: the selection may then
    pick the other of two equal order statistics 0.0 and -0.0."""

    @pytest.mark.parametrize("shape", [(10, 3), (7, 2), (64, 3), (20, 39), (100, 60)])
    @pytest.mark.parametrize("pair", [(25, 75), (2.5, 97.5), (4.999999999999999, 95.0)])
    def test_equals_two_calls(self, shape, pair):
        rng = rng_stream(23, shape[0] * shape[1])
        for k in range(40):
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
            if k % 4 == 0:
                a = np.round(a, 1)  # ties, -0.0 among them
            got = np.percentile(a, list(pair), axis=0)
            want = [np.percentile(a, v, axis=0) for v in pair]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            if not np.any((a == 0) & np.signbit(a)):
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    def test_run_study_iqr(self):
        design = SimDesign(n=100, eps=0.05, nu=5.0, reps=30, q_list=(1.0, 0.97), seed=11)
        est = _replicates(design, range(design.reps))
        report = run_study(design)
        for j, row in enumerate(report.rows):
            B = est[:, j, :]
            Bg = B[~np.any(np.isnan(B), axis=1)]
            iqr = float(np.mean(np.percentile(Bg, 75, axis=0) - np.percentile(Bg, 25, axis=0)))
            assert repr(row["iqr"]) == repr(iqr)


class TestBatchedReplicates:
    @staticmethod
    def _one_replicate(design, k):
        """The per-replicate loop the batch replaces: replicate k alone, by
        the per-row reference under the study's control, its calibrated
        estimate at each q of ``design.q_list``, NaN where the fit failed or
        did not converge."""
        rng = rng_stream(design.seed, k)
        X, y = _draw(design, rng)
        data = ModelData(X, contaminate(y, design.eps, design.nu, rng)[0], "poisson")
        qs = sorted(set(design.q_list), reverse=True)
        out = {q: np.full(len(design.beta_true), np.nan) for q in qs}
        for q, (prob, res) in zip(qs, staged_fits(stack([data]), qs, simulate._STUDY_CONTROL)):
            try:
                fit = fit_result(data, prob, q, res)
            except LqglmError:
                continue
            if fit.converged:
                out[q] = fit.beta_q
        return np.array([out[q] for q in design.q_list])

    def test_rows_equal_single_fits_byte_for_byte(self):
        # batch composition never changes a row: every replicate of the
        # batch equals that replicate fitted alone
        # heavy contamination: some q = 0.91 fits hit the iteration cap
        design = SimDesign(n=400, eps=0.25, nu=5.0, reps=12, q_list=(1.0, 0.97, 0.91), seed=3)
        est = _replicates(design, range(design.reps))
        ref = np.array([self._one_replicate(design, k) for k in range(design.reps)])
        assert est.tobytes() == ref.tobytes()
        assert np.isnan(ref).any() and not np.isnan(ref).all()

    def test_rank_deficient_replicates_are_nonconverged(self):
        # a zero covariate column makes the classical start's Cholesky pivot
        # exactly 0: every replicate fails there and is NaN at every q,
        # where a ModelData of the same design refuses it as rank deficient
        design = SimDesign(n=50, eps=0.1, nu=5.0, reps=5, q_list=(1.0, 0.9), seed=7)
        X = rng_stream(7, 1).uniform(size=(50, 3))
        X[:, 1] = 0.0
        with pytest.raises(UsageError, match="rank deficient"):
            ModelData(X, np.ones(50), "poisson")
        est = _replicates(design, range(design.reps), X)
        assert est.shape == (5, 2, 3) and np.isnan(est).all()

    def test_block_split_does_not_change_rows(self):
        design = SimDesign(n=120, eps=0.10, nu=5.0, reps=9, q_list=(1.0, 0.95, 0.9), seed=3)
        whole = _replicates(design, range(9))
        parts = np.concatenate([_replicates(design, range(0, 4)), _replicates(design, range(4, 9))])
        assert whole.tobytes() == parts.tobytes()
