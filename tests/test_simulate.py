from dataclasses import replace

import numpy as np
import pytest

from lqglm import (
    FitControl,
    LqglmError,
    ModelData,
    SimDesign,
    contaminate,
    fit_mlq,
    gen_dataset,
    rng_stream,
    run_study,
)
from lqglm.simulate import _replicates


class TestGenDataset:
    def test_zero_coefficients_give_unit_means(self):
        design = SimDesign(n=20000, beta_true=(0.0, 0.0, 0.0), seed=1)
        data = gen_dataset(design, rng_stream(1, 0))
        se = data.y.std(ddof=1) / np.sqrt(data.n)
        assert abs(data.y.mean() - 1.0) < 4 * se

    def test_mean_of_mu_matches_analytic_moment(self):
        # E exp(x1 + x2 + x3) = (e - 1)^3 for iid U(0,1) covariates
        design = SimDesign(n=400, seed=7)
        data = gen_dataset(design, rng_stream(7, 0))
        mu = np.exp(data.X @ np.ones(3))
        target = (np.e - 1.0) ** 3
        se = mu.std(ddof=1) / np.sqrt(data.n)
        assert abs(mu.mean() - target) < 4 * se

    def test_reproducible(self):
        design = SimDesign(n=50, seed=3)
        a = gen_dataset(design, rng_stream(3, 5))
        b = gen_dataset(design, rng_stream(3, 5))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


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
        from lqglm import UsageError

        with pytest.raises(UsageError):
            SimDesign(eps=1.0)
        with pytest.raises(UsageError):
            SimDesign(q_list=(1.5,))


class TestBatchedReplicates:
    @staticmethod
    def _one_replicate(design, k):
        """The per-replicate loop the batch replaces: fit_mlq on one dataset."""
        rng = rng_stream(design.seed, k)
        data = gen_dataset(design, rng)
        y, _ = contaminate(data.y, design.eps, design.nu, rng)
        data = ModelData(data.X, y, data.family, data.link, 1.0)
        ctl = FitControl(max_iter=design.max_iter, tol=design.tol)
        out = {q: np.full(len(design.beta_true), np.nan) for q in design.q_list}
        fit1 = fit_mlq(data, ctl)
        if fit1.converged:
            out[1.0] = fit1.beta_q
        start = fit1.beta_star
        for q in sorted(design.q_list, reverse=True)[1:]:
            try:
                res = fit_mlq(data, replace(ctl, q=q, init=start))
            except LqglmError:
                continue
            if res.converged:
                out[q] = res.beta_q
                start = res.beta_star
        return np.array([out[q] for q in design.q_list])

    def test_rows_equal_single_fits_byte_for_byte(self):
        # batch composition never changes a row: every replicate of the
        # batch equals fit_mlq run on that replicate alone
        # heavy contamination: some q = 0.91 fits hit the iteration cap
        design = SimDesign(n=400, eps=0.25, nu=5.0, reps=12, q_list=(1.0, 0.97, 0.91), seed=3)
        est = _replicates(design, range(design.reps))
        ref = np.array([self._one_replicate(design, k) for k in range(design.reps)])
        assert est.tobytes() == ref.tobytes()
        assert np.isnan(ref).any() and not np.isnan(ref).all()

    def test_block_split_does_not_change_rows(self):
        design = SimDesign(n=120, eps=0.10, nu=5.0, reps=9, q_list=(1.0, 0.95, 0.9), seed=3)
        whole = _replicates(design, range(9))
        parts = np.concatenate([_replicates(design, range(0, 4)), _replicates(design, range(4, 9))])
        assert whole.tobytes() == parts.tobytes()
