import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqglm import (
    PROFILE,
    FitControl,
    LinearHypothesis,
    ModelData,
    QGrid,
    bf_test,
    estimate_phi,
    fit_mlq,
    rng_stream,
    score_test,
    select_q_efficiency,
    wald_test,
)
from lqglm.cli import main
from lqglm.datasets import vaso_path
from lqglm.errors import UsageError

VASO_ML_BETA = np.array([-2.875, 5.179, 4.562])
VASO_MLQ_BETA = np.array([-5.185, 8.234, 7.287])
VASO_MLQ_SE = np.array([2.563, 3.920, 3.455])


@pytest.fixture()
def vaso_csv(tmp_path):
    dst = tmp_path / "vaso.csv"
    shutil.copy(vaso_path(), dst)
    return str(dst)


def _fit_args(vaso_csv, out, q):
    return [
        "fit", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
        "--log", "volume,rate", "--q", q, "--output", out,
    ]


class TestFit:
    def test_reference_ml_fit(self, vaso_csv, tmp_path):
        out = str(tmp_path / "fit.json")
        assert main(_fit_args(vaso_csv, out, "1.0")) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["schema"] == "lq-glm/1"
        assert np.max(np.abs(np.array(doc["beta_q"]) - VASO_ML_BETA)) < 0.002
        assert doc["converged"] is True

    def test_reference_mlq_fit(self, vaso_csv, tmp_path):
        out = str(tmp_path / "fit79.json")
        code = main(_fit_args(vaso_csv, out, "0.79"))
        doc = json.loads(Path(out).read_text())
        assert np.max(np.abs(np.array(doc["beta_q"]) - VASO_MLQ_BETA)) < 0.02
        assert np.max(np.abs(np.array(doc["se"]) - VASO_MLQ_SE)) < 0.05
        # result emitted regardless of the convergence exit code
        assert code in (0, 2)
        assert (code == 0) == doc["converged"]

    def test_empty_csv(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("volume,rate,y\n")
        code = main(["fit", "--data", str(src), "--response", "y"])
        assert code == 1
        assert "no rows" in capsys.readouterr().err

    def test_missing_or_blank_file(self, tmp_path, capsys):
        # the CLI opens --data itself: a missing file is an OSError, exit 1
        assert main(["fit", "--data", str(tmp_path / "absent.csv"), "--response", "y"]) == 1
        assert "No such file" in capsys.readouterr().err
        (tmp_path / "blank.csv").write_text("")
        assert main(["fit", "--data", str(tmp_path / "blank.csv"), "--response", "y"]) == 1
        assert "no rows" in capsys.readouterr().err

    def test_missing_response_column(self, vaso_csv):
        assert main(["fit", "--data", vaso_csv, "--response", "zz"]) == 1

    def test_poisson_response_of_inf_is_refused(self, tmp_path, capsys):
        # inf equals its own rounding: it once reached the fit, which
        # blamed the starting value
        data = tmp_path / "p.csv"
        data.write_text("x,y\n1,0\n2,1\n3,inf\n4,2\n5,3\n")
        assert main(["fit", "--data", str(data), "--response", "y", "--family", "poisson"]) == 1
        assert capsys.readouterr().err == (
            "lqglm: error: Poisson responses must be nonnegative integers\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_gaussian_response_must_be_finite(self, value, tmp_path, capsys):
        data = tmp_path / "g.csv"
        data.write_text(f"x,y\n1,0.5\n2,1.5\n3,{value}\n4,2.5\n5,3.0\n")
        assert main(["fit", "--data", str(data), "--response", "y", "--family", "gaussian"]) == 1
        assert capsys.readouterr().err == "lqglm: error: Gaussian responses must be finite\n"

    def test_unknown_family(self, vaso_csv, capsys):
        code = main(["fit", "--data", vaso_csv, "--response", "y",
                     "--family", "gamma"])
        assert code == 1
        assert "unknown family" in capsys.readouterr().err

    def test_auto_q(self, vaso_csv, tmp_path):
        out = str(tmp_path / "auto.json")
        code = main(_fit_args(vaso_csv, out, "auto") + ["--grid", "0.75:0.01"])
        doc = json.loads(Path(out).read_text())
        assert 0.75 <= doc["q_used"] <= 1.0
        assert code in (0, 2)

    def test_gaussian_profile_dispersion(self, tmp_path):
        rng = rng_stream(33, 0)
        x = rng.uniform(-1, 1, size=120)
        y = 1.0 + 0.5 * x + rng.normal(0, 0.5, size=120)
        src = tmp_path / "gauss.csv"
        rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y))
        src.write_text("x,y\n" + rows)
        out = str(tmp_path / "gfit.json")
        code = main([
            "fit", "--data", str(src), "--response", "y", "--family", "gaussian",
            "--phi", "profile", "--q", "0.95", "--output", out,
        ])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        # phi is a precision: true value 1/0.25 = 4
        assert 2.0 < doc["phi_hat"] < 8.0
        assert abs(doc["beta_q"][1] - 0.5) < 0.2


class TestSelectq:
    def test_vaso_window(self, vaso_csv, tmp_path):
        out = str(tmp_path / "sel.json")
        code = main([
            "selectq", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate",
            "--grid", "0.70:0.01", "--output", out,
        ])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert 0.77 <= doc["q_opt"] <= 0.81

    def test_efficiency_method_equals_the_library_call(self, vaso_csv, vaso, tmp_path):
        out = str(tmp_path / "sel.json")
        code = main([
            "selectq", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate",
            "--grid", "0.70:0.01", "--method", "efficiency", "--output", out,
        ])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        sel = select_q_efficiency(vaso, QGrid(q_min=0.70, step=0.01))
        assert (doc["method"], doc["q_opt"], doc["rho"]) == ("efficiency", sel.q_opt, sel.rho)
        assert doc["qv_profile"] == {f"{q:.6g}": t for q, t in sel.qv_profile.items()}
        assert doc["fits"] == json.loads(json.dumps({f"{q:.6g}": f for q, f in sel.fits.items()}))
        assert doc["dropped"] == json.loads(json.dumps(sel.dropped))


class TestHypothesisTest:
    def test_wald_zero_at_satisfied_constraint(self, vaso_csv, tmp_path):
        fit_out = str(tmp_path / "f.json")
        main(_fit_args(vaso_csv, fit_out, "1.0"))
        beta1 = json.loads(Path(fit_out).read_text())["beta_q"][0]
        (tmp_path / "H.csv").write_text("1.0,0.0,0.0\n")
        (tmp_path / "h.csv").write_text(f"{beta1!r}\n")
        out = str(tmp_path / "test.json")
        code = main([
            "test", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "1.0",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
            "--stat", "wald", "--output", out,
        ])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        assert doc["tests"][0]["kind"] == "wald"
        assert doc["tests"][0]["statistic"] < 1e-12

    def test_all_three_statistics(self, vaso_csv, tmp_path):
        (tmp_path / "H.csv").write_text("0.0,1.0,-1.0\n")
        (tmp_path / "h.csv").write_text("0.0\n")
        out = str(tmp_path / "test.json")
        code = main([
            "test", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "0.9",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
            "--output", out,
        ])
        assert code == 0
        doc = json.loads(Path(out).read_text())
        kinds = [t["kind"] for t in doc["tests"]]
        assert kinds == ["wald", "score", "bilinear"]
        for t in doc["tests"]:
            assert 0.0 <= t["p_value"] <= 1.0

    @pytest.mark.parametrize("stat", ["score", "bf"])
    def test_single_statistic_equals_the_library_call(self, stat, vaso_csv, vaso, tmp_path):
        (tmp_path / "H.csv").write_text("0.0,0.0,1.0\n")
        (tmp_path / "h.csv").write_text("0.0\n")
        out = str(tmp_path / "test.json")
        code = main([
            "test", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "0.9",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
            "--stat", stat, "--output", out,
        ])
        assert code == 0
        ctl, hyp = FitControl(q=0.9), LinearHypothesis([[0.0, 0.0, 1.0]], [0.0])
        if stat == "score":
            want = score_test(vaso, hyp, 0.9, ctl)
        else:
            want = bf_test(vaso, fit_mlq(vaso, ctl), hyp, 0.9, ctl)
        assert json.loads(Path(out).read_text())["tests"] == [
            {"kind": want.kind, "statistic": want.statistic, "dof": want.dof,
             "p_value": want.p_value}]

    def test_all_statistics_share_one_constrained_fit(self, vaso_csv, tmp_path, monkeypatch):
        from lqglm import diagnostics, fit

        calls = []
        original = fit._fit

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fit, "_fit", counted)
        monkeypatch.setattr(diagnostics, "_fit", counted)
        (tmp_path / "H.csv").write_text("0.0,0.0,1.0\n")
        (tmp_path / "h.csv").write_text("0.0\n")
        code = main([
            "test", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "0.9",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
            "--output", str(tmp_path / "test.json"),
        ])
        assert code == 0
        assert len(calls) == 2  # the unconstrained fit and one constrained fit

    def test_gaussian_profile_full_rank_hypothesis(self, tmp_path):
        # H = I fixes the coefficients; the score is taken at the dispersion
        # profiled there, not at phi = 1
        rng = rng_stream(33, 0)
        x = rng.uniform(-1, 1, size=60)
        y = 0.5 + x + rng.normal(0, 0.5, size=60)
        src = tmp_path / "gauss.csv"
        src.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)))
        (tmp_path / "H.csv").write_text("1.0,0.0\n0.0,1.0\n")
        (tmp_path / "h.csv").write_text("0.5\n1.1\n")
        out = str(tmp_path / "test.json")
        code = main([
            "test", "--data", str(src), "--response", "y", "--family", "gaussian",
            "--phi", "profile", "--q", "0.9",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"), "--output", out,
        ])
        assert code == 0
        data = ModelData(np.column_stack([np.ones(60), x]), y, "gaussian", phi=PROFILE)
        ctl, hyp = FitControl(q=0.9), LinearHypothesis(np.eye(2), [0.5, 1.1])
        fit = fit_mlq(data, ctl)
        want = [wald_test(fit, hyp), score_test(data, hyp, 0.9, ctl),
                bf_test(data, fit, hyp, 0.9, ctl)]
        tests = json.loads(Path(out).read_text())["tests"]
        assert tests == [{"kind": r.kind, "statistic": r.statistic, "dof": r.dof,
                          "p_value": r.p_value} for r in want]
        fixed = ModelData(data.X, y, "gaussian", phi=estimate_phi(data, hyp.h, 0.9))
        assert tests[1]["statistic"] == pytest.approx(score_test(fixed, hyp, 0.9).statistic,
                                                      rel=1e-12)

    def test_overflowed_constrained_point_exits_1(self, tmp_path, capsys):
        # the score and bilinear-form statistics were reported as 0 (p = 1),
        # and the error then came after numpy's overflow warnings
        (tmp_path / "d.csv").write_text("x,y\n0,0\n1,1\n2,0\n3,2\n4,1\n")
        (tmp_path / "H.csv").write_text("0,1\n")
        (tmp_path / "h.csv").write_text("100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "test", "--data", str(tmp_path / "d.csv"), "--response", "y",
                "--family", "poisson", "--q", "0.8",
                "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
                "--output", str(tmp_path / "test.json"),
            ])
        assert code == 1
        assert "lqglm: error: " in capsys.readouterr().err


    def test_all_lists_the_single_statistics_in_order(self, vaso_csv, tmp_path):
        (tmp_path / "H.csv").write_text("0.0,0.0,1.0\n")
        (tmp_path / "h.csv").write_text("0.0\n")
        tests = {}
        for stat in ("all", "wald", "score", "bf"):
            out = tmp_path / f"{stat}.json"
            assert main([
                "test", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
                "--log", "volume,rate", "--q", "0.9", "--stat", stat,
                "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
                "--output", str(out),
            ]) == 0
            tests[stat] = json.loads(out.read_text())["tests"]
        assert tests["all"] == tests["wald"] + tests["score"] + tests["bf"]

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_h_is_refused(self, h, vaso_csv, tmp_path, capsys):
        # the statistics once raised "matrix or right-hand side has
        # non-finite entries", which named neither input
        (tmp_path / "H.csv").write_text("0,0,1\n")
        (tmp_path / "h.csv").write_text(f"{h}\n")
        code = main([
            "test", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
            "--log", "volume,rate", "--q", "0.9",
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "lqglm: error: h has non-finite entries\n"

    @pytest.mark.parametrize("stat", ["wald", "score", "bf", "all"])
    def test_hypothesis_of_the_wrong_width_is_refused(self, stat, vaso_csv, tmp_path, capsys):
        (tmp_path / "H.csv").write_text("0,1\n")
        (tmp_path / "h.csv").write_text("0\n")
        code = main([
            "test", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
            "--log", "volume,rate", "--q", "0.9", "--stat", stat,
            "--H", str(tmp_path / "H.csv"), "--h", str(tmp_path / "h.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "lqglm: error: hypothesis H has 2 columns but the model has 3 coefficients\n")


class TestResidualsCli:
    def test_csv_roundtrip_12_digits(self, vaso_csv, tmp_path):
        out = str(tmp_path / "res.csv")
        code = main([
            "residuals", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "0.79",
            "--type", "standardized", "--format", "csv", "--output", out,
        ])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "index,residual"
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])

        from lqglm import FitControl, fit_mlq, standardized_residuals
        from lqglm.datasets import vaso_model_data

        data = vaso_model_data()
        direct = standardized_residuals(data, fit_mlq(data, FitControl(q=0.79)))
        assert np.max(np.abs(vals - direct) / np.maximum(np.abs(direct), 1e-12)) < 1e-12

    def test_quantile_seeded(self, vaso_csv, tmp_path):
        args = [
            "residuals", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "1.0",
            "--type", "quantile", "--seed", "5", "--format", "csv",
        ]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--output", out1]) == 0
        assert main(args + ["--output", out2]) == 0
        assert Path(out1).read_text() == Path(out2).read_text()


class TestEnvelopeCli:
    def test_csv_schema(self, vaso_csv, tmp_path):
        out = str(tmp_path / "env.csv")
        code = main([
            "envelope", "--data", vaso_csv, "--response", "y",
            "--family", "bernoulli", "--log", "volume,rate", "--q", "1.0",
            "--reps", "30", "--seed", "2", "--format", "csv", "--output", out,
        ])
        assert code == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "position,normal_quantile,observed,lower,upper"
        assert len(lines) == 40  # 39 observations + header


    def test_json_counts_nonconverged_refits(self, vaso_csv, tmp_path):
        out = str(tmp_path / "env.json")
        code = main([
            "envelope", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
            "--log", "volume,rate", "--q", "0.79", "--type", "quantile", "--reps", "20",
            "--seed", "5", "--output", out,
        ])
        doc = json.loads(Path(out).read_text())
        assert code == 0 and doc["schema"] == "lq-glm/1"
        # one of the 20 refits stops at the 25-iteration cap
        assert (doc["reps"], doc["failed"], doc["nonconverged"]) == (20, 0, 1)


class TestSimulateCli:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = [
            "simulate", "--n", "60", "--eps", "0.05", "--nu", "5",
            "--reps", "20", "--q-list", "1.0,0.97", "--seed", "1",
        ]
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        assert main(args + ["--output", out1]) == 0
        assert main(args + ["--output", out2, "--jobs", "2"]) == 0
        text = Path(out1).read_text()
        assert text.splitlines()[0] == "n,eps,nu,q,bias,iqr,nonconverged"
        assert text == Path(out2).read_text()  # byte-identical across --jobs


def test_seed_env_default(monkeypatch):
    from lqglm.cli import _default_seed

    monkeypatch.setenv("LQGLM_SEED", "777")
    assert _default_seed() == 777


def test_seed_env_read_when_the_command_runs(vaso_csv, tmp_path, monkeypatch):
    # the parser is built once per process; LQGLM_SEED must still apply to
    # every later call
    args = ["residuals", "--data", vaso_csv, "--response", "y", "--family", "bernoulli",
            "--log", "volume,rate", "--q", "0.79", "--type", "quantile"]

    def residuals(extra):
        out = str(tmp_path / "r.json")
        assert main(args + extra + ["--output", out]) == 0
        return json.loads(Path(out).read_text())["residuals"]

    from_env = []
    for seed in ("11", "12"):
        monkeypatch.setenv("LQGLM_SEED", seed)
        from_env.append(residuals([]))
    monkeypatch.delenv("LQGLM_SEED")
    assert from_env == [residuals(["--seed", "11"]), residuals(["--seed", "12"])]
    assert from_env[0] != from_env[1]


@pytest.mark.parametrize("command,seed,env", [
    (["residuals", "--type", "quantile"], ["--seed", "-1"], None),
    (["envelope", "--reps", "10"], ["--seed", "18446744073709551616"], None),
    (["residuals", "--type", "quantile"], [], "-1"),
])
def test_out_of_range_seed_exits_1(command, seed, env, vaso_csv, tmp_path, monkeypatch, capsys):
    # a seed outside the random engine's 64-bit key is an input error, not a traceback
    if env is not None:
        monkeypatch.setenv("LQGLM_SEED", env)
    argv = command + ["--data", vaso_csv, "--response", "y", "--family", "bernoulli",
                      "--output", str(tmp_path / "out")] + seed
    assert main(argv) == 1
    assert "seed and stream id must lie in [0, 2**64)" in capsys.readouterr().err


def test_simulate_refuses_a_negative_seed(tmp_path, capsys):
    assert main(["simulate", "--reps", "2", "--seed", "-5", "--output", str(tmp_path / "s")]) == 1
    assert "seed must lie in [0, 2**64), got -5" in capsys.readouterr().err


_VASO_ARGS = ["--data", "vaso.csv", "--response", "y", "--log", "volume,rate"]


# argparse refuses these and prints its usage line
_PARSE_ERRORS = [
    ["fit", "--data", "x.csv", "--response", "y", "--bogus"],
    ["envelope", "--data", "x.csv", "--response", "y", "--reps", "many"],
    ["selectq", "--data", "x.csv", "--response", "y", "--max-iter", "-1", "--tol", "nan"],
    ["fit", "--data", "x.csv", "--response", "y", "--format", "csv"],
    ["test", "--data", "x.csv", "--response", "y", "--H", "H.csv", "--h", "h.csv", "--seed", "1"],
    ["selectq", "--data", "x.csv", "--response", "y", "--format", "csv"],
    ["frobnicate"],
    [],
]
# a command checks these values after parsing, and prints no usage line
_VALUE_ERRORS = [
    ["selectq", *_VASO_ARGS, "--grid", "0.7"],
    ["fit", *_VASO_ARGS, "--q", "auto", "--grid", "0.7:0:1"],
    ["envelope", *_VASO_ARGS, "--level", "1.5"],
    ["envelope", *_VASO_ARGS, "--level", "0"],
    ["envelope", *_VASO_ARGS, "--reps", "-5"],
    ["selectq", *_VASO_ARGS, "--rho-factor", "nan"],
    ["selectq", *_VASO_ARGS, "--rho-factor", "-1"],
    # eps 0 never multiplies a response by nu, so nothing but the check refuses it
    ["simulate", "--nu", "inf", "--eps", "0", "--n", "20", "--reps", "1"],
    ["simulate", "--nu", "nan", "--eps", "0", "--n", "20", "--reps", "1"],
    ["simulate", "--jobs", "0", "--n", "20", "--reps", "1"],
    ["simulate", "--q-list", "", "--n", "20", "--reps", "1"],
    ["simulate", "--q-list", "1,x", "--n", "20", "--reps", "1"],
]


@pytest.mark.parametrize("argv", _PARSE_ERRORS + _VALUE_ERRORS)
def test_usage_errors_exit_1(argv, vaso_csv, capsys):
    # exit code 2 means "fit did not converge"
    assert main([vaso_csv if a == "vaso.csv" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert "lqglm: error: " in err
    assert err.startswith("usage: lqglm") == (argv in _PARSE_ERRORS)


@pytest.mark.parametrize("text", ["0.7", "0.7:0:1", "", "0.7:x", ":"])
def test_grid_parse_error_names_the_form(text):
    from lqglm.cli import _parse_grid

    with pytest.raises(UsageError, match="--grid takes lo:step"):
        _parse_grid(text)


@pytest.mark.parametrize("text", ["", "1,x", "1,,0.9", "0.9;0.8"])
def test_q_list_parse_error_names_the_form(text):
    from lqglm.cli import _parse_q_list

    with pytest.raises(UsageError, match="--q-list takes q1,q2,..., comma-separated numbers"):
        _parse_q_list(text)


@pytest.mark.parametrize("grid", ["0.7:0", "0.7:1e-320", "0.7:-0.01", "nan:0.01", "0.7:inf",
                                  "0.7:1e-15", "0.7:1e-6"])
@pytest.mark.parametrize("command", [["selectq"], ["fit", "--q", "auto"]])
def test_degenerate_grid_exits_1(vaso_csv, command, grid, capsys):
    argv = [*command, "--data", vaso_csv, "--response", "y", "--log", "volume,rate",
            "--grid", grid]
    assert main(argv) == 1
    assert "lqglm: error: " in capsys.readouterr().err


def test_negative_max_iter_exits_1(vaso_csv, capsys):
    argv = ["fit", "--data", vaso_csv, "--response", "y", "--log", "volume,rate",
            "--max-iter", "-1"]
    assert main(argv) == 1
    assert "lqglm: error: " in capsys.readouterr().err


def test_nan_tol_exits_1(vaso_csv, capsys):
    argv = ["fit", "--data", vaso_csv, "--response", "y", "--log", "volume,rate",
            "--tol", "nan"]
    assert main(argv) == 1
    assert "lqglm: error: " in capsys.readouterr().err


def _poisson_csv(path, header):
    # x in [3, 20]: log(log x) is defined, so a second log would fit silently
    rng = rng_stream(5, 0)
    x = rng.uniform(3.0, 20.0, size=40)
    y = rng.poisson(np.exp(0.2 + 0.05 * x))
    cells = [[str(int(a))] + [repr(float(b))] * (len(header) - 1) for a, b in zip(y, x)]
    path.write_text("\n".join(",".join(r) for r in [header, *cells]) + "\n")
    return str(path)


def test_log_column_named_twice_is_refused(tmp_path, capsys):
    data = _poisson_csv(tmp_path / "p.csv", ["y", "x"])
    argv = ["fit", "--data", data, "--response", "y", "--family", "poisson", "--q", "1.0"]
    assert main([*argv, "--log", "x", "--output", str(tmp_path / "f.json")]) == 0
    assert main([*argv, "--log", "x,x"]) == 1
    assert capsys.readouterr().err == (
        "lqglm: error: column 'x' is named twice among the columns to log\n")


def test_header_naming_a_column_twice_is_refused(tmp_path, capsys):
    data = _poisson_csv(tmp_path / "p.csv", ["y", "x", "x"])
    assert main(["fit", "--data", data, "--response", "y", "--family", "poisson"]) == 1
    assert capsys.readouterr().err == "lqglm: error: column 'x' appears twice in the header\n"


# per option: values a valid call may take, then values that probe its bounds
_VALUES = {
    "--family": (["bernoulli", "poisson"], ["gaussian", "gamma"]),
    "--q": (["1.0", "0.9", "auto"], ["1.5", "0", "nan", "x"]),
    "--phi": (["1.0"], ["profile", "0", "-1", "nan", "x"]),
    "--grid": (["0.9:0.05", "0.8:0.1"],
               ["0.9:0", "0.9:1e-320", "0.9:-0.1", "0.9:nan", "nan:0.1", "1.2:0.1", "0.9",
                "0.7:1e-15", "0.9:1e-6", "0.9:1e-5"]),
    "--max-iter": (["25", "5", "100"], ["-1", "-2", "0"]),
    "--tol": (["1e-8", "1e-6"], ["0", "-1", "nan", "inf", "x"]),
    "--level": (["0.95", "0.5"], ["0", "1", "1.5", "nan"]),
    "--reps": (["10", "20"], ["-1", "0", "1"]),
    "--type": (["standardized", "deviance", "quantile"], ["bogus"]),
    "--seed": (["0", "7"], ["-1", "18446744073709551616", "x"]),
}
_OPTIONS = {
    "fit": ["--family", "--q", "--phi", "--grid", "--max-iter", "--tol"],
    "selectq": ["--family", "--phi", "--grid"],
    "test": ["--family", "--q", "--phi", "--grid", "--max-iter", "--tol"],
    "residuals": ["--family", "--q", "--phi", "--grid", "--max-iter", "--tol", "--type",
                  "--seed"],
    "envelope": ["--family", "--q", "--phi", "--grid", "--max-iter", "--tol", "--type",
                 "--level", "--reps", "--seed"],
}


@st.composite
def _cli_calls(draw):
    """A CLI call on a small generated CSV of binary responses and integer
    covariates.  The call is valid up to one or two perturbations: an
    option set to a value that probes its bounds, or one corrupted CSV
    cell."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 2))
    rows = [[str(draw(st.integers(-4, 4))) for _ in range(k)] + [draw(st.sampled_from("01"))]
            for _ in range(n)]
    perturbed = draw(st.lists(st.sampled_from(_OPTIONS[command] + ["data"]), min_size=1,
                              max_size=2, unique=True))
    if rows and "data" in perturbed:
        row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, k))
        rows[row][col] = draw(st.sampled_from(["2", "-1", "0.5", "1e400", "nan", "x", "", "a,b"]))
    csv = "".join(",".join(r) + "\n" for r in [[f"x{j}" for j in range(k)] + ["y"], *rows])
    argv = [command]
    for name in _OPTIONS[command]:
        valid, odd = _VALUES[name]
        argv.append(f"{name}={draw(st.sampled_from(odd if name in perturbed else valid))}")
    H = draw(st.sampled_from(["0,1", "0,0,1", "1,0\n0,1", "0,1\n0,2", "x", "1,nan", ""]))
    h = draw(st.sampled_from(["0", "0,0", "1e400", "nan", ""]))
    return csv, argv, H, h


@settings(max_examples=500, deadline=None)
@given(call=_cli_calls())
def test_cli_fuzz_exits_0_1_or_2(call):
    # every grid here has at most 3 values in (0, 1], each a fit of n <= 12 rows
    csv, argv, H, h = call
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "d.csv").write_text(csv)
        (tmp / "H.csv").write_text(H)
        (tmp / "h.csv").write_text(h)
        argv = argv + ["--data", str(tmp / "d.csv"), "--response", "y",
                       "--output", str(tmp / "out")]
        if argv[0] == "test":
            argv += ["--H", str(tmp / "H.csv"), "--h", str(tmp / "h.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) in (0, 1, 2)


def test_rho_factor_is_refused_by_the_efficiency_method(vaso_csv, capsys):
    # it was silently ignored: only the stability rule reads it
    argv = ["selectq", "--data", vaso_csv, "--response", "y", "--log", "volume,rate",
            "--grid", "0.9:0.05", "--method", "efficiency", "--rho-factor", "7"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "lqglm: error: --rho-factor applies to --method stability only\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "--help"])
    assert exc.value.code == 0
    assert "--reps" in capsys.readouterr().out


def test_rebound_command_takes_effect(vaso_csv, monkeypatch, capsys):
    # the parser is built once; the command still runs through the
    # module's current binding
    import lqglm.cli

    assert main(_fit_args(vaso_csv, "-", "1.0")) == 0
    capsys.readouterr()
    monkeypatch.setattr(lqglm.cli, "cmd_fit", lambda args: (7, {"stand_in": True}))
    assert main(_fit_args(vaso_csv, "-", "1.0")) == 7
    # main tags and writes what the command returns
    assert capsys.readouterr().out == '{\n  "schema": "lq-glm/1",\n  "stand_in": true\n}\n'


@pytest.mark.parametrize("fmt,newline", [("json", "\n"), ("csv", "")])
def test_stdout_and_a_file_get_the_same_document(fmt, newline, vaso_csv, tmp_path, capsys):
    # on stdout the document ends with one newline: JSON gets it there, a
    # CSV table already has it
    argv = ["residuals", "--data", vaso_csv, "--response", "y", "--log", "volume,rate",
            "--type", "quantile", "--seed", "3", "--format", fmt]
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 0
    assert main([*argv, "--output", "-"]) == 0
    written = out.read_text()
    assert written.startswith('{\n  "schema": "lq-glm/1",' if fmt == "json" else "index,residual\n")
    assert capsys.readouterr().out == written + newline
