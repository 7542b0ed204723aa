"""Command-line interface.

Subcommands: ``fit``, ``test``, ``residuals``, ``envelope``, ``selectq``,
``simulate``.  Input data is RFC-4180 CSV with a header row, read by
``datasets.load_table``; numeric non-response columns become covariates in
file order, with an intercept prepended unless ``--no-intercept``.  Each
``cmd_*`` returns its exit code and its document: a dict, which ``main``
writes as indented JSON led by the ``simulate.SCHEMA`` tag as ``"schema"``,
or finished text (a CSV table, a ``SimReport`` rendering).  Exit codes:
0 success, 1 input error or usage error (an unknown option), 2 from ``fit``
alone when its fit did not converge (the result document is still emitted).
``LQGLM_SEED`` provides the default seed, read when a command runs.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .datasets import load_table
from .diagnostics import (
    LinearHypothesis,
    aic_q,
    bf_test,
    deviance_residuals,
    quantile_residuals,
    score_test,
    simulation_envelope,
    standardized_residuals,
    wald_test,
)
from .errors import LqglmError, UsageError
from .fit import FitControl, fit_mlq
from .model import PROFILE, ModelData
from .numerics import rng_stream
from .qselect import QGrid, select_q_efficiency, select_q_stability
from .simulate import SCHEMA, SimDesign, run_study


def _default_seed():
    return int(os.environ.get("LQGLM_SEED", "0"))


def _emit(text, output):
    if output in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _table(header, *columns):
    """CSV text: the header, then one row per entry of the columns, its
    1-based index followed by the ``repr`` of each column's float."""
    rows = [f"{i},{','.join(repr(float(v)) for v in row)}"
            for i, row in enumerate(zip(*columns), start=1)]
    return "\n".join([header, *rows]) + "\n"


def _model_data(args):
    log_cols = [c for c in (args.log.split(",") if args.log else []) if c]
    with open(args.data, newline="") as fh:
        X, y, names = load_table(fh, args.response, log_cols, args.no_intercept)
    phi = PROFILE if args.phi == "profile" else float(args.phi)
    return ModelData(X, y, args.family, phi=phi), names


def _resolve_q(args, data):
    if args.q == "auto":
        lo, step = _parse_grid(args.grid)
        return select_q_stability(data, QGrid(q_min=lo, step=step)).q_opt
    return float(args.q)


def _parse_grid(text):
    """``(lo, step)`` of a ``--grid`` value ``lo:step``."""
    try:
        lo, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise UsageError(f"--grid takes lo:step, two numbers; got {text!r}") from None
    return lo, step


def _parse_q_list(text):
    """The q values of a ``--q-list`` value ``q1,q2,...``."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--q-list takes q1,q2,..., comma-separated numbers; got {text!r}") from None


def _single_fit(args):
    """The data, covariate names, control and fit of a subcommand that fits one q."""
    data, names = _model_data(args)
    control = FitControl(q=_resolve_q(args, data), max_iter=args.max_iter, tol=args.tol)
    return data, names, control, fit_mlq(data, control)


def cmd_fit(args):
    data, names, control, fit = _single_fit(args)
    return 0 if fit.converged else 2, {
        "family": data.family.name,
        "n": data.n,
        "p": data.p,
        "covariates": names,
        "q_used": control.q,
        "beta_q": None if fit.beta_q is None else fit.beta_q.tolist(),
        "beta_star": fit.beta_star.tolist(),
        "se": fit.se.tolist(),
        "weights": fit.weights.tolist(),
        "lq_value": fit.lq_value,
        "aic_q": aic_q(data, fit),
        "phi_hat": fit.phi_hat,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "message": fit.message,
    }


def cmd_selectq(args):
    data, _ = _model_data(args)
    lo, step = _parse_grid(args.grid)
    # only the stability rule reads --rho-factor, which is in args only when given
    given = {"rho_factor": args.rho_factor} if "rho_factor" in args else {}
    if given and args.method != "stability":
        raise UsageError("--rho-factor applies to --method stability only")
    rule = select_q_stability if args.method == "stability" else select_q_efficiency
    sel = rule(data, QGrid(q_min=lo, step=step, **given))
    return 0, {
        "method": sel.method,
        "q_opt": sel.q_opt,
        "rho": sel.rho,
        "qv_profile": {f"{k:.6g}": v for k, v in sel.qv_profile.items()},
        "dropped": sel.dropped,
        "pruned": [],  # kept so that documents of one schema keep their keys
        "fits": {f"{k:.6g}": v for k, v in sel.fits.items()},
    }


def cmd_test(args):
    data, _, control, fit = _single_fit(args)
    q = control.q
    H = np.loadtxt(args.H, delimiter=",", ndmin=2)
    h = np.loadtxt(args.h_vector, delimiter=",", ndmin=1)
    hyp = LinearHypothesis(H, h)
    # in the document's order; score_test and bf_test share one constrained fit
    tests = {"wald": lambda: wald_test(fit, hyp),
             "score": lambda: score_test(data, hyp, q, control),
             "bf": lambda: bf_test(data, fit, hyp, q, control)}
    results = [{"kind": r.kind, "statistic": r.statistic, "dof": r.dof, "p_value": r.p_value}
               for r in (test() for stat, test in tests.items() if args.stat in (stat, "all"))]
    return 0, {"q_used": q, "tests": results}


def cmd_residuals(args):
    data, _, control, fit = _single_fit(args)
    if args.type == "quantile":
        vals = quantile_residuals(data, fit, rng_stream(args.seed, 0))
    elif args.type == "deviance":
        vals = deviance_residuals(data, fit)
    else:
        vals = standardized_residuals(data, fit)
    if args.format == "csv":
        return 0, _table("index,residual", vals)
    return 0, {"q_used": control.q, "type": args.type, "residuals": vals.tolist()}


def cmd_envelope(args):
    data, _, control, fit = _single_fit(args)
    env = simulation_envelope(data, fit, kind=args.type, reps=args.reps,
                              seed=args.seed, level=args.level, control=control)
    if args.format == "csv":
        return 0, _table("position,normal_quantile,observed,lower,upper",
                         env.normal_quantiles, env.observed, env.lower, env.upper)
    return 0, {"q_used": control.q, "type": env.kind, "reps": env.reps,
               "failed": env.failed, "nonconverged": env.nonconverged,
               "normal_quantiles": env.normal_quantiles.tolist(),
               "observed": env.observed.tolist(),
               "lower": env.lower.tolist(), "upper": env.upper.tolist()}


def cmd_simulate(args):
    design = SimDesign(
        n=args.n, eps=args.eps, nu=args.nu, reps=args.reps,
        q_list=_parse_q_list(args.q_list),
        seed=args.seed, fixed_x=args.fixed_x,
        include_intercept=args.intercept,
    )
    report = run_study(design, jobs=args.jobs)
    return 0, report.to_json() if args.format == "json" else report.to_csv()


def _add_data_options(p, single_fit=True):
    """The data and output options, and with ``single_fit`` the q and loop
    settings of one fit (``selectq`` fits its grid with fixed loop settings)."""
    p.add_argument("--data", required=True, help="input CSV (header required)")
    p.add_argument("--response", required=True, help="response column name")
    p.add_argument("--family", default="bernoulli",
                   help="bernoulli, poisson, or gaussian")
    p.add_argument("--phi", default="1.0",
                   help="dispersion (number, or 'profile' for gaussian)")
    p.add_argument("--log", default="", help="comma-separated columns to log")
    p.add_argument("--no-intercept", action="store_true")
    if single_fit:
        p.add_argument("--q", default="1.0", help="distortion parameter or 'auto'")
        p.add_argument("--max-iter", type=int, default=FitControl.max_iter)
        p.add_argument("--tol", type=float, default=FitControl.tol)
    p.add_argument("--grid", default="0.70:0.01", help="selectq grid lo:step")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")


def _add_seed_format(p, default_format):
    """``--seed`` and ``--format``, for the subcommands whose output draws
    random numbers and has a CSV form."""
    p.add_argument("--seed", type=int, default=None, help="default: LQGLM_SEED or 0")
    p.add_argument("--format", default=default_format, choices=["json", "csv"])


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would exit with status 2, which
    here means "fit did not converge"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser():
    ap = _Parser(prog="lqglm", description="Robust GLM fitting by maximum Lq-likelihood")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model")
    _add_data_options(p)

    p = sub.add_parser("selectq", help="select the distortion parameter")
    _add_data_options(p, single_fit=False)
    p.add_argument("--method", default="stability", choices=["stability", "efficiency"])
    p.add_argument("--rho-factor", type=float, default=argparse.SUPPRESS,
                   help="threshold factor of the stability method")

    p = sub.add_parser("test", help="test a linear hypothesis H beta = h")
    _add_data_options(p)
    p.add_argument("--H", required=True, help="CSV file with the d x p matrix H")
    p.add_argument("--h", dest="h_vector", required=True, help="CSV file with the d-vector h")
    p.add_argument("--stat", default="all", choices=["wald", "score", "bf", "all"])

    p = sub.add_parser("residuals", help="per-observation residuals")
    _add_data_options(p)
    _add_seed_format(p, "json")
    p.add_argument("--type", default="standardized",
                   choices=["standardized", "deviance", "quantile"])

    p = sub.add_parser("envelope", help="parametric-bootstrap QQ envelope")
    _add_data_options(p)
    _add_seed_format(p, "json")
    p.add_argument("--type", default="standardized",
                   choices=["standardized", "deviance", "quantile"])
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--level", type=float, default=0.95)

    p = sub.add_parser("simulate", help="contamination Monte Carlo study")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--nu", type=float, default=5.0)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--q-list", default="1.0,0.97")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--fixed-x", action="store_true",
                   help="share one design matrix across replicates")
    p.add_argument("--intercept", action="store_true",
                   help="prepend an intercept to the simulation design")
    p.add_argument("--output", default="-")
    _add_seed_format(p, "csv")
    return ap


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        # looked up when it runs, so a rebound lqglm.cli.cmd_* takes effect
        code, doc = globals()[f"cmd_{args.command}"](args)
        if isinstance(doc, dict):
            doc = json.dumps({"schema": SCHEMA, **doc}, indent=2)
        _emit(doc, args.output)
        return code
    except (LqglmError, OSError, ValueError) as e:
        print(f"lqglm: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
