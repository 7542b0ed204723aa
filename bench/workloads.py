"""The three benchmark workloads.

Each workload is a closed loop of ops driven by one client.  A workload
object builds its fixed inputs once (that is part of set-up), makes the
inputs of op ``k`` from the workload seed alone, runs the op through the
public ``lqglm`` API, and turns the op's output into a small summary
``{"exact": [...], "close": [...]}`` that is checked against invariants the
benchmark computes itself and against reference summaries recorded when
the benchmark was added (``reference.json``).

Library calls always go through module attributes (``self.lq.fit_mlq``,
``self.lq.cli.main``) so that a traced run sees them at the package binding.
"""

import hashlib
import json
import math
import os

import numpy as np

# Relative/absolute tolerance for float outputs against the reference.
CLOSE_TOL = 1e-6


def mixed_seed(*parts):
    """A 62-bit integer that depends only on ``parts`` (stable across runs)."""
    digest = hashlib.blake2b(":".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 2


def fingerprint(values):
    """Three numbers that move when any element of ``values`` moves."""
    v = np.asarray(values, dtype=float)
    w = np.cos(np.arange(v.size))
    return [float(np.sum(np.abs(v))), float(np.sum(v)), float(v @ w)]


def close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= CLOSE_TOL * max(1.0, abs(a), abs(b))


def compare(summary, ref):
    """Problems found comparing an op summary with its reference summary."""
    problems = []
    if len(summary["exact"]) != len(ref["exact"]) or len(summary["close"]) != len(ref["close"]):
        return ["summary shape differs from the reference"]
    for i, (a, b) in enumerate(zip(summary["exact"], ref["exact"])):
        if a != b:
            problems.append(f"exact[{i}] = {a!r}, reference {b!r}")
    for i, (a, b) in enumerate(zip(summary["close"], ref["close"])):
        if not close(a, b):
            problems.append(f"close[{i}] = {a!r}, reference {b!r}")
    return problems


def chi2_1_sf(x):
    """Chi-square(1) survival function, computed without the library."""
    return math.erfc(math.sqrt(x / 2.0))


class McContam:
    """Contamination Monte Carlo: one op is one ``run_study`` over ten replicates.

    n = 400 Poisson, three U(0,1) covariates, no intercept, beta = (1, 1, 1),
    q in (1, 0.97, 0.91).  Ops rotate through the four acceptance-c5 cells.
    A unit is one (replicate, q) estimate and fails when non-converged.
    """

    name = "mc_contam"
    cells = ((0.05, 5.0), (0.25, 2.0), (0.05, 2.0), (0.25, 5.0))
    cycle = 4
    reps = 10
    q_list = (1.0, 0.97, 0.91)
    units_per_op = reps * len(q_list)
    n_ref = 8
    n_count = 8

    def __init__(self, lq, seed, workdir):
        self.lq = lq
        self.seed = seed

    def inputs(self, k):
        eps, nu = self.cells[k % len(self.cells)]
        return self.lq.SimDesign(
            n=400, eps=eps, nu=nu, reps=self.reps, q_list=self.q_list,
            seed=mixed_seed(self.name, self.seed, k),
        )

    def run(self, design):
        return self.lq.run_study(design, jobs=1)

    def inspect(self, design, report):
        summary = {
            "exact": [r["nonconverged"] for r in report.rows],
            "close": [x for r in report.rows for x in (r["bias"], r["iqr"])],
        }
        problems = []
        if [r["q"] for r in report.rows] != list(self.q_list):
            problems.append("report rows do not follow q_list")
        for r in report.rows:
            nc = r["nonconverged"]
            if not 0 <= nc <= self.reps:
                problems.append(f"nonconverged {nc} outside [0, {self.reps}]")
            if r["unreliable"] != (nc > 0.10 * self.reps):
                problems.append("unreliable flag disagrees with the non-converged count")
            if nc < self.reps and not (0.0 <= r["bias"] < 10.0 and 0.0 <= r["iqr"] < 10.0):
                problems.append(f"bias/iqr {r['bias']!r}/{r['iqr']!r} not finite and small")
        return summary, problems

    def failed_units(self, summary):
        return sum(summary["exact"])


class McTests:
    """Null calibration of the Wald, score and bilinear-form tests.

    One op is one null dataset (n = 400, beta = (0.8, 0), a fixed X per
    family drawn from the seed); ops alternate Poisson and Bernoulli.  Each op
    fits at q = 0.9 and runs the three tests of H = [0, 1], h = 0.
    """

    name = "mc_tests"
    families = ("poisson", "bernoulli")
    cycle = 2
    n = 400
    q = 0.9
    units_per_op = 1
    n_ref = 16
    n_count = 100

    def __init__(self, lq, seed, workdir):
        self.lq = lq
        self.seed = seed
        self.beta = np.array([0.8, 0.0])
        self.X = {}
        for j, fam in enumerate(self.families):
            rng = np.random.default_rng([seed, 1, j])
            self.X[fam] = rng.uniform(size=(self.n, 2))
        self.control = lq.FitControl(q=self.q)
        self.hyp = lq.LinearHypothesis([[0.0, 1.0]], [0.0])

    def inputs(self, k):
        fam = self.families[k % 2]
        X = self.X[fam]
        eta = X @ self.beta
        rng = np.random.default_rng([self.seed, 2, k])
        if fam == "poisson":
            y = rng.poisson(np.exp(eta)).astype(float)
        else:
            y = (rng.uniform(size=self.n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        return fam, X, y

    def run(self, inp):
        fam, X, y = inp
        lq, ctl, hyp = self.lq, self.control, self.hyp
        data = lq.ModelData(X, y, fam)
        fit = lq.fit_mlq(data, ctl)
        tests = (
            lq.wald_test(fit, hyp),
            lq.score_test(data, hyp, self.q, ctl),
            lq.bf_test(data, fit, hyp, self.q, ctl),
        )
        return fit, tests

    def inspect(self, inp, out):
        fit, tests = out
        summary = {
            "exact": [bool(fit.converged)],
            "close": [*map(float, fit.beta_q), *map(float, fit.se),
                      *(float(t.statistic) for t in tests)],
        }
        problems = []
        if [t.kind for t in tests] != ["wald", "score", "bilinear"]:
            problems.append("unexpected test kinds")
        for t in tests:
            if t.dof != 1 or not (math.isfinite(t.statistic) and t.statistic >= 0.0):
                problems.append(f"{t.kind}: statistic {t.statistic!r} with dof {t.dof}")
            elif abs(t.p_value - chi2_1_sf(t.statistic)) > 1e-9:
                problems.append(f"{t.kind}: p-value disagrees with chi2(1)")
        wald = float(fit.beta_q[1]) ** 2 / float(fit.cov[1, 1])
        if not close(wald, tests[0].statistic):
            problems.append("Wald statistic disagrees with beta_q and cov")
        return summary, problems

    def failed_units(self, summary):
        return 0


class SessionVaso:
    """Interactive CLI session on the bundled vaso data (n = 39).

    One op is five in-process ``lqglm.cli.main`` calls writing JSON files:
    selectq, fit at q = 0.79, the three tests dropping log(rate), quantile
    residuals and a quantile-residual envelope.  A unit is one subcommand and
    fails on a non-zero exit code; ``fit --q 0.79`` exits 2 with the current
    fitter (25-iteration cap), so one unit in five fails by design.
    """

    name = "session_vaso"
    subcommands = ("selectq", "fit", "test", "residuals", "envelope")
    cycle = 1
    envelope_reps = 20
    units_per_op = len(subcommands)
    n_ref = 2
    n_count = 4

    def __init__(self, lq, seed, workdir):
        self.lq = lq
        self.seed = seed
        H, h = os.path.join(workdir, "H.csv"), os.path.join(workdir, "h.csv")
        with open(H, "w") as fh:
            fh.write("0,0,1\n")  # columns: (intercept), log(volume), log(rate)
        with open(h, "w") as fh:
            fh.write("0\n")
        data = ["--data", str(lq.datasets.vaso_path()), "--response", "y",
                "--family", "bernoulli", "--log", "volume,rate"]
        self.argv = {
            "selectq": ["selectq", *data, "--grid", "0.70:0.01"],
            "fit": ["fit", *data, "--q", "0.79"],
            "test": ["test", *data, "--q", "0.9", "--stat", "all", "--H", H, "--h", h],
            "residuals": ["residuals", *data, "--q", "0.79", "--type", "quantile"],
            "envelope": ["envelope", *data, "--q", "0.79", "--type", "quantile",
                         "--reps", str(self.envelope_reps)],
        }
        self.outputs = {s: os.path.join(workdir, f"{s}.json") for s in self.subcommands}
        self.first = None

    def inputs(self, k):
        op_seed = str(mixed_seed(self.name, self.seed, k) % 2**31)
        return [
            self.argv[s] + (["--seed", op_seed] if s in ("residuals", "envelope") else [])
            + ["--output", self.outputs[s]]
            for s in self.subcommands
        ]

    def run(self, argvs):
        for path in self.outputs.values():
            if os.path.exists(path):
                os.remove(path)
        return [self.lq.cli.main(argv) for argv in argvs]

    def inspect(self, argvs, codes):
        docs = {}
        for s in self.subcommands:
            with open(self.outputs[s]) as fh:
                docs[s] = json.load(fh)
        fit, test = docs["fit"], docs["test"]
        res, env = docs["residuals"], docs["envelope"]
        summary = {
            "exact": [*codes, docs["selectq"]["q_opt"], fit["converged"], env["failed"]],
            "close": [*fit["beta_q"], *(t["statistic"] for t in test["tests"]),
                      *fingerprint(res["residuals"]), *fingerprint(env["observed"]),
                      *fingerprint(env["lower"]), *fingerprint(env["upper"])],
        }
        problems = []
        if any(d.get("schema") != "lq-glm/1" for d in docs.values()):
            problems.append("output document without the lq-glm/1 schema")
        for t in test["tests"]:
            if t["dof"] != 1 or abs(t["p_value"] - chi2_1_sf(t["statistic"])) > 1e-9:
                problems.append(f"test {t['kind']}: p-value disagrees with chi2(1)")
        res = np.asarray(res["residuals"], dtype=float)
        if res.shape != (39,) or not np.all(np.isfinite(res)):
            problems.append("quantile residuals are not 39 finite values")
        obs, lo, hi = (np.asarray(env[key], dtype=float) for key in ("observed", "lower", "upper"))
        if not (obs.shape == lo.shape == hi.shape == (39,) and np.all(lo <= hi)
                and np.all(np.diff(obs) >= 0)):
            problems.append("envelope bands are not ordered")
        if env["reps"] + env["failed"] != self.envelope_reps:
            problems.append("envelope replicates do not add up")
        # selectq, fit and test do not depend on the seed: every op must
        # reproduce the first op's outputs exactly.
        fixed = (summary["exact"][:7], summary["close"][:6])
        if self.first is None:
            self.first = fixed
        elif fixed != self.first:
            problems.append("seed-independent outputs differ from the first op")
        return summary, problems

    def failed_units(self, summary):
        return sum(code != 0 for code in summary["exact"][: self.units_per_op])


WORKLOADS = {w.name: w for w in (McContam, McTests, SessionVaso)}
