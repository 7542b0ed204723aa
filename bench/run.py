"""lqglm benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload mc_contam --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (``src/lqglm`` must be there; nothing needs
to be installed).  Set-up time is measured in fresh interpreters: four
set-up-only probes plus the measuring process itself, reported as their
median; one more probe runs under ``python -X importtime`` for the import
split.  The measuring process then runs the workload's closed loop (see
``worker.py``).  A table goes to standard output, and the last line is the
JSON result:

    {"correct": ..., "attempted": <ops>, "failed": <ops>, "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  Every time in the JSON is normalised to the reference host
speed (``hostspeed.py``); the table prints the raw wall-clock figures beside
them.  See ``bench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PROBES = 4
# One client in one single-threaded process: BLAS gets no thread pool.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
TIME_LIMIT_S = 170.0


def load_spec():
    """Workload names and metric specs from the repository's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [w["name"] for w in spec["workloads"]], spec["end_to_end"], spec["per_layer"]


class Child:
    """A worker process killed at the run's deadline if still running."""

    def __init__(self, argv, deadline, **popen):
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=ENV,
                                     **popen)
        self.timer = threading.Timer(max(1.0, deadline - perf_counter()), self.proc.kill)
        self.timer.start()

    def line(self, tag):
        """The JSON payload of the next stdout line tagged ``tag``."""
        for text in self.proc.stdout:
            if text.startswith(tag + " "):
                return json.loads(text[len(tag) + 1:])
        raise RuntimeError(f"worker ended without a {tag} line (exit {self.proc.wait()})")

    def close(self):
        """Wait for the worker to finish its clean-up and exit (the timer
        kills it at the deadline)."""
        self.proc.wait()
        self.timer.cancel()
        if self.proc.stdout:
            self.proc.stdout.close()


def importtime_split(argv, deadline):
    """Cumulative import seconds of lqglm and scipy.stats from ``-X importtime``."""
    child = Child([sys.executable, "-X", "importtime", *argv], deadline, stderr=subprocess.PIPE)
    try:
        _, err = child.proc.communicate()
    finally:
        child.close()
    split = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$", line)
        if m and m.group(2) in ("lqglm", "scipy.stats"):
            split[m.group(2)] = int(m.group(1)) * 1e-6
    if set(split) != {"lqglm", "scipy.stats"}:
        raise RuntimeError("-X importtime output lacks lqglm or scipy.stats")
    return split


def set_up(child, t0):
    """(wall seconds to READY, READY payload with the speed factor of the
    host measured right after it)."""
    ready = child.line("READY")
    wall = perf_counter() - t0
    ready["factor"] = child.line("CALIB")["factor"]
    return wall, ready


def run(args):
    deadline = perf_counter() + TIME_LIMIT_S
    worker = [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setup = []  # (wall seconds to READY, READY payload)
    for _ in range(PROBES):
        t0 = perf_counter()
        child = Child([sys.executable, *worker, "--setup-only"], deadline)
        try:
            setup.append(set_up(child, t0))
        finally:
            child.close()
    split = importtime_split([*worker, "--setup-only"], deadline)
    t0 = perf_counter()
    child = Child([sys.executable, *worker, "--seconds", repr(args.seconds),
                   "--trace", str(args.trace)], deadline)
    try:
        setup.append(set_up(child, t0))
        result = child.line("RESULT")
        code = child.proc.wait()
    finally:
        child.close()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return setup, split, result


def setup_factor(setup):
    """The host's speed factor over the set-up samples: the median of the
    factors measured right after each (one snapshot each, so a single one
    may catch the host in another mode than its set-up ran in)."""
    return statistics.median(ready["factor"] for _, ready in setup)


def median_of(setup, key):
    """Median over the set-up samples of ``key``, normalised."""
    return statistics.median(ready[key] for _, ready in setup) * setup_factor(setup)


def report(args, specs, setup, split, result):
    walls = [w for w, _ in setup]
    setup_s = statistics.median(walls) * setup_factor(setup)
    factors = [ready["factor"] for _, ready in setup]
    raw = result["raw"]
    ops, units, failed_units = result["ops"], result["units"], result["failed_units"]
    if args.trace:
        metrics = dict(result["metrics"])
        metrics.update({
            "setup.import_s": median_of(setup, "import_s"),
            "setup.import_scipy_stats_s": split["scipy.stats"] * setup_factor(setup),
            "setup.inputs_s": median_of(setup, "inputs_s"),
            "setup.warmup_s": median_of(setup, "warmup_s"),
        })
    else:
        metrics = dict(result["metrics"], setup_s=setup_s)

    mode = "traced" if args.trace else "untraced"
    print(f"lqglm benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  {mode}")
    print(f"  ops={ops} (closed loop, one client)  "
          f"failed_ratio={failed_units / units:.4f} ({failed_units}/{units} units)")
    print(f"  raw wall clock: ops_per_s {raw['ops_per_s']:.4g}, op_ms_p50 "
          f"{raw['op_ms_p50']:.4g} ms, op_ms_p90 {raw['op_ms_p90']:.4g} ms; host kernel "
          f"{raw['kernel_ms']:.4g} ms, speed factor {raw['factor']:.3f} "
          f"(reference {raw['ref_kernel_ms']:g} ms)")
    print(f"  setup_s samples (fresh interpreters, raw): "
          f"{', '.join(f'{w:.3f}' for w in walls)}; speed factors "
          f"{', '.join(f'{f:.3f}' for f in factors)}; raw import lqglm "
          f"{statistics.median(r['import_s'] for _, r in setup):.3f} s, of which scipy.stats "
          f"{split['scipy.stats']:.3f} s (-X importtime, lqglm {split['lqglm']:.3f} s)")
    if args.trace:
        print(f"  traced ops={result['trace_ops']}; counts over the first ops of the "
              f"traced pass; spans in .bench_out/")
    if set(metrics) != {s["name"] for s in specs}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {s['name'] for s in specs})}")
    print("  normalised to the reference host speed:")
    for s in specs:
        note = f"  (n={ops})" if s["name"] in ("op_ms_p50", "op_ms_p90") else ""
        print(f"  {s['name']:<48} {metrics[s['name']]:>14.6g} {s['unit']}{note}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    correct = not result["problems"]
    doc = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(doc))
    return 0 if correct else 1


def main(argv=None):
    if not (ROOT / "src" / "lqglm" / "__init__.py").is_file():
        print(f"bench: no src/lqglm under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    workloads, end_to_end, per_layer = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        setup, split, result = run(args)
        return report(args, per_layer if args.trace else end_to_end, setup, split, result)
    except (RuntimeError, OSError, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
