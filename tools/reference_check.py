"""Check a checkout against every op that the benchmark's reference records.

    python3 tools/reference_check.py .
    python3 tools/reference_check.py ../lqglm-parent --workload mc_contam

``bench/reference.json`` holds the outputs of ops 0 .. ``n_ref - 1`` of
every recorded seed of each workload (32 seeds x 26 ops, 832 ops).  One
``bench/run.py`` run checks only its own seed, or its seed mod 32, so a
change of the fitter's arithmetic can pass a run and fail another seed.
This runs all of them: for each workload a fresh interpreter imports
``lqglm`` from CHECKOUT's ``src/`` and the workload definitions from this
repository's ``bench/workloads.py`` (read only: nothing under ``bench/``
is written), runs every recorded op, and checks it as the benchmark
does: the op's own ``inspect`` problems, then ``compare`` with its
recorded summary.  Prints per workload, and over all of them, the number
of failing ops and the largest scaled difference ``|a - b| / max(1, |a|,
|b|)`` of a float output from its recorded value (``compare`` fails one
above ``CLOSE_TOL``), lists the failing ops, and exits 1 if any op fails.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_contam", "mc_tests", "session_vaso")


def scaled_difference(a, b):
    """``|a - b| / max(1, |a|, |b|)``; 0 where both are NaN, inf where one is."""
    if a != a or b != b:
        return 0.0 if (a != a and b != b) else float("inf")
    return abs(a - b) / max(1.0, abs(a), abs(b))


def emit(checkout, workload):
    """Print, as one JSON object, the failing ops of every recorded seed
    of ``workload`` and the largest scaled difference of a float output."""
    sys.path[:0] = [str(Path(checkout).resolve() / "src"), str(ROOT / "bench")]
    import lqglm
    import lqglm.cli
    import lqglm.datasets

    from workloads import WORKLOADS as DEFINED
    from workloads import compare

    with open(ROOT / "bench" / "reference.json") as fh:
        table = json.load(fh)["workloads"][workload]
    ops, failing, largest = 0, [], 0.0
    with tempfile.TemporaryDirectory() as workdir:
        for seed, refs in sorted(table.items(), key=lambda kv: int(kv[0])):
            wl = DEFINED[workload](lqglm, int(seed), workdir)
            for k, ref in enumerate(refs):
                ops += 1
                inp = wl.inputs(k)
                try:
                    summary, problems = wl.inspect(inp, wl.run(inp))
                except Exception as e:  # a failed op, as the benchmark counts it
                    failing.append(f"seed {seed} op {k}: {type(e).__name__}: {e}")
                    continue
                problems = problems or compare(summary, ref)
                if len(summary["close"]) == len(ref["close"]):
                    largest = max([largest, *map(scaled_difference, summary["close"], ref["close"])])
                if problems:
                    failing.append(f"seed {seed} op {k}: {'; '.join(problems[:3])}")
    print(json.dumps({"ops": ops, "failing": failing, "largest": largest}))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--emit"]:
        emit(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path, help="checkout whose src/ is checked")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to check (repeatable; default all)")
    args = ap.parse_args(argv)
    total, ops, largest = 0, 0, 0.0
    for workload in args.workload or WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--emit", str(args.checkout), workload],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: {len(doc['failing'])} of {doc['ops']} ops fail; largest scaled "
              f"difference {doc['largest']:.2g}")
        for line in doc["failing"]:
            print(f"  {line}")
        total += len(doc["failing"])
        ops, largest = ops + doc["ops"], max(largest, doc["largest"])
    print(f"all: {total} of {ops} ops fail; largest scaled difference {largest:.2g}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
