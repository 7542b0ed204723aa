"""Time two checkouts' benchmark ops against each other in one interpreter.

    python3 tools/ab_ops.py ../lqglm-parent .
    python3 tools/ab_ops.py PARENT CHANGE --workload session_vaso

Each checkout's ``src/lqglm`` is imported under its own module name
(``lqglm_parent`` and ``lqglm_change``) into this one interpreter, and
the ops of a workload from this repository's ``bench/workloads.py`` (read
only: nothing under ``bench/`` is written) run on both, interleaved op by
op: each op's inputs run on the two sides in the order ABBA, twice on
each side, and the side that goes first alternates from op to op.  A
round is ``OPS`` consecutive ops of seed ``SEED``, ``ROUNDS`` of them
are timed, and a round's ratio is the CHANGE time over the PARENT time,
each summed over the round's runs; only ``run`` is timed, as the
benchmark times it.  Interleaving op by op puts both sides
in the same few milliseconds of the host, so a swing of its speed
reaches both alike, which separate runs of several seconds do not; the
ABBA order gives each side the first and the second place of every op
once, so the advantage of running an op right after the other side ran
it (warm caches) cancels too.  Prints each round's ratio, their median,
and in how many rounds CHANGE was faster.

Report an A/A ratio on the same workload beside any claim: an A/A run
compares a checkout with a byte-identical copy of itself
(``git archive HEAD | tar -x -C ../lqglm-copy``), so its distance from 1
is the noise of this comparison.  On a 2-core host, A/A medians read
0.968-0.996 on mc_tests (the copy "faster" in 5-8 of 10 rounds),
0.999-1.004 on mc_contam and 0.996-1.021 on session_vaso, so there a
ratio within about 3% of 1 is no signal.

``lqglm.datasets`` finds its bundled data through the package that holds
it, but a checkout from before that looks it up through the package named
``lqglm``, so CHANGE's ``src`` is also importable under that name; both
checkouts ship the same data.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_contam", "mc_tests", "session_vaso")
# The workload seed, the number of rounds and the ops in a round.
SEED, ROUNDS, OPS = 0, 10, 10


def load(checkout, name):
    """Import ``checkout``'s ``src/lqglm`` as the package ``name``, with
    the ``cli`` and ``datasets`` submodules the workloads use."""
    pkg = Path(checkout).resolve() / "src" / "lqglm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("cli", "datasets"):
        importlib.import_module(f"{name}.{sub}")
    return module


def interleave(parent, change, rounds, ops):
    """Time ``parent(k)`` and ``change(k)`` for ops k = 0, 1, ...,
    ``rounds * ops - 1``, in the order ABBA with the parent first on even
    k; returns per round the summed ``(parent, change)`` seconds.  Each
    callable returns a callable that runs its op, so that only the op
    itself is timed."""
    times = []
    for r in range(rounds):
        gc.collect()
        t = [0.0, 0.0]
        for k in range(r * ops, (r + 1) * ops):
            for side in (0, 1, 1, 0) if k % 2 == 0 else (1, 0, 0, 1):
                op = (parent, change)[side](k)
                t0 = perf_counter()
                op()
                t[side] += perf_counter() - t0
        times.append(tuple(t))
    return times


def workload_ops(wl):
    """The op callable of ``interleave`` for the workload object ``wl``:
    op k's inputs are made untimed and bound to ``wl.run``."""
    def op(k):
        inp = wl.inputs(k)
        return lambda: wl.run(inp)
    return op


def report(label, times):
    """Lines giving each round's CHANGE/PARENT ratio, their median and the
    number of rounds CHANGE won."""
    ratios = [c / p for p, c in times]
    lines = [f"{label}: {len(times)} rounds"]
    lines += [f"  round {i}: {x:.3f} (parent {p * 1e3:.1f} ms, change {c * 1e3:.1f} ms)"
              for i, (x, (p, c)) in enumerate(zip(ratios, times))]
    lines.append(f"  median CHANGE/PARENT {statistics.median(ratios):.3f}; "
                 f"CHANGE faster in {sum(x < 1.0 for x in ratios)} of {len(ratios)} rounds")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the reference commit")
    ap.add_argument("change", type=Path, help="checkout of the changed commit")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to time (repeatable; default all)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.change.resolve() / "src"), str(ROOT / "bench")]
    from workloads import WORKLOADS as DEFINED

    sides = [load(args.parent, "lqglm_parent"), load(args.change, "lqglm_change")]
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload or WORKLOADS:
            wls = []
            for side, lq in enumerate(sides):
                wd = Path(workdir) / f"{name}-{side}"
                wd.mkdir()
                wls.append(DEFINED[name](lq, SEED, str(wd)))
            for wl in wls:  # untimed warm-up
                wl.run(wl.inputs(0))
            times = interleave(*map(workload_ops, wls), ROUNDS, OPS)
            print("\n".join(report(f"{name}, seed {SEED}, {OPS} ops a round", times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
