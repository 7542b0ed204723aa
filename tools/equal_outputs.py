"""Check that two checkouts give the same benchmark op outputs.

    python3 tools/equal_outputs.py ../lqglm-parent .
    python3 tools/equal_outputs.py PARENT CHANGE --seeds 0-7 --workload mc_tests

For each workload and seed, each checkout runs ops 0, 1, ... of the
workload in a fresh interpreter, importing ``lqglm`` from its own ``src/``
and the workload definitions from this repository's ``bench/workloads.py``
(read only: nothing under ``bench/`` is written).  Every op's ``inspect``
summary and problem list are compared by ``repr``, so a float that moves
by one ulp counts as a difference, and so is every document the op writes
(a workload's ``outputs`` files, such as ``session_vaso``'s five JSON
documents), byte for byte.  Prints the number of differing ops per
workload and exits 1 if there are any.

A change that reorders the arithmetic moves the floats by a few ulps, so
beside that count it prints per workload whether every discrete output
(the summary's ``exact`` list: exit codes, ``converged``,
``nonconverged``, ``q_opt``, the envelope's ``failed``) is identical, and
the largest relative difference ``|a - b| / max(|a|, |b|)`` between the
two checkouts' float outputs (the summary's ``close`` list).

A change may move only a document that the summary does not read (the
``selectq`` document's grid fits, say).  So for each written document
that differs in some op it also prints in how many ops it differs, the
largest relative difference among its numeric leaves (JSON numbers,
integers included) with the key path of that leaf, and whether its
strings, booleans, nulls, list lengths and key sets are identical, which
are compared exactly.  A
document that is not JSON is compared as text only.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Ops per seed and workload of the default comparison.
OPS = {"mc_contam": 24, "mc_tests": 100, "session_vaso": 4}


def emit(checkout, workload, seed, n_ops):
    """Print, as one JSON list, per op the repr of its written documents
    and its (summary, problems), and its summary."""
    sys.path[:0] = [str(Path(checkout).resolve() / "src"), str(ROOT / "bench")]
    import lqglm
    import lqglm.cli
    import lqglm.datasets

    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        wl = WORKLOADS[workload](lqglm, seed, workdir)
        out = []
        for k in range(n_ops):
            inp = wl.inputs(k)
            result = wl.run(inp)
            docs = {name: Path(path).read_text()
                    for name, path in getattr(wl, "outputs", {}).items()}
            summary, problems = wl.inspect(inp, result)
            out.append({"repr": repr((docs, (summary, problems))), "summary": summary,
                        "docs": docs})
    print(json.dumps(out))


def outputs(checkout, workload, seed, n_ops):
    proc = subprocess.run(
        [sys.executable, __file__, "--emit", str(checkout), workload, str(seed), str(n_ops)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def relative_difference(a, b):
    """``|a - b| / max(|a|, |b|)``; 0 where the two are equal (NaN
    included), inf where only one is NaN."""
    if a == b or (a != a and b != b):
        return 0.0
    if a != a or b != b:
        return float("inf")
    return abs(a - b) / max(abs(a), abs(b))


def leaf_difference(a, b, path=""):
    """``(largest, where, same)`` of two parsed JSON values: the largest
    relative difference between their numeric leaves, the key path of the
    first leaf that reaches it (``""`` when every leaf is equal), and
    whether everything else (strings, booleans, nulls, list lengths, key
    sets) is identical."""
    number = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, number) and isinstance(b, number)):
        if isinstance(a, dict) and isinstance(b, dict):
            pairs = [(k, a[k], b[k]) for k in a if k in b]
            same = a.keys() == b.keys()
        elif isinstance(a, list) and isinstance(b, list):
            pairs, same = list(zip(range(len(a)), a, b)), len(a) == len(b)
        else:
            return 0.0, "", type(a) is type(b) and a == b
        largest, where = 0.0, ""
        for k, x, y in pairs:
            d, at, s = leaf_difference(x, y, f"{path}/{k}")
            if d > largest:
                largest, where = d, at
            same = same and s
        return largest, where, same
    d = relative_difference(a, b)
    return d, path if d else "", True


def document_difference(a, b):
    """``leaf_difference`` of two documents' texts; ``(0.0, "", False)``
    when either is not JSON (and the texts differ)."""
    try:
        return leaf_difference(json.loads(a), json.loads(b))
    except ValueError:
        return 0.0, "", False


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--emit"]:
        checkout, workload, seed, n_ops = argv[1:]
        emit(checkout, workload, int(seed), int(n_ops))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the reference commit")
    ap.add_argument("change", type=Path, help="checkout of the changed commit")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-7"),
                    help="workload seeds, e.g. 0-7 or 1,4,9 (default 0-7)")
    ap.add_argument("--workload", choices=sorted(OPS), action="append",
                    help="workload to compare (repeatable; default all)")
    args = ap.parse_args(argv)
    differing = 0
    for workload in args.workload or list(OPS):
        n_ops, ops, diff, discrete, largest = OPS[workload], 0, 0, 0, 0.0
        # name: [differing ops, largest leaf difference, its key path, rest identical]
        documents = {}
        for seed in args.seeds:
            a = outputs(args.parent, workload, seed, n_ops)
            b = outputs(args.change, workload, seed, n_ops)
            ops += len(a)
            diff += sum(x["repr"] != y["repr"] for x, y in zip(a, b)) + abs(len(a) - len(b))
            for x, y in zip(a, b):
                for name in sorted(x["docs"].keys() | y["docs"].keys()):
                    da, db = x["docs"].get(name), y["docs"].get(name)
                    if da != db:
                        d, at, same = ((0.0, "", False) if None in (da, db)
                                       else document_difference(da, db))
                        entry = documents.setdefault(name, [0, 0.0, "", True])
                        entry[0] += 1
                        if d > entry[1]:
                            entry[1], entry[2] = d, at
                        entry[3] = entry[3] and same
                sx, sy = x["summary"], y["summary"]
                discrete += sx["exact"] != sy["exact"]
                if len(sx["close"]) == len(sy["close"]):
                    largest = max([largest, *map(relative_difference, sx["close"], sy["close"])])
                else:
                    largest = float("inf")
        print(f"{workload}: {diff} of {ops} ops differ; "
              + ("every discrete output identical" if not discrete
                 else f"{discrete} ops with a different discrete output")
              + f"; largest relative float difference {largest:.2g}")
        for name, (count, d, at, same) in documents.items():
            print(f"  document {name}: differs in {count} ops; largest relative difference of "
                  f"a numeric leaf {d:.2g}" + (f" (at {at})" if at else "")
                  + "; strings, booleans, nulls, list lengths and keys "
                  + ("identical" if same else "differ"))
        differing += diff
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
