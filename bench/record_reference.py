"""Record the reference outputs that benchmark runs are checked against.

    python3 bench/record_reference.py

For every workload and every seed below ``SEEDS`` it runs the first
``n_ref`` ops and stores their summaries in ``bench/reference.json``.  Run it
only on a commit whose outputs are meant to become the reference, and say
so in the change that updates the file.
"""

import json
import shutil
import sys
from pathlib import Path

from worker import OUT, SRC
from workloads import WORKLOADS

SEEDS = 32


def main():
    sys.path.insert(0, str(SRC))
    import lqglm
    import lqglm.cli
    import lqglm.datasets

    workdir = OUT / "tmp-record"
    workdir.mkdir(parents=True, exist_ok=True)
    doc = {"seeds": SEEDS, "workloads": {}}
    try:
        for name, cls in WORKLOADS.items():
            table = doc["workloads"][name] = {}
            for seed in range(SEEDS):
                wl = cls(lqglm, seed, str(workdir))
                rows = []
                for k in range(cls.n_ref):
                    inp = wl.inputs(k)
                    summary, problems = wl.inspect(inp, wl.run(inp))
                    if problems:
                        raise SystemExit(f"{name} seed {seed} op {k}: {problems}")
                    rows.append(summary)
                table[str(seed)] = rows
            print(f"{name}: {SEEDS} seeds x {cls.n_ref} ops", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(Path(__file__).with_name("reference.json"), "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
