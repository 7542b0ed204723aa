"""Record the benchmark's end-to-end metrics of one commit in BENCH_<short-sha>.json.

    python3 tools/bench_record.py --seeds 1401,1402,1403,1404,1405
    python3 tools/bench_record.py --seeds 41,42,43 --against ../lqglm-parent

For each seed and each workload of the checkout's BENCHMARK.json this runs

    python3 bench/run.py --workload W --seed S --seconds 25 --trace 0

with the run length BENCHMARK.json states (``run_seconds``), from the root
of the checkout (``--repo``, by default the one holding this script), one
run at a time.  The file it writes holds the commit, the machine, every
run's JSON result, and per workload the median and quartiles of each
end-to-end metric over the seeds.  The times in it are normalised
to the benchmark's reference host speed, but only files recorded on the
same machine compare: a speed claim is a before/after pair of them.

With ``--against PARENT`` the checkout PARENT and ``--repo`` run each seed
and workload back to back, PARENT first on the first, third, ... seed of
the list and ``--repo`` first on the others, and a file is written for
each of the two commits, so that a drift of the host's speed over the
recording, or an advantage of running first or second, reaches both
files alike.  Each checkout's ``src/`` and ``bench/``
must be committed, because the file names the commit, and no existing
file is overwritten.  Once both files are written, it prints for each
workload and end-to-end metric the ratio of the ``--repo`` median to the
PARENT median, and on how many seeds ``--repo`` did better than PARENT.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def machine():
    """The hardware and software the runs measured."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {"cpu": cpu, "cores": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run_once(repo, workload, seed, seconds):
    """The JSON result (last stdout line) of one untraced benchmark run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: bench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summary(runs):
    """Median and quartiles of each metric over the runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def refusal(repo, out):
    """Why ``repo`` cannot be recorded into ``out``, else None."""
    if git(repo, "status", "--porcelain", "--", "src", "bench", "BENCHMARK.json"):
        return f"{repo} has uncommitted changes under src/ or bench/"
    path = out / f"BENCH_{git(repo, 'rev-parse', '--short', 'HEAD')}.json"
    if path.exists():
        return f"{path} exists; move it away to record again"
    return None


def spec(repo):
    with open(repo / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return [w["name"] for w in doc["workloads"]], doc["run_seconds"]


def comparison(parent, change, repo):
    """One line per workload and end-to-end metric of ``repo``'s
    BENCHMARK.json: the ratio of the change's median to the parent's, and
    the seeds on which the change did better (``parent`` and ``change``
    map each workload to its runs, seed by seed)."""
    with open(repo / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    lines = []
    for w, runs in change.items():
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            old = [r["metrics"][name]["value"] for r in parent[w]]
            new = [r["metrics"][name]["value"] for r in runs]
            won = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
            median = statistics.median(old)
            ratio = statistics.median(new) / median if median else float("nan")
            lines.append(f"{w} {name}: {ratio:.4f}x the parent's median ({ratio - 1:+.1%}), "
                         f"better on {won} of {len(new)} seeds")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--against", type=Path,
                    help="checkout of the parent commit, run next to --repo on each seed "
                         "and workload (first on alternate seeds) and recorded in its own file")
    ap.add_argument("--seeds", required=True,
                    help="comma-separated workload seeds, e.g. 1401,1402,1403")
    ap.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH files")
    args = ap.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        ap.error("--seeds must be comma-separated integers")
    if any(s < 0 for s in seeds):
        ap.error("seeds must be >= 0")
    repos = [r.resolve() for r in (args.against, args.repo) if r is not None]
    for repo in repos:
        why = refusal(repo, args.out)
        if why:
            print(f"bench_record: {why}", file=sys.stderr)
            return 2
    shas = [git(repo, "rev-parse", "HEAD") for repo in repos]
    shorts = [git(repo, "rev-parse", "--short", "HEAD") for repo in repos]
    if len(set(shas)) < len(shas):
        print("bench_record: --against and --repo are the same commit", file=sys.stderr)
        return 2
    workloads, seconds = spec(repos[-1])
    if any(spec(repo) != (workloads, seconds) for repo in repos):
        print("bench_record: the checkouts declare different workloads or run lengths",
              file=sys.stderr)
        return 2
    runs = [{w: [] for w in workloads} for _ in repos]
    order = list(zip(repos, shorts, runs))
    for i, seed in enumerate(seeds):
        for w in workloads:
            for repo, short, record in (order if i % 2 == 0 else order[::-1]):
                doc = run_once(repo, w, seed, seconds)
                record[w].append(dict(seed=seed, **doc))
                print(f"{short} {w} seed {seed}: "
                      f"ops_per_s {doc['metrics']['ops_per_s']['value']:.4g} "
                      f"correct={doc['correct']}", file=sys.stderr)
    for k, (sha, short, record) in enumerate(zip(shas, shorts, runs)):
        path = args.out / f"BENCH_{short}.json"
        doc = {
            "commit": sha,
            "machine": machine(),
            "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                       "--trace 0",
            "seeds": seeds,
            "workloads": {w: {"metrics": summary(record[w]), "runs": record[w]}
                          for w in workloads},
        }
        if len(repos) > 1:
            doc["interleaved_with"] = shas[1 - k]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(path)
    if len(repos) > 1:
        print("\n".join(comparison(*runs, repos[-1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
