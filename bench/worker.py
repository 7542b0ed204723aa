"""One benchmark process: set-up, then the closed loop of one workload.

Started by ``run.py`` in a fresh interpreter.  It imports ``lqglm`` from the
checkout's ``src/``, builds the workload's inputs, runs one untimed warm-up
op and prints ``READY {...}`` with those set-up times.  With
``--setup-only`` it stops there.  Otherwise it runs the timed loop for
``--seconds`` and prints ``RESULT {...}``.

``--trace 0``: one untraced pass; end-to-end metrics.
``--trace 1``: an untraced pass (30% of the time), then the same ops with
the tracer installed (70%), then the first ``n_count`` ops again, traced,
to check that the exact counts repeat.  Per-layer metrics come from the
traced pass; the tracing overhead compares it with the untraced pass over
the ops both ran.

Every time reported is normalised to the reference host speed with the
calibration kernel of ``hostspeed.py``: it runs after the op that ends
each 50 ms of the loop, and once more after set-up (the ``CALIB`` line).
The raw wall-clock figures travel beside the normalised ones.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Op index reserved for the untimed warm-up op, outside any timed run.
WARMUP_OP = 2**31 - 1
UNTRACED_SHARE = 0.3
# op_ms_p90 needs ten samples beyond it: the untraced loop of --trace 0 runs
# at least this many ops even past --seconds.
MIN_OPS = 100
# Kernel runs of the calibration block after set-up.
SETUP_CALIB_REPS = 21


def emit(tag, doc):
    print(tag, json.dumps(doc), flush=True)


def load_references(workload):
    with open(BENCH / "reference.json") as fh:
        doc = json.load(fh)
    return doc["seeds"], doc["workloads"][workload]


class Pass:
    """Latencies, units and problems of one run of the closed loop.

    The loop is cut into segments of about ``hostspeed.EVERY_S`` seconds,
    with a calibration block at each cut.  The speed factor of a segment
    (and of each of its ops) is ``REF_KERNEL_S`` over the median kernel time
    of the two blocks around it and the next block on either side.
    """

    def __init__(self):
        self.latencies = []  # raw seconds
        self.kernel = []  # kernel seconds of each calibration block
        self.seg_wall = []  # raw seconds of each segment (ops and their checks)
        self.seg_ops = []  # ops of each segment
        self.units = 0
        self.failed_units = 0
        self.failed_ops = 0
        self.problems = []

    @property
    def wall(self):
        return sum(self.seg_wall)

    def seg_factors(self):
        from hostspeed import REF_KERNEL_S

        k = self.kernel
        return [REF_KERNEL_S / statistics.median(k[max(0, j - 1): j + 3])
                for j in range(len(k) - 1)]

    def norm_wall(self):
        return sum(w * f for w, f in zip(self.seg_wall, self.seg_factors()))

    def factor(self):
        """Time-weighted speed factor of the whole pass."""
        return self.norm_wall() / self.wall

    def norm_latencies(self):
        factors = [f for f, n in zip(self.seg_factors(), self.seg_ops) for _ in range(n)]
        return [x * f for x, f in zip(self.latencies, factors)]

    def close_segment(self, seg_start, seg_ops):
        from hostspeed import sample

        self.seg_wall.append(perf_counter() - seg_start)
        self.seg_ops.append(seg_ops)
        self.kernel.append(sample())


def run_pass(wl, seconds, refs=(), tracer=None, min_ops=0):
    """Run ops 0, 1, ... until ``seconds`` are up, ending on a whole cycle."""
    from hostspeed import EVERY_S, sample
    from workloads import compare

    p = Pass()
    deadline = perf_counter() + seconds
    p.kernel.append(sample())
    seg_start = perf_counter()
    seg_ops = k = 0
    while k < min_ops or k % wl.cycle or perf_counter() < deadline:
        inp = wl.inputs(k)
        if tracer:
            tracer.begin_op(k)
        t0 = perf_counter()
        try:
            out = wl.run(inp)
            err = None
        except Exception as e:  # counted as a failed op and reported
            err = e
        t1 = perf_counter()
        if tracer:
            tracer.end_op()
        p.latencies.append(t1 - t0)
        problems = [f"{type(err).__name__}: {err}"] if err else []
        if not err:
            try:
                summary, problems = wl.inspect(inp, out)
            except Exception as e:  # unreadable output fails the check
                problems = [f"output not readable: {type(e).__name__}: {e}"]
            if not problems and k < len(refs):
                problems = compare(summary, refs[k])
        p.units += wl.units_per_op
        if problems:
            p.failed_ops += 1
            p.failed_units += wl.units_per_op
            p.problems.append(f"op {k}: {'; '.join(problems[:3])}")
        else:
            p.failed_units += wl.failed_units(summary)
        k += 1
        seg_ops += 1
        if perf_counter() - seg_start >= EVERY_S:
            p.close_segment(seg_start, seg_ops)
            seg_ops = 0
            seg_start = perf_counter()
    if seg_ops:
        p.close_segment(seg_start, seg_ops)
    return p


def latency_figures(lat_s, ops_per_s):
    lat_ms = [x * 1e3 for x in lat_s]
    return {
        "ops_per_s": ops_per_s,
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
    }


def e2e_metrics(p):
    m = latency_figures(p.norm_latencies(), len(p.latencies) / p.norm_wall())
    m["units_ok_ratio"] = 1.0 - p.failed_units / p.units
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def raw_figures(p):
    """Wall-clock figures of a pass, before normalisation, and its host speed."""
    from hostspeed import REF_KERNEL_S

    m = latency_figures(p.latencies, len(p.latencies) / p.wall)
    m.update(kernel_ms=1e3 * statistics.median(p.kernel), factor=p.factor(),
             ref_kernel_ms=1e3 * REF_KERNEL_S)
    return m


def layer_metrics(tracer, ops, counted, factor):
    """Per-layer metrics: times over the ``ops`` traced ops, normalised with
    the pass's speed ``factor``; counts over the first ``counted`` of them
    (those repeat exactly for a seed)."""
    ms = 1e3 * factor
    times = tracer.times()
    layer_self = tracer.layer_self()
    c = sum(tracer.op_counts[:counted], Counter())

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_per_op(name, self_only=False):
        calls, total, own = times.get(name, (0, 0.0, 0.0))
        return ms * (own if self_only else total) / ops

    def per_op(key):
        return c[key] / counted

    fits_timed = times["fit.fit_mlq"][0]
    m = {
        "families.calls_per_iter": ratio(c["families"], c["iterations"]),
        "families.c_calls_per_iter": ratio(c["families.c"], c["iterations"]),
        "families.cdf_calls_per_op": per_op("families.cdf"),
        "families.self_ms_per_op": ms * layer_self["families"] / ops,
        "fit.fits_per_op": per_op("fits"),
        "fit.iters_per_fit": ratio(c["iterations"], c["fits"]),
        "fit.nonconverged_ratio": ratio(c["fits_nonconverged"], c["fits"]),
        "fit.ms_per_fit": ms * ratio(times["fit.fit_mlq"][1], fits_timed),
        "fit.self_ms_per_fit": ms * ratio(layer_self["fit"], fits_timed),
        "fit.estimating_function.calls_per_iter":
            ratio(c["fit.estimating_function"], c["iterations"]),
        "fit.matrices_ab.ms_per_op": ms_per_op("fit.matrices_ab"),
        "numerics.solve_spd.calls_per_fit": ratio(c["numerics.solve_spd"], c["fits"]),
        "numerics.solve_spd.ms_per_op": ms_per_op("numerics.solve_spd"),
        "numerics.rng_stream.calls_per_op": per_op("numerics.rng_stream"),
        "model.ModelData.calls_per_op": per_op("model.ModelData"),
        "model.ModelData.ms_per_op": ms_per_op("model.ModelData"),
        "diagnostics.wald_test.ms_per_op": ms_per_op("diagnostics.wald_test"),
        "diagnostics.score_test.self_ms_per_op": ms_per_op("diagnostics.score_test", True),
        "diagnostics.bf_test.self_ms_per_op": ms_per_op("diagnostics.bf_test", True),
        "diagnostics.quantile_residuals.self_ms_per_op":
            ms_per_op("diagnostics.quantile_residuals", True),
        "diagnostics.simulation_envelope.self_ms_per_op":
            ms_per_op("diagnostics.simulation_envelope", True),
        "diagnostics.envelope_failed_per_op": per_op("envelope_failed"),
        "qselect.select_q_stability.ms_per_op": ms_per_op("qselect.select_q_stability"),
        "qselect.grid_fits_per_op": per_op("grid_fits"),
        "qselect.iters_per_grid_fit": ratio(c["grid_iterations"], c["grid_fits"]),
        "qselect.dropped_per_op": per_op("grid_dropped"),
        "simulate.run_study.self_ms_per_op": ms_per_op("simulate.run_study", True),
        "simulate.contaminate.ms_per_op": ms_per_op("simulate.contaminate"),
        "simulate.nonconverged_per_op": per_op("sim_nonconverged"),
        # parsing, CSV load and JSON write: self time of main and the handlers
        "cli.main.self_ms_per_op": ms * layer_self["cli"] / ops,
        "cli.exit_nonzero_per_op": per_op("exit_nonzero"),
    }
    for sub in ("selectq", "fit", "test", "residuals", "envelope"):
        m[f"cli.{sub}.ms_per_op"] = ms_per_op(f"cli.cmd_{sub}")
    return m


def exact_count_problems(first, again):
    from tracer import EXACT_COUNTS

    problems = []
    for k, (a, b) in enumerate(zip(first, again)):
        diff = [key for key in EXACT_COUNTS if a[key] != b[key]]
        if diff:
            problems.append(f"op {k}: counts {diff} differ between two traced runs "
                            f"({[a[x] for x in diff]} vs {[b[x] for x in diff]})")
    return problems


def measure(lq, wl, args, workdir):
    from workloads import WORKLOADS

    n_seeds, table = load_references(args.workload)
    refs = table.get(str(args.seed), [])
    result = {"problems": []}
    if not args.trace:
        p = run_pass(wl, args.seconds, refs, min_ops=MIN_OPS)
        passes = [p]
        result["metrics"] = e2e_metrics(p)
    else:
        from tracer import Tracer

        untraced = run_pass(wl, UNTRACED_SHARE * args.seconds, refs)
        tracer = Tracer(lq)
        tracer.install()
        try:
            traced = run_pass(wl, (1 - UNTRACED_SHARE) * args.seconds, refs, tracer,
                              min_ops=wl.n_count)
            metrics = layer_metrics(tracer, len(traced.latencies), wl.n_count,
                                    traced.factor())
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
            first = tracer.op_counts[: wl.n_count]
            tracer.reset_ops()
            tracer.clear_spans()
            replay = run_pass(wl, 0.0, refs, tracer, min_ops=wl.n_count)
            result["problems"] += exact_count_problems(first, tracer.op_counts)
        finally:
            tracer.uninstall()
        m = min(len(untraced.latencies), len(traced.latencies))
        base = sum(untraced.norm_latencies()[:m])
        extra = sum(traced.norm_latencies()[:m]) - base
        metrics["trace.overhead_pct"] = 100.0 * extra / base
        metrics["trace.overhead_ms_per_op"] = 1e3 * extra / m
        metrics["host.kernel_ms"] = 1e3 * statistics.median(traced.kernel)
        passes = [untraced, traced, replay]
        result["metrics"] = metrics
        result["trace_ops"] = len(traced.latencies)
    if not refs:
        # Seed outside the recorded table: check the recorded ops of another
        # seed, untimed, so every run is compared with the recorded outputs.
        ref_seed = args.seed % n_seeds
        ref_wl = WORKLOADS[args.workload](lq, ref_seed, workdir)
        p = run_pass(ref_wl, 0.0, table[str(ref_seed)], min_ops=ref_wl.n_ref)
        result["problems"] += [f"reference seed {ref_seed}, {x}" for x in p.problems]
    for p in passes:
        result["problems"] += p.problems
    result.update(
        attempted=sum(len(p.latencies) for p in passes),
        failed=sum(p.failed_ops for p in passes),
        ops=len(passes[0].latencies),
        units=passes[0].units,
        failed_units=passes[0].failed_units,
        raw=raw_figures(passes[0]),
    )
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # lqglm is imported before the benchmark's own modules (which import
    # numpy), so that its import time includes numpy's.
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import lqglm
    import lqglm.cli
    import lqglm.datasets

    if Path(lqglm.__file__).resolve().parent != SRC / "lqglm":
        raise SystemExit(f"lqglm imported from {lqglm.__file__}, not from {SRC}")
    t1 = perf_counter()
    import hostspeed
    from workloads import WORKLOADS

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](lqglm, args.seed, str(workdir))
        t2 = perf_counter()
        warm = wl.inputs(WARMUP_OP)
        wl.run(warm)
        t3 = perf_counter()
        emit("READY", {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2})
        # The host's speed right after set-up, to normalise the set-up times.
        hostspeed.warm_up()
        kernel_s = hostspeed.sample(SETUP_CALIB_REPS)
        emit("CALIB", {"kernel_s": kernel_s, "factor": hostspeed.REF_KERNEL_S / kernel_s})
        if not args.setup_only:
            emit("RESULT", measure(lqglm, wl, args, str(workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
