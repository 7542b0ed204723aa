"""Spans and counts at the boundaries of the ``lqglm`` modules.

The tracer wraps, from outside, every public function of the package at
every module binding that holds it (``lqglm.fit.solve_spd``,
``lqglm.model.solve_spd``, ``lqglm.cli.fit_mlq``, the package namespace the
benchmark calls through, ...), the public methods of the family and
theta-link classes, and ``ModelData.__init__``.  Nothing under ``src/``
changes; untraced runs never construct a tracer.

Each wrapped call is a span: name, start, end, parent span and op id, kept
in compact arrays and written out at the end.  Self time (duration minus
the time covered by child spans) is accumulated as spans close.  A few
result hooks count what the public results report: fit iterations and
convergence, grid fits of q selection, envelope failures, simulation
non-convergence and CLI exit codes.
"""

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("families", "numerics", "model", "fit", "diagnostics", "qselect",
           "simulate", "cli", "datasets")
CLASSES = {
    "families": ("Family", "Bernoulli", "Poisson", "Gaussian",
                 "ThetaLink", "CanonicalLink", "PowerThetaLink"),
}

# Counts that must repeat exactly when an op is run twice.
EXACT_COUNTS = ("fits", "iterations", "families", "numerics.solve_spd", "families.cdf")


def _hook_fit(counts, parent, res):
    counts["fits"] += 1
    counts["iterations"] += res.iterations
    counts["fits_nonconverged"] += not res.converged
    if parent == "qselect.select_q_stability":
        counts["grid_fits"] += 1
        counts["grid_iterations"] += res.iterations


HOOKS = {
    "fit.fit_mlq": _hook_fit,
    "qselect.select_q_stability":
        lambda counts, parent, res: counts.update(grid_dropped=len(res.dropped)),
    "diagnostics.simulation_envelope":
        lambda counts, parent, res: counts.update(envelope_failed=res.failed),
    "simulate.run_study":
        lambda counts, parent, res: counts.update(
            sim_nonconverged=sum(r["nonconverged"] for r in res.rows)),
    "cli.main": lambda counts, parent, res: counts.update(exit_nonzero=int(res != 0)),
}


class Tracer:
    def __init__(self, lq):
        self.lq = lq
        self.names = []
        self.layer_of = []
        self.calls = Counter()   # name id -> calls
        self.total = Counter()   # name id -> seconds inside the span
        self.self_time = Counter()  # name id -> seconds not covered by child spans
        self.counts = Counter()  # per-layer calls and hook counts
        self.op_counts = []      # one Counter per finished op
        self.op = -1
        self._op_start = Counter()
        self._stack = []
        self._name_id = array("H")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._patched = []

    # -- installation ------------------------------------------------------
    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".")[0]
        self.layer_of.append(layer)
        hook = HOOKS.get(name)
        stack, calls, total, self_time, counts = (
            self._stack, self.calls, self.total, self.self_time, self.counts)
        name_id, parent_a, op_a, start_a, end_a = (
            self._name_id, self._parent, self._op, self._start, self._end)

        def traced(*args, **kwargs):
            idx = len(start_a)
            parent = stack[-1] if stack else None
            name_id.append(nid)
            parent_a.append(parent[0] if parent else -1)
            op_a.append(self.op)
            end_a.append(0.0)
            frame = [idx, 0.0, nid]
            stack.append(frame)
            t0 = perf_counter()
            start_a.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                end_a[idx] = t1
                dur = t1 - t0
                if parent:
                    parent[1] += dur
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
                counts[layer] += 1
                counts[name] += 1
            if hook:
                hook(counts, self.names[parent[2]] if parent else None, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        lq = self.lq
        wrapped = {}  # original function -> wrapper, shared by all bindings
        modules = {m: getattr(lq, m) for m in MODULES}

        def wrapper_for(fn):
            if fn not in wrapped:
                layer = fn.__module__.split(".")[1]
                wrapped[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
            return wrapped[fn]

        for owner in (lq, *modules.values()):
            for attr, value in list(vars(owner).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__.startswith("lqglm.")
                        and value.__module__.split(".")[1] in MODULES):
                    self._set(owner, attr, wrapper_for(value))
        for mod, classes in CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[mod], cls_name)
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and not attr.startswith("_"):
                        self._set(cls, attr, self._wrap(value, f"{mod}.{attr}"))
        model_data = modules["model"].ModelData
        self._set(model_data, "__init__", self._wrap(model_data.__init__, "model.ModelData"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- ops -----------------------------------------------------------------
    def begin_op(self, k):
        self.op = k
        self._op_start = self.counts.copy()

    def end_op(self):
        diff = self.counts.copy()
        diff.subtract(self._op_start)
        self.op_counts.append(+diff)
        self.op = -1

    def reset_ops(self):
        self.op_counts = []

    # -- results -------------------------------------------------------------
    def times(self):
        """Per-name totals: {name: (calls, total_s, self_s)} (names merge)."""
        out = {}
        for nid, name in enumerate(self.names):
            c, t, s = out.get(name, (0, 0.0, 0.0))
            out[name] = (c + self.calls[nid], t + self.total[nid], s + self.self_time[nid])
        return out

    def layer_self(self):
        out = Counter()
        for nid, layer in enumerate(self.layer_of):
            out[layer] += self.self_time[nid]
        return out

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self._name_id, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

    def clear_spans(self):
        for a in (self._name_id, self._parent, self._op, self._start, self._end):
            del a[:]
