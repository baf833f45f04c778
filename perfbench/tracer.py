"""Span tracing of flexjoint's public functions, installed from outside.

Each target is matched by identity: the tracer looks the original object up
once, then replaces every binding of that object in every loaded
``flexjoint`` module (``from .plant import euler_step`` in ``control`` is
such a binding) and, for methods, the class attribute.  A name-based patch
would silently lose a span once a later refactor moves an import.

Spans live in flat arrays while the program runs (one entry per call: name,
start, end, parent span, operation id, whether it failed) and are written
out by ``save``; ``layer_metrics`` turns them into the per-layer metrics.
A target that no longer exists, or is never called, reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute, class or None, kind)
#   kind "call":    a span around each call
#   kind "factory": a span around each call of the closure the factory returns
#   kind "count":   a call count only, no span
TARGETS = (
    ("plant.euler_step", "plant", "euler_step", None, "call"),
    ("plant.disturbance_sample", "plant", "disturbance_sample", None, "call"),
    ("fuzzy.infer", "fuzzy", "infer", None, "call"),
    ("fuzzy.RuleBase.builds", "fuzzy", "__init__", "RuleBase", "count"),
    ("control.simulate", "control", "simulate", None, "call"),
    ("control.Controller.torque", "control", "torque", "Controller", "call"),
    ("metrics.compute_metrics", "metrics", "compute_metrics", None, "call"),
    ("tuning.gp_fit", "tuning", "gp_fit", None, "call"),
    ("tuning.suggest", "tuning", "suggest", None, "call"),
    ("tuning.gp_predict", "tuning", "gp_predict", None, "call"),
    ("tuning.cost", "tuning", "make_pd_cost", None, "factory"),
    ("analysis.error_jacobian", "analysis", "error_jacobian", None, "call"),
    ("analysis.eigenvalues", "analysis", "eigenvalues", None, "call"),
    ("analysis.closed_loop_charpoly", "analysis", "closed_loop_charpoly", None, "call"),
    ("analysis.CharPoly.roots", "analysis", "roots", "CharPoly", "call"),
    ("analysis.check_gain_conditions", "analysis", "check_gain_conditions", None, "call"),
    ("analysis.check_flr_conditions", "analysis", "check_flr_conditions", None, "call"),
    ("gainsio.load_gains", "gainsio", "load_gains", None, "call"),
    ("cli.main", "cli", "main", None, "call"),
    ("cli.write_csv", "cli", "write_csv", None, "call"),
)
NAMES = tuple(t[0] for t in TARGETS)
_ID = {name: i for i, name in enumerate(NAMES)}

# Spans that also record process CPU time, which counts the BLAS threads.
_CPU = {"tuning.gp_fit"}


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) in the loaded flexjoint modules bound to ``original``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "flexjoint"
                                  or mod_name.startswith("flexjoint.")):
            continue
        found += [(module, key) for key, value in list(vars(module).items())
                  if value is original]
    return found


class Tracer:
    """Installs span wrappers into the loaded flexjoint modules and records
    one span per wrapped call."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.failed = array("b")         # raised; for tuning.cost also non-finite
        self.cpu = array("d")            # process CPU seconds, _CPU spans only
        self.counts = [0] * len(NAMES)   # "count" targets
        self.points = 0                  # rows passed to gp_predict
        self.csv_bytes = 0               # bytes written by write_csv
        self.draw_calls = 0              # disturbance_sample calls that draw
        self.draw_keys: set = set()      # distinct (model, step index) drawn
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists.  Every target module is imported
        first, so a module the program loads lazily is wrapped as well."""
        for name, mod_name, attr, cls_name, kind in TARGETS:
            try:
                module = importlib.import_module(f"flexjoint.{mod_name}")
            except ImportError:
                continue
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, kind, original)
            if cls_name:
                self._patch(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for module, key in bindings(original):
            self._patch(module, key, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        if kind == "count":
            index = _ID[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[index] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "factory":
            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return self._span(name, fn(*args, **kwargs))
            return factory
        return self._span(name, fn)

    def _span(self, name: str, fn):
        sid = _ID[name]
        stack = self._stack
        clock = time.perf_counter
        with_cpu = name in _CPU
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(sid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.failed.append(0)
            self.end.append(0.0)
            self.cpu.append(0.0)
            stack.append(i)
            cpu0 = time.process_time() if with_cpu else 0.0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = clock()
                if with_cpu:
                    self.cpu[i] = time.process_time() - cpu0
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result, i)
            return result
        return traced

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns as numpy arrays."""
        return dict(name=np.array(self.name, dtype=np.uint16),
                    start=np.array(self.start, dtype=float),
                    end=np.array(self.end, dtype=float),
                    parent=np.array(self.parent, dtype=np.int64),
                    op=np.array(self.op, dtype=np.int64),
                    failed=np.array(self.failed, dtype=np.int8),
                    cpu=np.array(self.cpu, dtype=float))

    def totals(self) -> dict[str, float]:
        """Counters kept outside the span arrays."""
        out = {name: float(self.counts[_ID[name]])
               for name, *_, kind in TARGETS if kind == "count"}
        out.update(points=float(self.points), csv_bytes=float(self.csv_bytes),
                   draw_calls=float(self.draw_calls),
                   draw_unique=float(len(self.draw_keys)))
        return out

    def save(self, path, **extra: float) -> None:
        """Write the spans and counters; ``extra`` holds per-process scalars
        such as the wall time of the traced call."""
        scalars = dict(self.totals(), **extra)
        np.savez(path, names=np.array(NAMES), scalar_keys=np.array(list(scalars)),
                 scalar_values=np.array(list(scalars.values()), dtype=float),
                 **self.arrays())


def _after_gp_predict(tracer, args, kwargs, result, i):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.points += np.atleast_2d(np.asarray(x)).shape[0]


def _after_write_csv(tracer, args, kwargs, result, i):
    path = args[0] if args else kwargs["path"]
    tracer.csv_bytes += os.path.getsize(path)


def _after_disturbance(tracer, args, kwargs, result, i):
    model = args[0] if args else kwargs["model"]
    if model.kind != "off":
        index = args[1] if len(args) > 1 else kwargs["step_index"]
        tracer.draw_calls += 1
        tracer.draw_keys.add((model, index))


def _after_cost(tracer, args, kwargs, result, i):
    if not math.isfinite(result):
        tracer.failed[i] = 1


_AFTER = {"tuning.gp_predict": _after_gp_predict,
          "cli.write_csv": _after_write_csv,
          "plant.disturbance_sample": _after_disturbance,
          "tuning.cost": _after_cost}


class Trace:
    """Spans and counters gathered from one or more traced processes, each
    loaded from a ``Tracer.save`` file or taken from a live tracer."""

    def __init__(self):
        self.parts: list[dict[str, np.ndarray]] = []
        self.scalars: dict[str, float] = {}

    def add_tracer(self, tracer: Tracer) -> None:
        self._add(tracer.arrays(), tracer.totals())

    def add_file(self, path) -> None:
        with np.load(path) as z:
            if tuple(z["names"]) != NAMES:
                raise ValueError(f"{path}: span names differ from this tracer")
            arrays = {k: z[k] for k in ("name", "start", "end", "parent",
                                        "op", "failed", "cpu")}
            scalars = dict(zip(z["scalar_keys"].tolist(),
                               z["scalar_values"].tolist()))
        self._add(arrays, scalars)

    def _add(self, arrays, scalars) -> None:
        self.parts.append(arrays)
        for key, value in scalars.items():
            self.scalars[key] = self.scalars.get(key, 0.0) + value

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: call count and summed self time, where a span's
        self time is its duration minus the durations of its children."""
        calls = np.zeros(len(NAMES))
        self_s = np.zeros(len(NAMES))
        for a in self.parts:
            dur = a["end"] - a["start"]
            has_parent = a["parent"] >= 0
            child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            calls += np.bincount(a["name"], minlength=len(NAMES))
            self_s += np.bincount(a["name"], weights=dur - child,
                                  minlength=len(NAMES))
        return calls, self_s

    def per_name(self, column: str) -> np.ndarray:
        """Per span name: the sum of a per-span column (``failed``, ``cpu``)."""
        out = np.zeros(len(NAMES))
        for a in self.parts:
            out += np.bincount(a["name"], weights=a[column].astype(float),
                               minlength=len(NAMES))
        return out

    def traced_seconds(self) -> float:
        """Sum of the self times of every span, i.e. the time inside any
        traced call."""
        return float(self.self_times()[1].sum())


def layer_metrics(trace: Trace) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one trace."""
    calls, self_s = trace.self_times()
    failed = trace.per_name("failed")
    cpu = trace.per_name("cpu")
    s = trace.scalars

    def c(name):
        return float(calls[_ID[name]])

    def t(name):
        return float(self_s[_ID[name]])

    out = {}
    for name in ("plant.euler_step", "plant.disturbance_sample", "fuzzy.infer",
                 "control.simulate", "control.Controller.torque",
                 "metrics.compute_metrics", "tuning.gp_fit", "tuning.suggest",
                 "tuning.gp_predict", "tuning.cost", "gainsio.load_gains",
                 "cli.write_csv"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = t(name)
    draws = s.get("draw_calls", 0.0)
    out["plant.disturbance_sample.unique_ratio"] = (
        s.get("draw_unique", 0.0) / draws if draws else 0.0)
    out["fuzzy.RuleBase.builds"] = s.get("fuzzy.RuleBase.builds", 0.0)
    out["control.simulate.diverged"] = float(failed[_ID["control.simulate"]])
    out["tuning.gp_fit.cpu_s"] = float(cpu[_ID["tuning.gp_fit"]])
    out["tuning.gp_predict.points"] = s.get("points", 0.0)
    cost_calls = c("tuning.cost")
    out["tuning.cost.failed_ratio"] = (
        float(failed[_ID["tuning.cost"]]) / cost_calls if cost_calls else 0.0)
    out["analysis.self_s"] = sum(t(n) for n in NAMES if n.startswith("analysis."))
    out["cli.main.self_s"] = t("cli.main")
    out["cli.write_csv.bytes"] = s.get("csv_bytes", 0.0)
    return out
