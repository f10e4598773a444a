"""Spans around calls into pnrcal's public functions, recorded from outside.

`Tracer.install()` replaces each traced function at every pnrcal module
attribute that refers to it, so a caller sees the wrapper whichever name it
looks the function up through (for example `simulator.estimate_gamma`,
bound there by `from .model import estimate_gamma`).  Spans stay in memory
as `[name, start, end, parent_index, op_id, attrs]` and are summarised (and
optionally written out) after the run.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# span name -> (defining module, function name)
LAYERS = {
    "simulator.simulate_run": ("simulator", "simulate_run"),
    "simulator.herald_stats": ("simulator", "simulate_herald_stats"),
    "simulator.save_run": ("simulator", "save_run"),
    "simulator.load_amplitudes": ("simulator", "load_amplitudes"),
    "histogram.build_histogram": ("histogram", "build_histogram"),
    "histogram.fit_mixture": ("histogram", "fit_mixture"),
    "histogram.robust_peak_counts": ("histogram", "robust_peak_counts"),
    "histogram.extract_counts": ("histogram", "extract_counts"),
    "model.estimate_gamma": ("model", "estimate_gamma"),
    "model.klyshko_estimate": ("model", "klyshko_estimate"),
    "model.weighted_mean": ("model", "weighted_mean"),
    "uncertainty.jacobian": ("uncertainty", "jacobian"),
    "uncertainty.propagate": ("uncertainty", "propagate"),
    "uncertainty.budget_for": ("uncertainty", "budget_for"),
    "reports.calibrate_counts": ("reports", "calibrate_counts"),
    "reports.write_json": ("reports", "write_json"),
    "reports.budget_table_csv": ("reports", "budget_table_csv"),
    "cli.main": ("cli", "main"),
}


def _save_run_attrs(args, kwargs, result):
    """Bytes written by save_run, computed from the sizes of the files."""
    out = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
    names = ("on.csv", "off.csv", "truth.json")
    return {"bytes": sum(os.path.getsize(os.path.join(out, n)) for n in names)}


def _load_amplitudes_attrs(args, kwargs, result):
    """Data lines parsed, computed from the size of the returned array."""
    return {"lines": int(result.size)}


def _robust_attrs(args, kwargs, result):
    requested = kwargs.get("n_peaks", args[1] if len(args) > 1 else None)
    return {"requested": int(requested), "used": int(result[2])}


RETURN_ATTRS = {
    "simulator.save_run": _save_run_attrs,
    "simulator.load_amplitudes": _load_amplitudes_attrs,
    "histogram.robust_peak_counts": _robust_attrs,
}


class Tracer:
    """In-memory span recorder; one span per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()

    def _wrap(self, name, fn):
        on_return = RETURN_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, {"raised": True})
                raise
            self.end(index, on_return(args, kwargs, result) if on_return else None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every pnrcal attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pnrcal" or n.startswith("pnrcal."))]
        for name, (module, attr) in LAYERS.items():
            home = sys.modules.get(f"pnrcal.{module}")
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "attrs": attrs}) + "\n")

    def summary(self, n_ops: int) -> dict:
        """Per-op self time per layer, layer counts, and op/glue totals.

        Self time is a span's duration minus the durations of its direct
        children.  Spans named "op" are the benchmark's timed regions; their
        self time is the glue inside pnrcal that no traced function covers.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        op_total = 0.0
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            if name == "op":
                op_total += end - start

        fit_calls = accepted = dropped = save_bytes = lines = 0
        for name, _, _, parent, _, attrs in self.spans:
            attrs = attrs or {}
            if name == "histogram.fit_mixture":
                fit_calls += 1
                direct = parent < 0 or self.spans[parent][0] != "histogram.robust_peak_counts"
                accepted += direct and not attrs.get("raised")
            elif name == "histogram.robust_peak_counts" and not attrs.get("raised"):
                accepted += 1
                dropped += attrs["requested"] - attrs["used"]
            elif name == "simulator.save_run":
                save_bytes += attrs.get("bytes", 0)
            elif name == "simulator.load_amplitudes":
                lines += attrs.get("lines", 0)

        n = max(n_ops, 1)
        out = {f"{name}_s": self_s[name] / n for name in LAYERS}
        out.update({
            "histogram.fit_mixture_calls": fit_calls / n,
            "histogram.fit_accept_ratio": accepted / fit_calls if fit_calls else 0.0,
            "histogram.peaks_dropped": dropped / n,
            "simulator.save_run_bytes": save_bytes / n,
            "simulator.load_amplitudes_lines": lines / n,
            "trace.op_s": op_total / n,
            "trace.glue_s": self_s["op"] / n,
            "trace.spans": len(self.spans) / n,
        })
        return out
