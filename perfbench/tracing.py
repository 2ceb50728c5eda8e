"""Spans around calls into covertawgn's public functions, from outside src/.

``Tracer.install()`` wraps each function in TARGETS at every binding site:
the defining module, every package module that imported the name, and the
class for methods. Each call records one span (name, start, end, parent
span, op id, raised, and the target's item counts) into flat arrays kept in
memory; ``write()`` saves them when the run ends and ``per_op_metrics()``
derives self time, counts and items per operation from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(fn: Callable, name: str, args: tuple, kwargs: dict):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


@dataclass(frozen=True)
class Target:
    """A wrapped public function; each counter is a name and a function that
    computes a count from the call's arguments and result (labelled as
    computed, not measured)."""

    module: str
    attr: str
    counters: tuple[tuple[str, Callable], ...] = ()
    alloc: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _rows_of_result(fn, args, kwargs, result):
    return result.shape[0]


def _kernel_evals(fn, args, kwargs, result):
    return args[0].radii.size * np.size(_arg(fn, "y_norm", args, kwargs))


def _nodes(fn, args, kwargs, result):
    return result.radii.size


def _samples(fn, args, kwargs, result):
    return _arg(fn, "n_samples", args, kwargs)


def _received_rows(fn, args, kwargs, result):
    return np.shape(_arg(fn, "received", args, kwargs))[0]


def _decode_flops(fn, args, kwargs, result):
    cb = _arg(fn, "cb", args, kwargs)
    return 2.0 * _received_rows(fn, args, kwargs, result) * cb.n * cb.M


TARGETS = (
    Target("specfn", "reg_inc_gamma_lower"),
    Target("specfn", "log_sph_bessel_factor"),
    Target("divergences", "tvd_isotropic_exact"),
    Target("divergences", "isotropic_report"),
    Target("planner", "plan"),
    Target("bounds", "bounds_grid"),
    Target("bounds", "asymptotic_sweep"),
    Target("cli", "main"),
    Target("truncgauss", "TruncatedGaussianSpec.__post_init__"),
    Target("truncgauss", "shell_mass"),
    Target("truncgauss", "sample_codewords", counters=(("rows", _rows_of_result),)),
    Target("truncgauss", "RadialOutputDensity.log_density_ratio",
           counters=(("kernel_evals", _kernel_evals),)),
    Target("truncgauss", "radial_output_density", counters=(("nodes", _nodes),)),
    Target("truncgauss", "output_divergences_quadrature"),
    Target("simkit", "simulate", alloc=True),
    Target("simkit", "empirical_divergences", counters=(("samples", _samples),), alloc=True),
    Target("simkit", "willie_detect"),
    Target("simkit", "bob_decode_batch",
           counters=(("rows", _received_rows), ("flops", _decode_flops))),
    Target("simkit", "build_codebook"),
)

UNITS = {"calls": "count", "self_s": "s", "errors": "count", "peak_alloc_mb": "MiB",
         "flops": "flop"}
# every computed counter, in one index space for the counts arrays
COUNTERS = tuple(dict.fromkeys(key for t in TARGETS for key, _ in t.counters))
# the benchmark's own per-op figures, next to the per-function ones
BENCH_METRICS = {
    "bench.op.self_s": "s",         # op time outside every wrapped span
    "bench.op.traced_p50_ref": "ref",  # over an untraced run's op_p50_ref: the overhead
}


def _metric_name(target: Target) -> str:
    # the spec's validation hook is reported under the class name
    return target.name.removesuffix(".__post_init__")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for t in TARGETS:
        base = _metric_name(t)
        for counter in ("calls", "self_s", "errors"):
            out[f"{base}.{counter}"] = UNITS[counter]
        for key, _ in t.counters:
            out[f"{base}.{key}"] = UNITS.get(key, "count")
        if t.alloc:
            out[f"{base}.peak_alloc_mb"] = UNITS["peak_alloc_mb"]
    out.update(BENCH_METRICS)
    return out


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self._stack: list[int] = []
        # open tracemalloc frames: [bytes at entry, highest peak seen inside]
        self._alloc_stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.name, self.parent, self.op = array("l"), array("l"), array("l")
        self.start, self.end = array("d"), array("d")
        self.raised = array("b")
        self.alloc = array("d")
        # computed counts, one row per (span, counter)
        self.count_span, self.count_key, self.count = array("l"), array("l"), array("d")

    # --- wrapping ------------------------------------------------------------

    def install(self) -> None:
        package = [m for k, m in list(sys.modules.items())
                   if k == "covertawgn" or k.startswith("covertawgn.")]
        for idx, target in enumerate(TARGETS):
            module = importlib.import_module(f"covertawgn.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = self._wrap(idx, target, original)
            sites = [owner] if owner_name else [
                m for m in package if any(v is original for v in vars(m).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patched.append((site, key, value))
                        setattr(site, key, wrapped)

    def uninstall(self) -> None:
        for site, key, value in reversed(self._patched):
            setattr(site, key, value)
        self._patched.clear()

    def _wrap(self, idx: int, target: Target, fn: Callable) -> Callable:
        tr = self
        alloc = target.alloc
        counters = [(COUNTERS.index(key), count) for key, count in target.counters]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tr.start)
            tr.name.append(idx)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            tr.raised.append(1)
            tr.alloc.append(0.0)
            tr._stack.append(sid)
            started = alloc and tr._alloc_enter()
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[sid] = time.perf_counter()
                tr._stack.pop()
                if alloc:
                    tr.alloc[sid] = tr._alloc_exit(started) / 2**20
            tr.raised[sid] = 0
            for key, count in counters:
                tr.count_span.append(sid)
                tr.count_key.append(key)
                tr.count.append(count(fn, args, kwargs, result))
            return result

        return wrapper

    def _alloc_enter(self) -> bool:
        """Open a tracemalloc frame; True if tracing was started here."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._alloc_stack.append([current, current])
        return started

    def _alloc_exit(self, started: bool) -> float:
        """Close the frame; its peak in bytes above the level at entry."""
        base, seen = self._alloc_stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self._alloc_stack:
            outer = self._alloc_stack[-1]
            outer[1] = max(outer[1], peak)
        if started:
            tracemalloc.stop()
        return peak - base

    # --- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live buffer view would stop the arrays from growing
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "raised": np.array(self.raised, dtype=np.int8),
            "alloc_mb": np.array(self.alloc),
            "count_span": np.array(self.count_span, dtype=np.int64),
            "count_key": np.array(self.count_key, dtype=np.int64),
            "count": np.array(self.count),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array([t.name for t in TARGETS]),
                 counters=np.array(COUNTERS), **self.arrays())

    def per_op_metrics(self, op_times: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics: each counter summed within an op (peak_alloc_mb:
        the highest span in the op), then the median across the given ops.
        ``op_times`` maps each traced op id to its wall time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_t = dur - child
        k, c = len(TARGETS), len(COUNTERS)
        count_op = a["op"][a["count_span"]]
        # one cell per (target, counter)
        count_cell = a["name"][a["count_span"]] * c + a["count_key"]
        per_op: dict[str, list[float]] = {name: [] for name in metric_units()}
        for op_id, wall in op_times.items():
            m = a["op"] == op_id
            names = a["name"][m]
            calls = np.bincount(names, minlength=k)
            self_s = np.bincount(names, weights=self_t[m], minlength=k)
            errors = np.bincount(names, weights=a["raised"][m], minlength=k)
            mc = count_op == op_id
            counts = np.bincount(count_cell[mc], weights=a["count"][mc],
                                 minlength=k * c).reshape(k, c)
            peak = np.zeros(k)
            np.maximum.at(peak, names, a["alloc_mb"][m])
            for i, t in enumerate(TARGETS):
                base = _metric_name(t)
                per_op[f"{base}.calls"].append(float(calls[i]))
                per_op[f"{base}.self_s"].append(float(self_s[i]))
                per_op[f"{base}.errors"].append(float(errors[i]))
                for key, _ in t.counters:
                    per_op[f"{base}.{key}"].append(float(counts[i, COUNTERS.index(key)]))
                if t.alloc:
                    per_op[f"{base}.peak_alloc_mb"].append(float(peak[i]))
            top = m & ~nested
            per_op["bench.op.self_s"].append(wall - float(dur[top].sum()))
        return {name: statistics.median(v) for name, v in per_op.items() if v}
