"""Call tracing for the benchmark's traced run.

Tracer.install() replaces, in every loaded cyclotome module, each attribute
that refers to one of the LAYERS functions with a timing wrapper, so calls
through re-bound names (weights.build_tower -> codes.build_field,
weights.gaussian_periods, _engine.*) are seen too.  Nothing in src/ changes,
and nothing is wrapped unless install() is called.

Each call records a span (name, start, end, parent, spec id) plus the work
it was handed, counted from the spec parameters at the call boundary.
The naive and tsum kernels also record their tracemalloc peak.  tracemalloc
makes small tsum calls several times slower, so it is switched on only for
a call at least as large (by work) as every earlier call of that kernel:
peak_mb is the peak of the largest call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import tracemalloc


def _r_t(args) -> int:
    return args["tower"].r ** args["derived"].t


def _tsum_bytes(args) -> int:
    # per period argument: the int64 reads and writes of the sweep (sub,
    # value, nval gather, accumulator); odd p adds the int16 digit rows,
    # their sum and mod, the int64 cast and the packing product
    tower = args["tower"]
    per_arg = 56 if tower.p == 2 else 48 + 26 * tower.degree
    return _r_t(args) * args["derived"].e * per_arg


# Per coordinate of every input, naive_weight_counts reads U twice and
# writes it once (int64), reads the int32 permutation, gathers a bool and
# updates a uint16 weight: 33 bytes.
NAIVE_BYTES_PER_SYMBOL = 33

# Layer functions and what their spans record:
#   work:  (metric suffix, rate suffix or None, count from the arguments)
#   bytes: bytes the kernel computes, from array sizes (ignores caches)
#   key:   the arguments that make a call distinct (for distinct_ratio)
#   peak:  record the tracemalloc peak of the largest call
#   result: per-call counters read from the return value
LAYERS = {
    "gf.default_modulus": {"key": lambda a: (a["p"], a["d"])},
    "gf.build_field": {
        "work": ("elements", None, lambda a: a["p"] ** (a["s"] * a["m"]))},
    "gf.min_poly": {},
    "codes.build_polynomials": {},
    "codes.derive_params": {},
    "codes.validate_assumptions": {},
    "codes.independent_power_rows": {},
    "cyclotomy.gaussian_periods": {"key": lambda a: (a["tower"].r, a["L"])},
    "cyclotomy.gaussian_periods_closed_form": {},
    "_engine.naive_weight_counts": {
        "work": ("symbols", "symbols_per_s",
                 lambda a: _r_t(a) * a["derived"].n),
        "bytes": lambda a: _r_t(a) * a["derived"].n * NAIVE_BYTES_PER_SYMBOL,
        "peak": True},
    "_engine.period_sum_tally": {
        "work": ("args", "args_per_s", lambda a: _r_t(a) * a["derived"].e),
        "bytes": _tsum_bytes, "peak": True},
    "_engine.profile_code_tally": {
        "work": ("args", None, lambda a: _r_t(a) * a["derived"].e)},
    "_engine.sample_weights": {
        "work": ("draws", "draws_per_s", lambda a: a["count"])},
    "weights.classify": {},
    "weights.wd_closed": {},
    "weights.wd_naive": {},
    "weights.wd_tsum": {},
    "weights.cross_verify": {"result": lambda rep: {
        "weights.methods_run": len(rep.distributions),
        "weights.methods_skipped": len(rep.skipped)}},
    "cli.main": {"result": lambda rc: {"cli.exit_nonzero": int(rc != 0)}},
}
# counters that are reported even when no call set them
RESULT_COUNTERS = ("weights.methods_run", "weights.methods_skipped",
                   "cli.exit_nonzero")


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so _engine is reported as engine."""
    return layer.lstrip("_")


class Tracer:
    """Spans of one traced pass, kept in memory until written out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.spec_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._largest: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        layer = LAYERS[name]
        sig = inspect.signature(fn)
        needs_args = any(k in layer for k in ("work", "bytes", "key"))
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None,
                    "spec": self.spec_id, "error": None}
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if "work" in layer:
                    span["work"] = layer["work"][2](a)
                if "bytes" in layer:
                    span["bytes"] = layer["bytes"](a)
                if "key" in layer:
                    span["key"] = repr(layer["key"](a))
            stack.append(len(spans))
            spans.append(span)
            peak = ("peak" in layer
                    and span["work"] >= self._largest.get(name, 0))
            if peak:
                self._largest[name] = span["work"]
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                if peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if "result" in layer:
                span["counters"] = layer["result"](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for name in LAYERS:
            mod, attr = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"cyclotome.{mod}"), attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "cyclotome" and not modname.startswith("cyclotome."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in self._restore:
            setattr(mod, attr, val)
        self._restore.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts, times and rates of the recorded spans; the self
        times of all layers plus trace.unattributed_s equal wall_s."""
        durs = [sp["end"] - sp["start"] for sp in self.spans]
        child = [0.0] * len(self.spans)
        for i, sp in enumerate(self.spans):
            if sp["parent"] is not None:
                child[sp["parent"]] += durs[i]
        out: dict[str, float] = dict.fromkeys(RESULT_COUNTERS, 0)
        roots = 0.0
        for name, layer in LAYERS.items():
            spans = [(sp, durs[i], child[i])
                     for i, sp in enumerate(self.spans) if sp["name"] == name]
            pre = metric_prefix(name)
            total = sum(d for _, d, _ in spans)
            out[f"{pre}.calls"] = len(spans)
            out[f"{pre}.s"] = total
            out[f"{pre}.self_s"] = sum(d - c for _, d, c in spans)
            roots += sum(d for sp, d, _ in spans if sp["parent"] is None)
            if "key" in layer:
                distinct = {sp["key"] for sp, _, _ in spans}
                out[f"{pre}.distinct_ratio"] = (
                    len(distinct) / len(spans) if spans else 0.0)
            if "work" in layer:
                count, rate, _ = layer["work"]
                done = sum(sp["work"] for sp, _, _ in spans)
                out[f"{pre}.{count}"] = done
                if rate:
                    out[f"{pre}.{rate}"] = done / total if total else 0.0
            if "bytes" in layer:
                out[f"{pre}.gbytes_computed"] = sum(
                    sp["bytes"] for sp, _, _ in spans) / 1e9
            if "peak" in layer:
                out[f"{pre}.peak_mb"] = max(
                    (sp.get("peak_bytes", 0) for sp, _, _ in spans),
                    default=0) / 2 ** 20
            for sp, _, _ in spans:
                for counter, value in sp.get("counters", {}).items():
                    out[counter] += value
        out["weights.errors"] = sum(
            1 for sp in self.spans
            if sp["name"] == "weights.cross_verify" and sp["error"])
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - roots
        return out

    def write(self, path, meta: dict) -> None:
        t0 = min((sp["start"] for sp in self.spans), default=0.0)
        rows = [{**sp, "start": sp["start"] - t0, "end": sp["end"] - t0}
                for sp in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n")
