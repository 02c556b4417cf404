"""Per-layer tracing of the kuniform package from outside it.

Inside `with tracer:` every public function of every layer module is
replaced by a wrapper in every `kuniform.*` namespace that binds it, so
names imported with `from .states import ...` are traced too.  Public
`FiniteField` methods are wrapped on the class: the array methods get
spans, the scalar ones are only counted, because timing a call that takes
well under a microsecond would swamp it.

A span records name, start, end and parent; spans stay in memory until
`write()`.  A layer's self time is its spans' time minus the time of their
child spans.  Counts (`*.calls`, `*.rows`, `*.subsets`, `*.terms`,
`*.entries`, `*.ops`) are computed from arguments and return values.
Leaving the `with` block restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("gf", "codes", "oa", "states", "masking", "catalog", "cli", "caps")
SCALAR_METHODS = ("add", "neg", "sub", "mul", "inv", "div", "pow", "element_to_coeffs", "coeffs_to_element")
ARRAY_METHODS = ("add_arr", "neg_arr", "mul_arr")


def _arg(sig: inspect.Signature, name: str, args, kwargs):
    return sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Traces while used as a context manager.

    Entering swaps the wrappers in, leaving restores every original
    binding; spans and counts accumulate over every entry.
    """

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.lru_hits: Counter = Counter()
        self.lru_calls: Counter = Counter()
        self._stack: list = []  # [span index, layer, child time]
        self._swaps: list | None = None  # (owner, name, original, wrapper)
        self._lru: dict = {}
        self._lru_mark: dict = {}

    def __enter__(self) -> "Tracer":
        if self._swaps is None:
            self._swaps = self._bindings()
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)
        self._lru_mark = {name: fn.cache_info() for name, fn in self._lru.items()}
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in reversed(self._swaps):
            setattr(owner, name, original)
        for name, fn in self._lru.items():
            now, then = fn.cache_info(), self._lru_mark[name]
            self.lru_hits[name] += now.hits - then.hits
            self.lru_calls[name] += now.hits + now.misses - then.hits - then.misses

    def _bindings(self) -> list:
        swaps = []
        modules = {layer: importlib.import_module(f"kuniform.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items() if name == "kuniform" or name.startswith("kuniform.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{name}", layer, obj)
                if hasattr(obj, "cache_info"):
                    self._lru[f"{layer}.{name}"] = obj
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            swaps.append((ns, bound, obj, wrapper))
        field_cls = modules["gf"].FiniteField
        for name in SCALAR_METHODS + ARRAY_METHODS:
            original = field_cls.__dict__[name]
            if name in ARRAY_METHODS:
                wrapper = self._span_wrapper(f"gf.{name}", "gf", original)
            else:
                wrapper = self._count_wrapper("gf.scalar.calls", original)
            swaps.append((field_cls, name, original, wrapper))
        return swaps

    # -- wrappers ---------------------------------------------------------------

    def _count_wrapper(self, key: str, orig):
        counts = self.counts

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        return counted

    def _span_wrapper(self, name: str, layer: str, orig):
        measure = _MEASURES.get(name)
        sig = inspect.signature(orig) if measure else None
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = name + ".calls"
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                end = clock()
                self._close(name, layer, frame, start, end, parent)
                if not stack or stack[-1][1] != layer:
                    self.errors[layer] += 1
                raise
            end = clock()
            self._close(name, layer, frame, start, end, parent)
            if measure:
                measure(counts, name, sig, args, kwargs, result)
            return result

        return traced

    def _close(self, name, layer, frame, start, end, parent) -> None:
        self._stack.pop()
        duration = end - start
        self.spans[frame[0]] = (name, start, end, parent)
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    # -- results ----------------------------------------------------------------

    def lru_hit_ratio(self, name: str) -> float:
        """Share of the traced calls that the function's cache answered."""
        calls = self.lru_calls[name]
        return self.lru_hits[name] / calls if calls else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh, separators=(",", ":"))


# per-function counts computed from arguments and return values


def _m_codeword_matrix(counts, name, sig, args, kwargs, result):
    counts[name + ".rows"] += int(result.shape[0])


def _m_verify_strength(counts, name, sig, args, kwargs, result):
    A, k = _arg(sig, "A", args, kwargs), _arg(sig, "k", args, kwargs)
    counts[name + ".subsets"] += math.comb(A.N, k)


def _m_subsets_checked(counts, name, sig, args, kwargs, result):
    counts[name + ".subsets"] += result.subsets_checked


def _m_cross_reduction(counts, name, sig, args, kwargs, result):
    s1, s2 = _arg(sig, "s1", args, kwargs), _arg(sig, "s2", args, kwargs)
    counts[name + ".terms"] += s1.num_terms + s2.num_terms
    counts[name + ".entries"] += len(result.entries)


def _m_verify_pure_qecc(counts, name, sig, args, kwargs, result):
    counts[name + ".ops"] += result.ops_checked


_MEASURES = {
    "codes.codeword_matrix": _m_codeword_matrix,
    "oa.verify_strength": _m_verify_strength,
    "states.verify_k_uniform": _m_subsets_checked,
    "states.cross_reduction": _m_cross_reduction,
    "masking.verify_masker": _m_subsets_checked,
    "masking.verify_pure_qecc": _m_verify_pure_qecc,
}

# metric -> (unit, how) for every per-layer metric the benchmark reports;
# how names the rule in per_layer_metrics() that computes it
_SELF = ("s", "self")
_COUNT = ("count", "count")
METRICS = {
    "cli.run.calls": _COUNT,
    "cli.self_s": ("s", "layer_self"),
    "gf.field_new.s": _SELF,
    "gf.add_arr.calls": _COUNT,
    "gf.add_arr.s": _SELF,
    "gf.mul_arr.calls": _COUNT,
    "gf.mul_arr.s": _SELF,
    "gf.scalar.calls": _COUNT,
    "codes.load_code.s": _SELF,
    "codes.parse_code.s": _SELF,
    "codes.min_distance.s": _SELF,
    "codes.dual_distance.s": _SELF,
    "codes.parity_check.s": _SELF,
    "codes.codeword_matrix.calls": _COUNT,
    "codes.codeword_matrix.rows": _COUNT,
    "codes.codeword_matrix.s": _SELF,
    "oa.oa_from_code.s": _SELF,
    "oa.verify_strength.s": _SELF,
    "oa.verify_strength.subsets": _COUNT,
    "oa.oa_min_distance.s": _SELF,
    "oa.trim_to_iroa.s": _SELF,
    "oa.load_oa.s": _SELF,
    "oa.parse_oa.s": _SELF,
    "oa.save_oa.s": _SELF,
    "states.load_state.s": _SELF,
    "states.parse_state.s": _SELF,
    "states.save_state.s": _SELF,
    "states.verify_k_uniform.s": _SELF,
    "states.verify_k_uniform.subsets": _COUNT,
    "states.verify_k_uniform.subsets_per_s": ("1/s", "rate"),
    "states.cross_reduction.calls": _COUNT,
    "states.cross_reduction.s": _SELF,
    "states.cross_reduction.terms": _COUNT,
    "states.cross_reduction.entries": _COUNT,
    "states.state_from_iroa.s": _SELF,
    "states.tensor_parties.s": _SELF,
    "states.inner_product.s": _SELF,
    "masking.build_masker.s": _SELF,
    "masking.verify_masker.s": _SELF,
    "masking.verify_masker.subsets": _COUNT,
    "masking.verify_pure_qecc.s": _SELF,
    "masking.verify_pure_qecc.ops": _COUNT,
    "masking.load_masker.s": _SELF,
    "masking.save_masker.s": _SELF,
    "catalog.exists_k_uniform.calls": _COUNT,
    "catalog.exists_k_uniform.hit_ratio": ("ratio", "hit_ratio"),
    "catalog.execute_recipe.s": _SELF,
    "catalog.construct_k_uniform.s": _SELF,
    "catalog.emit_table.s": _SELF,
    "caps.check_cap.calls": _COUNT,
    **{f"{layer}.errors": ("count", "errors") for layer in LAYERS},
}


def per_layer_metrics(tracer: Tracer) -> dict:
    """Every metric in METRICS, as {name: (value, unit)}."""
    out = {}
    for metric, (unit, how) in METRICS.items():
        if how == "self":
            value = tracer.self_s.get(metric[: -len(".s")], 0.0)
        elif how == "layer_self":
            value = tracer.layer_self_s(metric.split(".", 1)[0])
        elif how == "rate":
            base = metric[: -len(".subsets_per_s")]
            busy = tracer.total_s.get(base, 0.0)
            value = tracer.counts[base + ".subsets"] / busy if busy else 0.0
        elif how == "hit_ratio":
            value = tracer.lru_hit_ratio(metric[: -len(".hit_ratio")])
        elif how == "errors":
            value = tracer.errors[metric.split(".", 1)[0]]
        else:
            value = tracer.counts[metric]
        out[metric] = (value, unit)
    return out
