"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper in
every ``tractable_dyn`` module namespace that binds it (``cli``, ``markov``
and ``two_alphabet`` import several of them by name), and ``uninstall``
puts the originals back.  A span is ``(name, start, end, parent, op)``;
spans stay in memory until the run writes them out.  Counts are read from
call arguments and results in the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# (module, function, span name).  The span name is also the per-layer
# metric name without its "_s" suffix.
TARGETS = (
    ("relation", "basic_sets", "relation.basic_sets"),
    ("relation", "restrict_to_infinite_domain", "relation.restrict"),
    ("relation", "relation_from_json", "relation.parse"),
    ("markov", "validate_cover", "markov.validate_cover"),
    ("markov", "stationary_distribution", "markov.stationary_distribution"),
    ("markov", "transient_decay", "markov.transient_decay"),
    ("markov", "sample_path", "markov.sample_path"),
    ("markov", "genericity_check", "markov.genericity_check"),
    ("two_alphabet", "build_model", "two_alphabet.build_model"),
    ("two_alphabet", "induced_relations", "two_alphabet.induced_relations"),
    ("two_alphabet", "induced_covers", "two_alphabet.induced_covers"),
    ("two_alphabet", "basic_set_correspondence", "two_alphabet.correspondence"),
    ("two_alphabet", "base_class_stationary", "two_alphabet.base_class_stationary"),
    ("rationals", "stationary_exact", "rationals.stationary_exact"),
    ("shiftlike", "derive_gamma", "shiftlike.derive_gamma"),
    ("shiftlike", "to_two_alphabet", "shiftlike.to_two_alphabet"),
    ("shiftlike", "tractability_report_shiftlike", "shiftlike.report"),
    ("shiftlike", "code_R", "shiftlike.code_R"),
    ("shiftlike", "decode_H", "shiftlike.decode_H"),
    ("simplicial1d", "to_two_alphabet", "simplicial1d.to_two_alphabet"),
    ("simplicial1d", "tractability_report_pl", "simplicial1d.report"),
    ("simplicial1d", "decode_orbit_histogram", "simplicial1d.decode"),
    ("simplicial1d", "refine", "simplicial1d.refine"),
    ("simplicial1d", "code_H_1d", "simplicial1d.code_H_1d"),
    ("simplicial1d", "roundoff", "simplicial1d.roundoff"),
    ("simplicial1d", "nondegenerate_repair", "simplicial1d.repair"),
    ("plot", "system_svg", "plot.svg"),
    ("cli", "main", "cli.main"),
)

# Layers with a self-time metric; rationals and plot have one public
# function each, so their inclusive time already says it.
SELF_LAYERS = ("relation", "markov", "two_alphabet", "shiftlike",
               "simplicial1d", "cli")


def _den_digits(values) -> int:
    return max((len(str(Fraction(v).denominator)) for v in values), default=0)


def _count(counts: dict, name: str, args, kwargs, result) -> None:
    """Work counts taken at the wrapper from arguments and results."""
    if name == "relation.basic_sets":
        relation = args[0] if args else kwargs["relation"]
        counts["relation.elements"] += len(relation.elements)
        counts["relation.edges"] += len(relation.edges)
    elif name == "markov.sample_path":
        counts["markov.path_steps"] += len(result)
    elif name == "two_alphabet.induced_relations":
        counts["two_alphabet.gstar_edges"] += len(result[1].edges)
    elif name == "rationals.stationary_exact":
        counts["rationals.exact_block_max"] = max(
            counts["rationals.exact_block_max"], len(result))
        counts["rationals.den_digits_max"] = max(
            counts["rationals.den_digits_max"], _den_digits(result))
    elif name == "shiftlike.to_two_alphabet":
        counts["shiftlike.kstar"] += len(result.kstar)
    elif name == "simplicial1d.decode":
        counts["simplicial1d.decoded_windows"] += result.segments
    elif name == "simplicial1d.refine":
        counts["simplicial1d.refine_cells"] += result[1].cells


COUNTS = ("relation.elements", "relation.edges", "markov.path_steps",
          "two_alphabet.gstar_edges", "rationals.exact_block_max",
          "rationals.den_digits_max", "shiftlike.kstar",
          "simplicial1d.decoded_windows", "simplicial1d.refine_cells")
MAX_COUNTS = ("rationals.exact_block_max", "rationals.den_digits_max")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts = {name: 0 for name in COUNTS}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, clock(), 0.0, parent, self.op))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                name_, start, _, parent_, op = spans[index]
                spans[index] = (name_, start, clock(), parent_, op)
            _count(counts, name, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "tractable_dyn"
                                         or key.startswith("tractable_dyn."))]
        for module_name, attr, name in TARGETS:
            original = getattr(sys.modules[f"tractable_dyn.{module_name}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def span_seconds(spans) -> tuple[dict, dict]:
    """Inclusive seconds per span name and self seconds per layer, per op."""
    inclusive: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer: dict[tuple[str, int], float] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        duration = end - start
        inclusive[name] = inclusive.get(name, 0.0) + duration
        key = (name.split(".")[0], op)
        self_by_layer[key] = self_by_layer.get(key, 0.0) + duration - child_time[index]
    return inclusive, self_by_layer


def per_layer_metrics(tracer: Tracer, ops: int, op_output_bytes: int,
                      overhead_frac: float) -> dict:
    """Every per-layer metric; seconds and counts are means per op."""
    inclusive, self_by_layer = span_seconds(tracer.spans)
    metrics = {}
    for layer in SELF_LAYERS:
        total = sum(v for (lay, _), v in self_by_layer.items() if lay == layer)
        metrics[f"{layer}.self_s"] = (total / ops, "s")
    for _, _, name in TARGETS:
        if name != "cli.main":
            metrics[f"{name}_s"] = (inclusive.get(name, 0.0) / ops, "s")
    for name in COUNTS:
        value = tracer.counts[name]
        unit = "digits" if name == "rationals.den_digits_max" else "count"
        metrics[name] = (value if name in MAX_COUNTS else value / ops, unit)
    metrics["cli.output_bytes"] = (op_output_bytes / ops, "bytes")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


# Metrics that must have at least one span on a workload; a refactor that
# routes work around a wrapped function fails the traced run instead of
# silently reading 0.
_ALL = {"blockmap", "plmap", "subshift"}
_EXACT = {"blockmap", "plmap"}
COVERAGE = {
    "relation.basic_sets": _ALL,
    "relation.restrict": {"subshift"},
    "relation.parse": {"subshift"},
    "markov.validate_cover": _ALL,
    "markov.stationary_distribution": {"subshift"},
    "markov.transient_decay": _ALL,
    "markov.sample_path": {"plmap", "subshift"},
    "markov.genericity_check": {"subshift"},
    "two_alphabet.build_model": _EXACT,
    "two_alphabet.induced_relations": _EXACT,
    "two_alphabet.induced_covers": _EXACT,
    "two_alphabet.correspondence": _EXACT,
    "two_alphabet.base_class_stationary": _EXACT,
    "rationals.stationary_exact": _EXACT,
    "shiftlike.derive_gamma": {"blockmap"},
    "shiftlike.to_two_alphabet": {"blockmap"},
    "shiftlike.report": {"blockmap"},
    "shiftlike.code_R": {"blockmap"},
    "shiftlike.decode_H": {"blockmap"},
    "simplicial1d.to_two_alphabet": {"plmap"},
    "simplicial1d.report": {"plmap"},
    "simplicial1d.decode": {"plmap"},
    "simplicial1d.refine": {"plmap"},
    "simplicial1d.code_H_1d": {"plmap"},
    "simplicial1d.roundoff": {"plmap"},
    "simplicial1d.repair": {"plmap"},
    "plot.svg": {"plmap"},
    "cli.main": _ALL,
}


def coverage_problems(tracer: Tracer, workload: str) -> list[str]:
    seen = {name for name, *_ in tracer.spans}
    return [f"no span for {name} on {workload}"
            for name, workloads in COVERAGE.items()
            if workload in workloads and name not in seen]


def growth_table(tracer: Tracer, op_sizes: dict[int, int]) -> dict:
    """Mean self seconds per op by layer and input-size bucket."""
    _, self_by_layer = span_seconds(tracer.spans)
    ops_per_size: dict[int, int] = {}
    for size in op_sizes.values():
        ops_per_size[size] = ops_per_size.get(size, 0) + 1
    table: dict[str, dict[int, float]] = {}
    for (layer, op), seconds in self_by_layer.items():
        if op < 0:
            continue
        row = table.setdefault(layer, {})
        size = op_sizes[op]
        row[size] = row.get(size, 0.0) + seconds / ops_per_size[size]
    return {layer: dict(sorted(row.items())) for layer, row in sorted(table.items())}
