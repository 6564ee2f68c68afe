"""Span tracing of hankelrev's layers, installed from outside the program.

A :class:`Tracer` wraps every public function of each layer module, the
public methods of the classes those modules define, and the arithmetic
dunders and constructor of ``PowerSeries``.  A wrapper replaces the
original at every binding site in the loaded ``hankelrev`` modules,
because ``cli`` and ``conjectures`` import ``det_exact``,
``hankel_triple``, ``expand_gf`` and others by name.  ``uninstall``
puts every original back, so untraced passes run the unmodified code.

Spans (operation, name, start, end, parent) are kept in memory; a span's
self time is its duration minus the durations of its direct children.
Bookkeeping that inspects arguments or results is recorded as its own
``trace.inspect`` span, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import inspect as pyinspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("series", "gf", "families", "hankel", "conjectures", "cli")

# PowerSeries dunders worth a span; __getitem__ and __iter__ are left
# out because they are single tuple lookups called per coefficient
_SERIES_DUNDERS = {
    "__init__": "construct",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "rmul",
    "__truediv__": "truediv",
}

_FAMILY_TERMS = {
    "family_a_term",
    "family_a_reversion_term",
    "family_b_term",
    "family_b_reversion_term",
    "family_c_term",
}
_VERIFIERS = {
    "verify_conjecture4",
    "verify_conjecture6",
    "verify_conjecture8",
    "verify_alpha_shift",
    "prop9_verify",
    "verify_anchors",
}
_SERIALIZERS = {"report_to_dict", "report_to_json", "report_to_csv", "sweep_to_dict", "sweep_to_json"}


def _span_groups() -> dict[str, set[str]]:
    """Per-layer metric groups: metric prefix -> span names it sums."""
    groups = {
        "families.terms": {f"families.{n}" for n in _FAMILY_TERMS},
        "families.reversion_ogf": {
            "families.family_a_reversion_ogf",
            "families.family_b_reversion_ogf",
            "families.family_c_reversion_ogf",
            "families.family_reversion_ogf",
        },
        "conjectures.verify": {f"conjectures.{n}" for n in _VERIFIERS},
        "conjectures.serialize": {f"conjectures.{n}" for n in _SERIALIZERS},
        "series.mul": {"series.mul", "series.rmul"},
    }
    for name in (
        "hankel.det_exact",
        "hankel.hankel_transform",
        "hankel.hankel_triple",
        "hankel.binomial_transform",
        "series.truediv",
        "series.sqrt",
        "series.compose",
        "series.revert",
        "series.binomial_ogf",
        "series.construct",
        "gf.parse_gf",
        "gf.eval_gf",
        "cli.run",
        "cli.render_report",
    ):
        groups[name] = {name}
    return groups


SPAN_GROUPS = _span_groups()

# (metric, unit, which end-to-end metric it should move, on which workload)
PER_LAYER = [
    ("hankel.det_exact.calls", "count", "wall_s, op_p90_s on deep_verify"),
    ("hankel.det_exact.self_s", "s", "wall_s, op_p90_s on deep_verify"),
    ("hankel.det_exact.max_dim", "count", "wall_s, op_p90_s on deep_verify"),
    ("hankel.det_exact.max_bits", "bits", "wall_s on huge_values"),
    ("hankel.det_exact.bareiss_ops", "count", "wall_s, op_p90_s on deep_verify (computed: sum of (n-1-k)^2)"),
    ("hankel.hankel_transform.self_s", "s", "wall_s, op_p90_s on deep_verify"),
    ("hankel.hankel_triple.self_s", "s", "wall_s, op_p90_s on deep_verify"),
    ("hankel.binomial_transform.self_s", "s", "wall_s on series_gf"),
    ("series.mul.calls", "count", "wall_s on series_gf; wall_s on grid_sweep via alpha_shift"),
    ("series.mul.self_s", "s", "wall_s on series_gf; wall_s on grid_sweep via alpha_shift"),
    ("series.truediv.self_s", "s", "wall_s on series_gf"),
    ("series.sqrt.self_s", "s", "wall_s on series_gf"),
    ("series.compose.self_s", "s", "wall_s on grid_sweep via alpha_shift"),
    ("series.revert.self_s", "s", "wall_s, op_p90_s on series_gf"),
    ("series.binomial_ogf.self_s", "s", "wall_s, op_p90_s on grid_sweep via alpha_shift"),
    ("series.construct.calls", "count", "wall_s on series_gf and grid_sweep"),
    ("series.construct.self_s", "s", "wall_s on series_gf and grid_sweep"),
    ("gf.parse_gf.self_s", "s", "wall_s, op_p50_s on series_gf"),
    ("gf.eval_gf.calls", "count", "wall_s, op_p50_s on series_gf"),
    ("gf.eval_gf.self_s", "s", "wall_s, op_p50_s on series_gf"),
    ("families.terms.calls", "count", "checks_per_s on grid_sweep"),
    ("families.terms.self_s", "s", "checks_per_s on grid_sweep"),
    ("families.reversion_ogf.self_s", "s", "checks_per_s on grid_sweep"),
    ("conjectures.verify.self_s", "s", "checks_per_s on grid_sweep and huge_values"),
    ("conjectures.checks", "count", "checks_per_s on grid_sweep and huge_values"),
    ("conjectures.checks_failed", "count", "checks_per_s on grid_sweep and huge_values"),
    ("conjectures.sweep.points", "count", "checks_per_s on grid_sweep"),
    ("conjectures.sweep.skipped", "count", "checks_per_s on grid_sweep"),
    ("conjectures.serialize.self_s", "s", "checks_per_s on grid_sweep and huge_values"),
    ("cli.run.self_s", "s", "wall_s on huge_values and deep_verify"),
    ("cli.render_report.self_s", "s", "wall_s on huge_values and deep_verify"),
    ("cli.output_bytes", "bytes", "wall_s on huge_values and deep_verify"),
    ("cli.over_limit_failures", "count", "failed over-limit operations of huge_values"),
] + [
    (f"{layer}.errors", "count", "failed over-limit operations of huge_values")
    for layer in LAYERS
] + [
    (f"{layer}.self_s", "s", "wall_s on every workload that calls the layer")
    for layer in LAYERS
] + [
    ("trace.spans", "count", "none: spans recorded per traced pass"),
    ("trace.inspect_s", "s", "none: tracer bookkeeping per traced pass"),
    ("trace.traced_wall_s", "s", "none: traced pass time"),
    ("trace.untraced_wall_s", "s", "none: untraced pass time in the same run"),
    ("trace.overhead_s", "s", "none: traced_wall_s minus untraced_wall_s"),
]


def _layer_targets(module) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, original) for everything to wrap."""
    layer = module.__name__.rsplit(".", 1)[1]
    targets = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if pyinspect.isfunction(obj) and obj.__module__ == module.__name__:
            targets.append((module, name, f"{layer}.{name}", obj))
        elif pyinspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr in _SERIES_DUNDERS and name == "PowerSeries":
                    targets.append((obj, attr, f"{layer}.{_SERIES_DUNDERS[attr]}", member))
                elif not attr.startswith("_") and (
                    pyinspect.isfunction(member) or isinstance(member, classmethod)
                ):
                    span = f"{layer}.{attr}" if name == "PowerSeries" else f"{layer}.{name}.{attr}"
                    targets.append((obj, attr, span, member))
    return targets


class Tracer:
    """Records spans for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.op = -1
        self.errors: Counter = Counter()
        self._counted: set[tuple[int, str]] = set()
        self.det_dims: list[int] = []
        self.det_max_bits = 0
        self.checks = 0
        self.checks_failed = 0
        self.sweep_points = 0
        self.sweep_skipped = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        import hankelrev  # noqa: F401  (loads every layer module)

        inspectors = {
            "hankel.det_exact": self._inspect_det,
            "conjectures.sweep": self._inspect_sweep,
        }
        inspectors.update({f"conjectures.{n}": self._inspect_report for n in _VERIFIERS})
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"hankelrev.{layer}"]
            for owner, attr, span, original in _layer_targets(module):
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(span, original.__func__, None))
                else:
                    wrapped = self._wrap(span, original, inspectors.get(span))
                    replacement[id(original)] = wrapped
                self._patch(owner, attr, wrapped)
        # every other binding site: names imported by other hankelrev modules
        for name, module in list(sys.modules.items()):
            if name != "hankelrev" and not name.startswith("hankelrev."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None and wrapped is not value:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, inspector):
        layer = name.split(".", 1)[0]
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (self.op, name, start, clock(), parent)
                stack.pop()
                key = (id(exc), layer)
                if key not in self._counted:
                    self._counted.add(key)
                    self.errors[layer] += 1
                raise
            spans[index] = (self.op, name, start, clock(), parent)
            stack.pop()
            if inspector is not None:
                begin = clock()
                inspector(args, result)
                spans.append((self.op, "trace.inspect", begin, clock(), parent))
            return result

        return wrapper

    def start_op(self, index: int) -> None:
        self.op = index
        self._counted.clear()

    # ------------------------------------------------------------------
    # bookkeeping on arguments and results

    def _inspect_det(self, args, result) -> None:
        matrix = args[0]
        self.det_dims.append(len(matrix))
        bits = max(abs(x).bit_length() for row in matrix for x in row)
        self.det_max_bits = max(self.det_max_bits, bits, abs(result).bit_length())

    def _inspect_report(self, args, report) -> None:
        self.checks += len(report.checks)
        self.checks_failed += sum(1 for c in report.checks if not c.passed)

    def _inspect_sweep(self, args, result) -> None:
        self.sweep_points += len(result.grid)
        self.sweep_skipped += len(result.skipped)

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> tuple[dict[str, float], Counter]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (_, name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
            calls[name] += 1
        return self_time, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (all but the trace.* wall times)."""
        self_time, calls = self.self_times()
        out: dict[str, float] = {}
        for group, names in SPAN_GROUPS.items():
            out[f"{group}.self_s"] = sum(self_time.get(n, 0.0) for n in names)
            out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for n, t in self_time.items() if n.startswith(layer + "."))
            out[f"{layer}.errors"] = self.errors[layer]
        out["hankel.det_exact.max_dim"] = max(self.det_dims, default=0)
        out["hankel.det_exact.max_bits"] = self.det_max_bits
        out["hankel.det_exact.bareiss_ops"] = sum((n - 1) * n * (2 * n - 1) // 6 for n in self.det_dims)
        out["conjectures.checks"] = self.checks
        out["conjectures.checks_failed"] = self.checks_failed
        out["conjectures.sweep.points"] = self.sweep_points
        out["conjectures.sweep.skipped"] = self.sweep_skipped
        out["trace.spans"] = len(self.spans)
        out["trace.inspect_s"] = self_time.get("trace.inspect", 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: op, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps([op, name, start, end, parent]) + "\n")
