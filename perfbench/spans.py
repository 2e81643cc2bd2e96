"""Span tracer for the traced benchmark run.

The tracer wraps latspace's public functions from outside the package:
each wrapped call records a span (name, start, end, parent span, operation
id) and, for some functions, a counter.  Spans stay in memory until the run
ends.  `install` replaces a function in every loaded module namespace that
holds it, plus class attributes such as `FiniteLattice.subtract_table`;
`Patches.restore` puts every original object back.  The untraced run never
calls `install`, so it runs the program unmodified.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

from latspace.errors import NotDistributive

# (owner, attribute, span name).  The owner is "module" or "module:Class".
# Several functions may share a span name; a layer's self time sums them.
TARGETS = [
    ("latspace.cli", "main", "cli.command"),
    ("latspace.pbm", "read_pbm", "pbm.read"),
    ("latspace.pbm", "read_pbm_with_canvas", "pbm.read"),
    ("latspace.pbm", "write_pbm", "pbm.write"),
    ("latspace.spaces:Scs", "load", "spaces.scs_load"),
    ("latspace.spaces:Scs", "from_json", "spaces.scs_load"),
    ("latspace.lattice", "build_lattice", "lattice.build"),
    ("latspace.lattice:FiniteLattice", "__init__", "lattice.build"),
    ("latspace.lattice:FiniteLattice", "distributivity", "lattice.distributivity"),
    ("latspace.lattice:FiniteLattice", "subtract_table", "lattice.subtract_table"),
    ("latspace.lattice:FiniteLattice", "irreducibles", "lattice.irreducibles"),
    ("latspace.spaces", "validate_space_function", "spaces.validate"),
    ("latspace.spaces", "enumerate_space_functions", "spaces.enum"),
    ("latspace.spaces", "enumeration_size_estimate", "spaces.enum"),
    ("latspace.spaces", "function_meet_oracle", "spaces.oracle"),
    ("latspace.distributed", "delta_pair", "distributed.fold_tuple"),
    ("latspace.distributed", "delta_pair_subtract", "distributed.fold_subtract"),
    ("latspace.distributed", "group_projection", "distributed.projection"),
    ("latspace.distributed", "join_projection", "distributed.projection"),
    ("latspace.distributed:DeltaFamily", "get", "distributed.family_get"),
    ("latspace.distributed", "survey_tuple_formula", "distributed.survey"),
    ("latspace.epistemic", "parse_formula", "epistemic.parse"),
    ("latspace.epistemic", "kripke_to_scs", "epistemic.induce"),
    ("latspace.epistemic", "aumann_to_scs", "epistemic.induce"),
    ("latspace.epistemic:KripkeScs", "evaluate", "epistemic.evaluate"),
    ("latspace.epistemic", "kripke_dk", "epistemic.reference_dk"),
    ("latspace.epistemic", "aumann_dk", "epistemic.reference_dk"),
    ("latspace.morphology", "dilate", "morphology.minkowski"),
    ("latspace.morphology", "erode", "morphology.minkowski"),
    ("latspace.morphology", "distributed_dilation", "morphology.minkowski"),
    ("latspace.morphology", "oplus_law_rhs", "morphology.oplus_rhs"),
    ("latspace.morphology", "theorem_check_small_module", "morphology.bridge"),
]

# Self time (ms per operation) reported for each span name.
TIME_METRICS = {
    "cli.command_self_ms": "cli.command",
    "pbm.read_ms": "pbm.read",
    "pbm.write_ms": "pbm.write",
    "spaces.scs_load_ms": "spaces.scs_load",
    "lattice.build_ms": "lattice.build",
    "lattice.distributivity_ms": "lattice.distributivity",
    "lattice.subtract_table_ms": "lattice.subtract_table",
    "lattice.irreducibles_ms": "lattice.irreducibles",
    "distributed.fold_tuple_ms": "distributed.fold_tuple",
    "distributed.fold_subtract_ms": "distributed.fold_subtract",
    "distributed.projection_ms": "distributed.projection",
    "spaces.validate_ms": "spaces.validate",
    "spaces.enum_ms": "spaces.enum",
    "spaces.oracle_ms": "spaces.oracle",
    "distributed.survey_ms": "distributed.survey",
    "epistemic.parse_ms": "epistemic.parse",
    "epistemic.induce_ms": "epistemic.induce",
    "epistemic.evaluate_ms": "epistemic.evaluate",
    "epistemic.reference_dk_ms": "epistemic.reference_dk",
    "morphology.minkowski_ms": "morphology.minkowski",
    "morphology.oplus_rhs_ms": "morphology.oplus_rhs",
    "morphology.bridge_ms": "morphology.bridge",
}

# Counters reported as a mean per operation.
COUNT_METRICS = (
    "lattice.elements_built",
    "distributed.pair_steps",
    "distributed.refusals",
    "distributed.projection_calls",
    "spaces.validate_calls",
    "spaces.oracle_calls",
    "spaces.enum_estimate",
    "spaces.enum_yielded",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Tracer:
    """In-memory span and counter store; one per traced run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def adopt(self, child_spans) -> None:
        """Append spans recorded in a child process under the open span."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for name, start, end, child_parent in child_spans:
            up = parent if child_parent is None else base + child_parent
            self.spans.append(Span(name, start, end, up, self.op))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach, s.start), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation self times (ms) and counters from a finished trace."""
    totals: dict[str, float] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    per_op = max(ops, 1)
    out = {key: 1000.0 * totals.get(name, 0.0) / per_op for key, name in TIME_METRICS.items()}
    c = tracer.counters
    for key in COUNT_METRICS:
        out[key] = c.get(key, 0) / per_op
    gets = c.get("distributed.family_gets", 0)
    out["distributed.family_hit_ratio"] = c.get("distributed.family_hits", 0) / gets if gets else 0.0
    estimate = c.get("spaces.enum_estimate", 0)
    out["spaces.enum_yield_ratio"] = c.get("spaces.enum_yielded", 0) / estimate if estimate else 0.0
    return out


def _counting(attribute: str, tracer: Tracer, args, result) -> None:
    """Counters recorded when a wrapped call returns."""
    if attribute == "__init__":
        tracer.count("lattice.elements_built", args[0].n)
    elif attribute == "validate_space_function":
        tracer.count("spaces.validate_calls")
    elif attribute == "enumerate_space_functions":
        tracer.count("spaces.enum_yielded", len(result))
    elif attribute == "enumeration_size_estimate":
        tracer.count("spaces.enum_estimate", result)
    elif attribute == "function_meet_oracle":
        tracer.count("spaces.oracle_calls")
    elif attribute in ("delta_pair", "delta_pair_subtract"):
        tracer.count("distributed.pair_steps")
    elif attribute in ("group_projection", "join_projection"):
        tracer.count("distributed.projection_calls")


def _wrap(fn, name: str, attribute: str, tracer: Tracer):
    refusing = attribute in ("delta_pair", "delta_pair_subtract")
    family_get = attribute == "get"

    def traced(*args, **kwargs):
        if family_get:
            before = len(args[0].cache)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except NotDistributive:
            if refusing:
                tracer.count("distributed.refusals")
            raise
        finally:
            tracer.end(index)
        if family_get:
            tracer.count("distributed.family_gets")
            tracer.count("distributed.family_hits", len(args[0].cache) == before)
        _counting(attribute, tracer, args, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", attribute)
    return traced


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Patches:
    """The replacements made by `install`, so that `restore` can undo them."""

    def __init__(self):
        self.made: list[tuple[object, str, object]] = []

    def set(self, holder, attribute: str, value) -> None:
        self.made.append((holder, attribute, holder.__dict__[attribute]))
        setattr(holder, attribute, value)

    def restore(self) -> None:
        for holder, attribute, original in reversed(self.made):
            setattr(holder, attribute, original)
        for holder, attribute, original in self.made:
            if holder.__dict__[attribute] is not original:
                raise RuntimeError(f"failed to restore {attribute} on {holder!r}")
        self.made.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap every TARGETS entry; returns the handle that undoes it."""
    patches = Patches()
    modules = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
    for owner, attribute, name in TARGETS:
        holder = _resolve(owner)
        raw = holder.__dict__[attribute]
        if isinstance(holder, type):
            if isinstance(raw, property):
                new = property(_wrap(raw.fget, name, attribute, tracer))
            elif isinstance(raw, classmethod):
                new = classmethod(_wrap(raw.__func__, name, attribute, tracer))
            else:
                new = _wrap(raw, name, attribute, tracer)
            patches.set(holder, attribute, new)
            continue
        new = _wrap(raw, name, attribute, tracer)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    patches.set(module, key, new)
    return patches
