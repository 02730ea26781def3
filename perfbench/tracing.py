"""Per-layer tracing from outside the program: wrappers, spans and counts.

A :class:`Tracer` replaces hvlab functions and methods with wrappers in
every place callers look them up: each ``hvlab.*`` module namespace that
binds the original object, and the class dictionary for methods.  Setting
an attribute on a function object changes nothing a caller sees; note
that ``hvlab.derive`` is the derive() *function* re-exported by the
package, so the module is taken from ``sys.modules["hvlab.derive"]``.

Timed layers record spans ``[name, start, end, parent, op]`` in memory;
hot layers (ring ops, proportional, tensor, ...) only count calls.  No
file under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cyclotomic", "qstate", "derive", "triplets", "epr", "checks", "cli")


def _classify_hit(counts, result):
    counts["qstate.classify.hits"] += result is not None


def _proportional_true(counts, result):
    counts["qstate.proportional.true"] += result


def _table(counts, table):
    counts["derive.basis_products"] += len(table.preserved) + len(table.escaped)
    counts["derive.escaped"] += len(table.escaped)


def _constraints(counts, constraints):
    counts["derive.constraints"] += len(constraints)


def _forced(counts, rep):
    assignments = 1 << (3 * rep.arity)
    for comp in rep.components:
        counts["derive.merge.cells"] += assignments
        if comp.kind in ("total", "non-monomial"):
            counts["derive.merge.forced"] += assignments
        elif comp.kind == "partial":
            counts["derive.merge.forced"] += len(comp.forced)


# (module, attribute, span name, result observer): timed, with spans.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", "cli.emit", None),
    ("derive", "derivation_report", "derive.derivation_report", None),
    ("derive", "enumerate_mappings", "derive.enumerate_mappings", _table),
    ("derive", "extract_constraints", "derive.extract_constraints", _constraints),
    ("derive", "merge", "derive.merge", _forced),
    ("qstate", "classify", "qstate.classify", _classify_hit),
    ("qstate", "gate_from_json", "qstate.gate_from_json", None),
    ("qstate", "predicts_opposite", "qstate.predicts_opposite", None),
    ("epr", "run_contradiction", "epr.run_contradiction", None),
    ("epr", "contradiction_report", "epr.contradiction_report", None),
    ("epr", "epr_report", "epr.epr_report", None),
    ("checks", "representation_checks", "checks.representation_checks", None),
    ("checks", "oracle_checks", "checks.oracle_checks", None),
)
# (module, class or None, attribute, counter name, result observer): counted only.
COUNTERS = (
    ("cyclotomic", "CycInt", "__mul__", "cyclotomic.mul", None),
    ("cyclotomic", "CycInt", "__add__", "cyclotomic.add", None),
    ("cyclotomic", "CycInt", "__init__", "cyclotomic.new", None),
    ("qstate", None, "proportional", "qstate.proportional", _proportional_true),
    ("qstate", None, "apply", "qstate.apply", None),
    ("qstate", None, "tensor", "qstate.tensor", None),
    ("qstate", "GateMatrix", "__post_init__", "qstate.gate_matrix", None),
    ("triplets", "SignMonomial", "__mul__", "triplets.monomial_mul", None),
    ("triplets", None, "h", "triplets.rule", None),
    ("triplets", None, "p_half_pi", "triplets.rule", None),
    ("triplets", None, "cnot", "triplets.rule", None),
)


class Tracer:
    """Installs wrappers around hvlab layers and collects spans and counts."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation

    def install(self) -> None:
        for module, attr, name, observe in SPANS:
            wrap = functools.partial(self._timed, name=name, module=module, observe=observe)
            self._replace_function(module, attr, wrap)
        for module, cls, attr, name, observe in COUNTERS:
            wrap = functools.partial(self._counted, name=name, module=module, observe=observe)
            if cls is None:
                self._replace_function(module, attr, wrap)
            else:
                self._replace_method(getattr(_module(module), cls), attr, wrap)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace_function(self, module: str, attr: str, wrap) -> None:
        original = getattr(_module(module), attr)
        wrapper = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name == "hvlab" or name.startswith("hvlab."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _replace_method(self, cls: type, attr: str, wrap) -> None:
        original = cls.__dict__[attr]
        wrapper = wrap(original)
        for key, value in list(cls.__dict__.items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                self._set(cls, key, wrapper, original)

    def _set(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    # -- wrappers

    def _timed(self, fn, name: str, module: str, observe):
        spans, stack, counts, errors, clock = self.spans, self._stack, self.counts, self.errors, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            counts[name] += 1
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _counted(self, fn, name: str, module: str, observe):
        counts, errors = self.counts, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    # -- one op as the root span

    def begin_op(self, op: int) -> list:
        self.op = op
        span = ["op", self.clock(), 0.0, -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end_op(self, span: list) -> None:
        self._stack.pop()
        span[2] = self.clock()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _module(name: str):
    return sys.modules[f"hvlab.{name}"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def span_totals(spans) -> tuple[dict, dict]:
    """Total inclusive and self seconds per span name."""
    inclusive, own = defaultdict(float), defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        inclusive[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    return inclusive, own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: Counter, count_ops: int, spans, span_ops: int, errors: Counter) -> dict:
    """Per-op layer metrics: counts over `count_ops` ops, times over `span_ops` ops."""
    inclusive, own = span_totals(spans)
    per_op = lambda n: n / count_ops  # noqa: E731
    ms = lambda s: 1000.0 * s / span_ops  # noqa: E731
    metrics = {
        "cyclotomic.mul.calls": (per_op(counts["cyclotomic.mul"]), "count/op"),
        "cyclotomic.add.calls": (per_op(counts["cyclotomic.add"]), "count/op"),
        "cyclotomic.new.calls": (per_op(counts["cyclotomic.new"]), "count/op"),
        "qstate.classify.calls": (per_op(counts["qstate.classify"]), "count/op"),
        "qstate.classify.self_ms": (ms(own["qstate.classify"]), "ms/op"),
        "qstate.classify.hit_ratio": (_ratio(counts["qstate.classify.hits"], counts["qstate.classify"]), "ratio"),
        "qstate.proportional.calls": (per_op(counts["qstate.proportional"]), "count/op"),
        "qstate.proportional.true_ratio": (
            _ratio(counts["qstate.proportional.true"], counts["qstate.proportional"]),
            "ratio",
        ),
        "qstate.apply.calls": (per_op(counts["qstate.apply"]), "count/op"),
        "qstate.tensor.calls": (per_op(counts["qstate.tensor"]), "count/op"),
        "qstate.gate_matrix.builds": (per_op(counts["qstate.gate_matrix"]), "count/op"),
        "qstate.gate_from_json.ms": (ms(inclusive["qstate.gate_from_json"]), "ms/op"),
        "qstate.predicts_opposite.ms": (ms(inclusive["qstate.predicts_opposite"]), "ms/op"),
        "derive.enumerate_mappings.self_ms": (ms(own["derive.enumerate_mappings"]), "ms/op"),
        "derive.extract_constraints.ms": (ms(inclusive["derive.extract_constraints"]), "ms/op"),
        "derive.merge.self_ms": (ms(own["derive.merge"]), "ms/op"),
        "derive.derivation_report.self_ms": (ms(own["derive.derivation_report"]), "ms/op"),
        "derive.constraints": (per_op(counts["derive.constraints"]), "count/op"),
        "derive.escape_ratio": (_ratio(counts["derive.escaped"], counts["derive.basis_products"]), "ratio"),
        "derive.merge.forced_ratio": (_ratio(counts["derive.merge.forced"], counts["derive.merge.cells"]), "ratio"),
        "triplets.monomial_mul.calls": (per_op(counts["triplets.monomial_mul"]), "count/op"),
        "triplets.rule.calls": (per_op(counts["triplets.rule"]), "count/op"),
        "epr.run_contradiction.self_ms": (ms(own["epr.run_contradiction"]), "ms/op"),
        "epr.contradiction_report.self_ms": (ms(own["epr.contradiction_report"]), "ms/op"),
        "epr.epr_report.self_ms": (ms(own["epr.epr_report"]), "ms/op"),
        "checks.representation_checks.self_ms": (ms(own["checks.representation_checks"]), "ms/op"),
        "checks.oracle_checks.self_ms": (ms(own["checks.oracle_checks"]), "ms/op"),
        "cli.main.self_ms": (ms(own["cli.main"]), "ms/op"),
        "cli.emit.ms": (ms(inclusive["cli.emit"]), "ms/op"),
    }
    for module in MODULES:
        metrics[f"{module}.errors"] = (per_op(errors[module]), "count/op")
    return metrics
