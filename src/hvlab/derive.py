"""Mechanical derivation of triplet rules from exact gate matrices.

The pipeline has three stages.  ``enumerate_mappings`` applies a gate to
every spin-eigenbasis state (or product of eigenstates, for two qubits)
and classifies the image, splitting inputs into preserved ones, whose
image is again a basis product up to a scalar, and escapes.  Each
preserved row becomes implication constraints on hidden-variable signs:
the classified input components form the premise, each classified output
component a conclusion.  ``merge`` then asks, for every output component
and every sign assignment, which value the constraints force.  It works
on assignment indices over the global variable bits of
:mod:`hvlab.triplets` (x1 is bit 0, z2 bit 5, a set bit meaning +1): a
constraint carries its premise as a bit mask and value, compiled once when
it is extracted.  A set of indices is one int, bit ``i`` standing for index
``i``: the indices where a premise holds are built once per process, and
each component keeps the set forced to +1 and the set forced to -1.  A
component forced everywhere is interpolated as a sign monomial by swapping
halves of its sets; anything less is reported as partial or undetermined
rather than guessed.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .qstate import BasisLabel, GateMatrix, apply, basis_products, classify, matrix_digest
from .triplets import (
    AXES,
    SignMonomial,
    SymTriplet,
    Triplet,
    Var,
    assignment_index,
    bit_var,
    var_bit,
    var_name,
)


class ConflictingConstraints(Exception):
    """Two constraints force a single output component to opposite signs."""


class Constraint(NamedTuple):
    """If the premise holds, output variable ``bit`` takes ``sign`` after the gate.

    The premise holds at assignment index ``i`` exactly when
    ``i & mask == value``: ``mask`` holds the global bits of the input
    variables it fixes, and ``value`` those of them fixed to +1.
    """

    mask: int
    value: int
    bit: int
    sign: int

    def render(self) -> str:
        conclusion = _equation(self.bit, self.sign > 0, "'")
        return f"{_premise_text(self.mask, self.value)} -> {conclusion}"


def _equation(bit: int, plus: bool, prime: str = "") -> str:
    return f"{var_name(bit_var(bit))}{prime}={'+1' if plus else '-1'}"


@functools.lru_cache(maxsize=1024)  # extracted premises take 6^arity forms
def _premise_text(mask: int, value: int) -> str:
    bits = range(mask.bit_length())
    return " & ".join(_equation(b, value >> b & 1) for b in bits if mask >> b & 1)


class MappingTable(NamedTuple):
    """Gate action on basis products: preserved rows plus the escapes."""

    arity: int
    preserved: tuple[tuple[tuple[BasisLabel, ...], tuple[BasisLabel, ...]], ...]
    escaped: tuple[tuple[BasisLabel, ...], ...]


class TotalComponent(NamedTuple):
    """Output component forced on every assignment, as a sign monomial."""

    monomial: SignMonomial
    kind = "total"


class PartialComponent(NamedTuple):
    """Output component forced only on some assignments: (index, sign) pairs."""

    forced: tuple[tuple[int, int], ...]
    kind = "partial"


class UndeterminedComponent(NamedTuple):
    """No constraint ever settles this output component."""

    kind = "undetermined"


class NonMonomialComponent(NamedTuple):
    """Forced everywhere, yet the truth table is not a signed monomial."""

    values: tuple[int, ...]
    kind = "non-monomial"


def component_vars(arity: int) -> tuple[Var, ...]:
    """Hidden variables of `arity` qubits, in (qubit, axis) order."""
    if arity not in (1, 2):
        raise ValueError(f"arity must be 1 or 2, got {arity}")
    return tuple((q, a) for q in range(1, arity + 1) for a in AXES)


def enumerate_mappings(g: GateMatrix) -> MappingTable:
    """Classify the gate's image of every basis product, in fixed order."""
    arity = 1 if g.dim == 2 else 2
    preserved = []
    escaped = []
    for labels, vin in basis_products(arity):
        result = classify(apply(g, vin))
        if result is None:
            escaped.append(labels)
        else:
            out = (result,) if arity == 1 else result
            preserved.append((labels, out))
    return MappingTable(arity, tuple(preserved), tuple(escaped))


def extract_constraints(table: MappingTable) -> tuple[Constraint, ...]:
    """One constraint per classified output component of each preserved row.

    The premise is always the full set of input components the row fixes,
    one variable per qubit, compiled here to its mask and value.
    """
    out = []
    for in_labels, out_labels in table.preserved:
        mask = value = 0
        for qubit, label in enumerate(in_labels, start=1):
            bit = 1 << var_bit((qubit, label.axis))
            mask |= bit
            value |= bit if label.sign > 0 else 0
        for qubit, label in enumerate(out_labels, start=1):
            out.append(Constraint(mask, value, var_bit((qubit, label.axis)), label.sign))
    return tuple(out)


@functools.cache
def _premise_set(count: int, mask: int, value: int) -> int:
    """The indices over `count` variable bits where ``index & mask == value``, as a set.

    Bit ``i`` of the result stands for index ``i``.  :func:`merge` calls it
    only with ``value`` inside ``mask`` and ``mask`` below ``1 << count``,
    so there are at most 3^count keys per count.
    """
    return sum(1 << index for index in range(1 << count) if index & mask == value)


def _interpolate(count: int, plus: int):
    """Fit a sign monomial to a fully forced truth table, or report failure.

    ``plus`` is the set of assignment indices over ``count`` variable bits
    forced to +1; every other index is forced to -1.  A variable belongs to
    the monomial exactly when flipping its bit flips the value at every
    index: when swapping the halves of ``plus`` across bit ``j`` (index
    ``i`` to ``i ^ 1 << j``) gives the -1 set.  The sign is the value at
    the all-ones (all +1) index.  The monomial is -sign where an odd number
    of member bits are clear, the XOR of the members' bit-clear sets, and
    the fit is verified against the whole table.
    """
    size = 1 << count
    everywhere = (1 << size) - 1
    minus = everywhere ^ plus
    members = odd = 0
    for j in range(count):
        shift = 1 << j
        clear = _premise_set(count, shift, 0)  # the indices with bit j clear
        if (plus & clear) << shift | (plus & ~clear) >> shift == minus:
            members |= shift
            odd ^= clear
    sign = 1 if plus >> size - 1 else -1
    if plus != (odd if sign < 0 else everywhere ^ odd):
        return NonMonomialComponent(tuple(1 if plus >> i & 1 else -1 for i in range(size)))
    return TotalComponent(SignMonomial(sign, members))


def merge(constraints, arity: int) -> FunctionalRep:
    """Combine constraints into per-component functions of the input signs.

    Assignments are numbered by their global index: bit ``j`` of the index
    is the ``j``-th input variable of :func:`component_vars`, set for +1.
    Each constraint adds every index where ``index & mask == value`` to
    its component's set for the sign it forces; an empty premise applies
    everywhere.  A premise value with a bit outside its mask, or a premise
    on a variable outside the arity, raises :class:`ValueError`, and
    constraints on anything other than the arity's components are ignored.
    Scanning components in variable order, an index in both sets raises
    :class:`ConflictingConstraints`, naming the lowest such index;
    agreement on all, some, or no assignments yields a total, partial, or
    undetermined component respectively.
    """
    variables = component_vars(arity)
    count = len(variables)
    size = 1 << count
    plus = [0] * count
    minus = [0] * count
    for mask, value, bit, sign in constraints:
        if value & ~mask:
            raise ValueError(f"a premise value sets bits {value & ~mask:#x} outside its mask")
        if not 0 <= bit < count:
            continue
        if not 0 <= mask < size:
            raise ValueError(f"a premise names a variable outside arity {arity}")
        sets = plus if sign > 0 else minus
        sets[bit] |= _premise_set(count, mask, value)
    everywhere = (1 << size) - 1
    components = []
    for w, p, m in zip(variables, plus, minus):
        if both := p & m:
            raise ConflictingConstraints(
                f"{var_name(w)}' is forced to both signs at assignment "
                f"{(both & -both).bit_length() - 1}"
            )
        forced = p | m
        if forced == everywhere:
            components.append(_interpolate(count, p))
        elif forced:
            components.append(
                PartialComponent(
                    tuple((i, 1 if p >> i & 1 else -1) for i in range(size) if forced >> i & 1)
                )
            )
        else:
            components.append(UndeterminedComponent())
    return FunctionalRep(arity, tuple(components))


class FunctionalRep(NamedTuple):
    """Per-component results of a derivation, in (qubit, axis) order."""

    arity: int
    components: tuple

    @property
    def all_total(self) -> bool:
        return all(c.kind == "total" for c in self.components)

    def component(self, var: Var):
        return self.components[component_vars(self.arity).index(var)]

    def sym_triplets(self) -> tuple[SymTriplet, ...]:
        """The representation as one symbolic triplet per qubit (total only)."""
        if not self.all_total:
            raise ValueError("representation is not total")
        monomials = [c.monomial for c in self.components]
        return tuple(SymTriplet(*monomials[3 * q : 3 * q + 3]) for q in range(self.arity))

    def evaluate(self, *inputs: Triplet):
        """Run the derived rule on concrete triplets (total only).

        Like a builtin rule, it returns a triplet for one qubit and a pair
        for two, so it can stand in for one in a circuit.
        """
        if len(inputs) != self.arity:
            raise ValueError(f"expected {self.arity} input triplets, got {len(inputs)}")
        index = assignment_index(inputs)
        out = tuple(s.evaluate(index) for s in self.sym_triplets())
        return out[0] if self.arity == 1 else out


def derive(g: GateMatrix) -> FunctionalRep:
    """Full pipeline: enumerate basis mappings, extract constraints, merge."""
    table = enumerate_mappings(g)
    return merge(extract_constraints(table), table.arity)


def representation_str(gate_label: str, rep: FunctionalRep) -> str:
    """Render a total representation as a rule, e.g. "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩"."""
    if rep.arity == 1:
        body = ", ".join(c.monomial.render(with_index=False) for c in rep.components)
        return f"{gate_label}: ⟨x,y,z⟩ ↦ ⟨{body}⟩"
    t1, t2 = rep.sym_triplets()
    return f"{gate_label}: (⟨x1,y1,z1⟩, ⟨x2,y2,z2⟩) ↦ ({t1}, {t2})"


@functools.cache  # called on label tuples of the mapping tables: at most 6^arity keys
def _labels_str(labels: tuple[BasisLabel, ...]) -> str:
    return ",".join(l.text for l in labels)


def derivation_report(g: GateMatrix) -> dict:
    """Everything the derivation produced, as a JSON-ready dictionary."""
    table = enumerate_mappings(g)
    constraints = extract_constraints(table)
    rep = merge(constraints, table.arity)
    name = g.name or "(unnamed)"
    components = []
    for var, comp in zip(component_vars(rep.arity), rep.components):
        entry: dict = {"var": var_name(var), "kind": comp.kind}
        if comp.kind == "total":
            entry["monomial"] = comp.monomial.render()
        elif comp.kind == "partial":
            entry["forced"] = [[index, sign] for index, sign in comp.forced]
        elif comp.kind == "non-monomial":
            entry["values"] = list(comp.values)
        components.append(entry)
    report = {
        "command": "derive",
        "gate": name,
        "dim": g.dim,
        "arity": table.arity,
        "matrix_sha256": matrix_digest(g),
        "input_variables": [var_name(v) for v in component_vars(table.arity)],
        "basis_products": len(table.preserved) + len(table.escaped),
        "preserved_count": len(table.preserved),
        "escaped_count": len(table.escaped),
        "preserved": [
            {"in": _labels_str(i), "out": _labels_str(o)} for i, o in table.preserved
        ],
        "escaped": [_labels_str(labels) for labels in table.escaped],
        "constraints": [c.render() for c in constraints],
        "components": components,
        "all_total": rep.all_total,
    }
    if rep.all_total:
        report["representation"] = representation_str(name.lower(), rep)
    return report


def render_derivation_text(report: dict) -> str:
    """Human-readable form of a derivation report dictionary."""
    lines = [
        f"derivation report for {report['gate']} "
        f"(dim {report['dim']}, matrix sha256 {report['matrix_sha256']})",
        f"basis products: {report['basis_products']}, "
        f"preserved: {report['preserved_count']}, escaped: {report['escaped_count']}",
        "",
        "mapping table (preserved):",
    ]
    for row in report["preserved"]:
        lines.append(f"  {row['in']} ↦ {row['out']}")
    if report["escaped"]:
        lines.append("escapes (image leaves the basis):")
        for labels in report["escaped"]:
            lines.append(f"  {labels}")
    lines.append("")
    lines.append(f"constraints ({len(report['constraints'])}):")
    for c in report["constraints"]:
        lines.append(f"  {c}")
    lines.append("")
    lines.append("components:")
    for comp in report["components"]:
        if comp["kind"] == "total":
            lines.append(f"  {comp['var']}' = {comp['monomial']}  [total]")
        elif comp["kind"] == "partial":
            lines.append(
                f"  {comp['var']}' forced on {len(comp['forced'])} assignments  [partial]"
            )
        elif comp["kind"] == "non-monomial":
            lines.append(f"  {comp['var']}' total but not a monomial  [non-monomial]")
        else:
            lines.append(f"  {comp['var']}' never forced  [undetermined]")
    if report["all_total"]:
        lines.append("")
        lines.append(report["representation"])
        lines.append("status: faithful functional representation found")
    else:
        lines.append("")
        lines.append("status: no faithful functional representation (see components)")
    return "\n".join(lines)
