"""Mechanical derivation of triplet rules from exact gate matrices.

The pipeline has three stages.  ``enumerate_mappings`` applies a gate to
every spin-eigenbasis state (or product of eigenstates, for two qubits)
and classifies the image, splitting inputs into preserved ones, whose
image is again a basis product up to a scalar, and escapes.  Each
preserved row becomes implication constraints on hidden-variable signs:
the classified input components form the premise, each classified output
component a conclusion.  ``merge`` then asks, for every output component
and every sign assignment, which value the constraints force.  A
component forced everywhere is interpolated as a sign monomial; anything
less is reported as partial or undetermined rather than guessed.
"""

from __future__ import annotations

from typing import NamedTuple

from .qstate import BasisLabel, GateMatrix, apply, basis_products, classify, matrix_digest
from .triplets import (
    AXES,
    SignMonomial,
    SymTriplet,
    Triplet,
    Var,
    enumerate_assignments,
    var_name,
)


class ConflictingConstraints(Exception):
    """Two constraints force a single output component to opposite signs."""


class Constraint(NamedTuple):
    """If every premise sign holds, the conclusion sign must hold after the gate."""

    premise: frozenset[tuple[Var, int]]
    conclusion: tuple[Var, int]

    def render(self) -> str:
        def eq(v: Var, s: int) -> str:
            return f"{var_name(v)}={'+1' if s > 0 else '-1'}"

        left = " & ".join(eq(v, s) for v, s in sorted(self.premise))
        v, s = self.conclusion
        return f"{left} -> {var_name(v)}'={'+1' if s > 0 else '-1'}"


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
    one (variable, sign) pair per qubit.
    """
    out = []
    for in_labels, out_labels in table.preserved:
        premise = frozenset(
            ((qubit, label.axis), label.sign) for qubit, label in enumerate(in_labels, start=1)
        )
        for qubit, label in enumerate(out_labels, start=1):
            out.append(Constraint(premise, ((qubit, label.axis), label.sign)))
    return tuple(out)


def _interpolate(variables, assignments, forced):
    """Fit a sign monomial to a fully forced truth table, or report failure.

    A variable belongs to the monomial exactly when flipping it alone flips
    the forced value on every assignment; the sign is the value at the
    all-(+1) assignment.  The fit is then verified against the whole table.
    """
    members = []
    for j, v in enumerate(variables):
        if all(forced[index] != forced[index ^ (1 << j)] for index, _ in assignments):
            members.append(v)
    sign = forced[(1 << len(variables)) - 1]
    monomial = SignMonomial(sign, frozenset(members))
    for index, assignment in assignments:
        if monomial.evaluate(assignment) != forced[index]:
            return NonMonomialComponent(tuple(forced[i] for i, _ in assignments))
    return TotalComponent(monomial)


def merge(constraints, arity: int) -> FunctionalRep:
    """Combine constraints into per-component functions of the input signs.

    For each output component, every assignment of the input variables is
    checked against every constraint whose premise it satisfies.  Opposite
    forced signs raise :class:`ConflictingConstraints`; agreement on all,
    some, or no assignments yields a total, partial, or undetermined
    component respectively.
    """
    variables = component_vars(arity)
    assignments = tuple(enumerate_assignments(variables))
    components = []
    for w in variables:
        relevant = [c for c in constraints if c.conclusion[0] == w]
        forced: dict[int, int] = {}
        for index, assignment in assignments:
            values = {
                c.conclusion[1]
                for c in relevant
                if all(assignment[v] == s for v, s in c.premise)
            }
            if len(values) > 1:
                raise ConflictingConstraints(
                    f"{var_name(w)}' is forced to both signs at assignment {index}"
                )
            if values:
                forced[index] = values.pop()
        if len(forced) == len(assignments):
            components.append(_interpolate(variables, assignments, forced))
        elif forced:
            components.append(PartialComponent(tuple(sorted(forced.items()))))
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

    def evaluate(self, *inputs: Triplet) -> tuple[Triplet, ...]:
        """Run the derived rule on concrete triplets (total only)."""
        if len(inputs) != self.arity:
            raise ValueError(f"expected {self.arity} input triplets, got {len(inputs)}")
        assignment = {
            (qubit, axis): t.component(axis)
            for qubit, t in enumerate(inputs, start=1)
            for axis in AXES
        }
        syms = self.sym_triplets()
        return tuple(s.evaluate(assignment) for s in syms)


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


def _labels_str(labels: tuple[BasisLabel, ...]) -> str:
    return ",".join(str(l) for l in labels)


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
