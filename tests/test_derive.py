"""Derivation engine: mapping tables, constraints, merging, robustness."""

import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvlab.cyclotomic import CycInt
from hvlab.derive import (
    ConflictingConstraints,
    Constraint,
    FunctionalRep,
    NonMonomialComponent,
    PartialComponent,
    TotalComponent,
    UndeterminedComponent,
    component_vars,
    derivation_report,
    derive,
    enumerate_mappings,
    extract_constraints,
    merge,
    render_derivation_text,
)
from hvlab.qstate import GATES, matrix_digest
from hvlab.triplets import (
    SignMonomial,
    SymTriplet,
    all_triplets,
    bit_var,
    cnot,
    h,
    p_half_pi,
    var_bit,
    var_name,
)

# Expected gate action on basis products, frozen from the exact oracle.
H_TABLE = {
    "X+": "Z+", "X-": "Z-", "Y+": "Y-", "Y-": "Y+", "Z+": "X+", "Z-": "X-",
}
S_TABLE = {
    "X+": "Y+", "X-": "Y-", "Y+": "X-", "Y-": "X+", "Z+": "Z+", "Z-": "Z-",
}
CNOT_TABLE = {
    ("X+", "X+"): ("X+", "X+"),
    ("X+", "X-"): ("X-", "X-"),
    ("X-", "X+"): ("X-", "X+"),
    ("X-", "X-"): ("X+", "X-"),
    ("Y+", "X+"): ("Y+", "X+"),
    ("Y+", "X-"): ("Y-", "X-"),
    ("Y-", "X+"): ("Y-", "X+"),
    ("Y-", "X-"): ("Y+", "X-"),
    ("Z+", "X+"): ("Z+", "X+"),
    ("Z+", "X-"): ("Z+", "X-"),
    ("Z+", "Y+"): ("Z+", "Y+"),
    ("Z+", "Y-"): ("Z+", "Y-"),
    ("Z+", "Z+"): ("Z+", "Z+"),
    ("Z+", "Z-"): ("Z+", "Z-"),
    ("Z-", "X+"): ("Z-", "X+"),
    ("Z-", "X-"): ("Z-", "X-"),
    ("Z-", "Y+"): ("Z-", "Y-"),
    ("Z-", "Y-"): ("Z-", "Y+"),
    ("Z-", "Z+"): ("Z-", "Z-"),
    ("Z-", "Z-"): ("Z-", "Z+"),
}
CNOT_ESCAPES = {
    (a, b) for a in ("X+", "X-", "Y+", "Y-") for b in ("Y+", "Y-", "Z+", "Z-")
}


def table_as_strings(table):
    preserved = {
        tuple(str(l) for l in i): tuple(str(l) for l in o) for i, o in table.preserved
    }
    escaped = {tuple(str(l) for l in labels) for labels in table.escaped}
    return preserved, escaped


def test_component_vars_order():
    assert component_vars(1) == ((1, "x"), (1, "y"), (1, "z"))
    assert component_vars(2) == (
        (1, "x"), (1, "y"), (1, "z"), (2, "x"), (2, "y"), (2, "z"),
    )
    with pytest.raises(ValueError):
        component_vars(3)


def test_single_qubit_mapping_tables():
    for gate_name, expected in (("H", H_TABLE), ("S", S_TABLE)):
        table = enumerate_mappings(GATES[gate_name])
        preserved, escaped = table_as_strings(table)
        assert preserved == {(k,): (v,) for k, v in expected.items()}
        assert escaped == set()


def test_cnot_mapping_table():
    table = enumerate_mappings(GATES["CNOT"])
    preserved, escaped = table_as_strings(table)
    assert preserved == CNOT_TABLE
    assert escaped == CNOT_ESCAPES
    assert len(preserved) == 20 and len(escaped) == 16
    assert ("Y+", "Y+") in escaped


def test_t_mapping_table():
    table = enumerate_mappings(GATES["T"])
    preserved, escaped = table_as_strings(table)
    assert preserved == {("Z+",): ("Z+",), ("Z-",): ("Z-",)}
    assert escaped == {("X+",), ("X-",), ("Y+",), ("Y-",)}


def test_constraint_counts_and_rendering():
    assert len(extract_constraints(enumerate_mappings(GATES["H"]))) == 6
    constraints = extract_constraints(enumerate_mappings(GATES["CNOT"]))
    assert len(constraints) == 40
    # Premise on x1 (bit 0) and x2 (bit 3), x1 at +1; conclusion on x1.
    c = Constraint(mask=0b1001, value=0b0001, bit=0, sign=-1)
    assert c.render() == "x1=+1 & x2=-1 -> x1'=-1"
    assert Constraint(0, 0, 5, 1).render() == " -> z2'=+1"
    assert extract_constraints(enumerate_mappings(GATES["H"]))[0] == Constraint(1, 1, 2, 1)


def test_derive_h():
    rep = derive(GATES["H"])
    assert rep.all_total
    (sym,) = rep.sym_triplets()
    assert sym == h(SymTriplet.generic(1))
    assert str(sym) == "⟨z1, -y1, x1⟩"


def test_derive_s():
    rep = derive(GATES["S"])
    assert rep.all_total
    (sym,) = rep.sym_triplets()
    assert sym == p_half_pi(SymTriplet.generic(1))
    variant = SymTriplet(
        SignMonomial.variable((1, "y")),
        -SignMonomial.variable((1, "x")),
        SignMonomial.variable((1, "z")),
    )
    assert sym != variant


def test_derive_cnot():
    rep = derive(GATES["CNOT"])
    assert rep.all_total
    assert rep.sym_triplets() == cnot(SymTriplet.generic(1), SymTriplet.generic(2))


def test_derive_pauli_and_identity():
    frozen = {
        "I": "⟨x1, y1, z1⟩",
        "X": "⟨x1, -y1, -z1⟩",
        "Y": "⟨-x1, y1, -z1⟩",
        "Z": "⟨-x1, -y1, z1⟩",
    }
    for name, expected in frozen.items():
        rep = derive(GATES[name])
        assert rep.all_total
        (sym,) = rep.sym_triplets()
        assert str(sym) == expected


def test_derive_t_is_partial():
    rep = derive(GATES["T"])
    assert not rep.all_total
    assert isinstance(rep.component((1, "x")), UndeterminedComponent)
    assert isinstance(rep.component((1, "y")), UndeterminedComponent)
    z = rep.component((1, "z"))
    assert isinstance(z, TotalComponent)
    assert z.monomial == SignMonomial.variable((1, "z"))
    with pytest.raises(ValueError):
        rep.sym_triplets()


def test_derived_rule_equals_builtin_on_all_inputs():
    h_rep = derive(GATES["H"])
    s_rep = derive(GATES["S"])
    cnot_rep = derive(GATES["CNOT"])
    for t in all_triplets():
        assert h_rep.evaluate(t) == h(t)
        assert s_rep.evaluate(t) == p_half_pi(t)
    for a in all_triplets():
        for b in all_triplets():
            assert cnot_rep.evaluate(a, b) == cnot(a, b)


def test_merge_is_order_independent():
    constraints = list(extract_constraints(enumerate_mappings(GATES["CNOT"])))
    baseline = merge(tuple(constraints), 2)
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(constraints)
        assert merge(tuple(constraints), 2) == baseline


def test_merge_detects_conflicts():
    clash = (
        Constraint(mask=0b001, value=0b001, bit=2, sign=1),  # x1=+1 -> z1'=+1
        Constraint(mask=0, value=0, bit=2, sign=-1),  # always z1'=-1
    )
    with pytest.raises(ConflictingConstraints):
        merge(clash, 1)


def test_merge_rejects_a_premise_outside_the_arity():
    # x2 at -1 or +1, and a negative mask, which has every high bit set.
    for mask, value in ((0b1000, 0), (0b1000, 0b1000), (-1, 0)):
        outside = (Constraint(mask=mask, value=value, bit=0, sign=1),)
        with pytest.raises(ValueError, match="outside arity 1"):
            merge(outside, 1)


def test_merge_rejects_a_premise_value_outside_its_mask():
    # Such a premise could hold nowhere; a compiled premise never has one.
    for arity, bit in ((1, 0), (2, 4), (1, 6)):
        stray = (Constraint(mask=0b001, value=0b011, bit=bit, sign=1),)
        with pytest.raises(ValueError, match="outside its mask"):
            merge(stray, arity)


def test_merge_reports_partial_components():
    x1_forces_y1 = Constraint(mask=0b001, value=0b001, bit=1, sign=1)  # x1=+1 -> y1'=+1
    no_component = Constraint(mask=0, value=0, bit=-1, sign=1)  # ignored, not read as z1
    rep = merge((x1_forces_y1, no_component), 1)
    y = rep.component((1, "y"))
    assert isinstance(y, PartialComponent)
    assert len(y.forced) == 4
    assert all(sign == 1 for _, sign in y.forced)
    assert isinstance(rep.component((1, "x")), UndeterminedComponent)
    assert isinstance(rep.component((1, "z")), UndeterminedComponent)


def test_merge_flags_non_monomial_truth_tables():
    # force x1' = (x1 AND y1) in sign form: +1 only when both are +1
    constraints = tuple(
        Constraint(mask=0b011, value=value, bit=0, sign=1 if value == 0b011 else -1)
        for value in range(4)
    )
    rep = merge(constraints, 1)
    x = rep.component((1, "x"))
    assert isinstance(x, NonMonomialComponent)
    assert x.values.count(1) == 2  # z1 free doubles the single true row


# The dictionary-per-assignment merge that the index-mask merge replaced,
# kept as the reference it must agree with.  It runs on its own dictionary
# assignments and set-of-variables monomials (below), decodes each
# constraint's mask and value into (variable, sign) pairs rather than test
# `index & mask == value`, and `reference` turns its monomials into mask
# monomials for the comparison.


def enumerate_assignments(variables):
    """All 2^n sign assignments, indexed so bit j of the index gives variables[j].

    A set bit means +1.
    """
    n = len(variables)
    for index in range(1 << n):
        yield index, {v: (1 if index >> j & 1 else -1) for j, v in enumerate(variables)}


class DictMonomial(NamedTuple):
    """A signed product of a set of variables, evaluated on a dictionary assignment."""

    sign: int
    vars: frozenset

    def evaluate(self, assignment):
        value = self.sign
        for v in self.vars:
            value *= assignment[v]
        return value


def reference_interpolate(variables, assignments, forced):
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
    monomial = DictMonomial(sign, frozenset(members))
    for index, assignment in assignments:
        if monomial.evaluate(assignment) != forced[index]:
            return NonMonomialComponent(tuple(forced[i] for i, _ in assignments))
    return TotalComponent(monomial)


def decode_premise(c: Constraint) -> dict:
    """The premise as a dictionary: each variable of the mask, +1 where value has its bit."""
    return {
        bit_var(bit): 1 if c.value >> bit & 1 else -1
        for bit in range(c.mask.bit_length())
        if c.mask >> bit & 1
    }


def reference_merge(constraints, arity: int) -> FunctionalRep:
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
        relevant = [(decode_premise(c), c.sign) for c in constraints if bit_var(c.bit) == w]
        forced: dict[int, int] = {}
        for index, assignment in assignments:
            values = {
                sign
                for premise, sign in relevant
                if all(assignment[v] == s for v, s in premise.items())
            }
            if len(values) > 1:
                raise ConflictingConstraints(
                    f"{var_name(w)}' is forced to both signs at assignment {index}"
                )
            if values:
                forced[index] = values.pop()
        if len(forced) == len(assignments):
            components.append(reference_interpolate(variables, assignments, forced))
        elif forced:
            components.append(PartialComponent(tuple(sorted(forced.items()))))
        else:
            components.append(UndeterminedComponent())
    return FunctionalRep(arity, tuple(components))


def reference(constraints, arity: int) -> FunctionalRep:
    """reference_merge, with each monomial as a mask over the global variable bits."""
    rep = reference_merge(constraints, arity)
    def as_mask(m):
        return SignMonomial(m.sign, sum(1 << var_bit(v) for v in m.vars))

    components = tuple(
        TotalComponent(as_mask(c.monomial)) if c.kind == "total" else c for c in rep.components
    )
    return rep._replace(components=components)


def random_constraints(pick, arity):
    """A random constraint set; ``pick(lo, hi)`` draws an integer in [lo, hi].

    Premises are masks over the arity's input bits, with values drawn
    inside them.  Up to two truth tables come first: one constraint for
    each value of a mask of 1 or 2 input bits, all concluding on one output
    bit, so that components are often forced everywhere, as monomials or
    not.  Then come up to six loose constraints with premises on 0 to 3
    drawn bits, which often clash with the tables.  Conclusions range over
    the bits of two qubits and of a third one, so some name no component of
    the arity and must be ignored.
    """
    size = 1 << 3 * arity

    def sign():
        return pick(0, 1) * 2 - 1

    def output():
        return pick(0, 8)

    def mask(draws):
        bits = 0
        for _ in range(draws):
            bits |= 1 << pick(0, 3 * arity - 1)
        return bits

    constraints = []
    for _ in range(pick(0, 2)):
        target, support = output(), mask(pick(1, 2))
        for value in range(size):
            if value & ~support == 0:
                constraints.append(Constraint(support, value, target, sign()))
    for _ in range(pick(0, 6)):
        premise = mask(pick(0, 3))
        constraints.append(Constraint(premise, premise & pick(0, size - 1), output(), sign()))
    return tuple(constraints)


def merge_outcome(merge_fn, constraints, arity):
    """The merged representation, or the type and message of the error."""
    try:
        return merge_fn(constraints, arity)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(st.data(), st.sampled_from([1, 2]))
def test_merge_agrees_with_the_reference(data, arity):
    constraints = random_constraints(lambda lo, hi: data.draw(st.integers(lo, hi)), arity)
    assert merge_outcome(merge, constraints, arity) == merge_outcome(
        reference, constraints, arity
    )


def test_random_constraint_sets_reach_every_outcome():
    # The draws above reach conflicts and every component kind often, total
    # components with variables included: check that on a fixed sample, and
    # compare with the reference there too.
    rng = random.Random(5)
    seen = dict.fromkeys(
        ("conflict", "total", "monomial", "partial", "undetermined", "non-monomial"), 0
    )
    for trial in range(600):
        arity = 1 + trial % 2
        constraints = random_constraints(rng.randint, arity)
        outcome = merge_outcome(merge, constraints, arity)
        assert outcome == merge_outcome(reference, constraints, arity)
        if isinstance(outcome, FunctionalRep):
            for comp in outcome.components:
                seen[comp.kind] += 1
                seen["monomial"] += comp.kind == "total" and bool(comp.monomial.mask)
        else:
            assert outcome[0] is ConflictingConstraints
            seen["conflict"] += 1
    assert min(seen.values()) >= 30, seen


def test_derive_is_scale_invariant():
    rng = random.Random(20260818)

    def random_scalar():
        while True:
            u = CycInt(*(rng.randint(-2, 2) for _ in range(4)))
            if not u.is_zero():
                return u

    for name in ("H", "S", "CNOT", "T"):
        g = GATES[name]
        baseline = derive(g)
        for _ in range(8):
            assert derive(g.scaled(random_scalar())) == baseline


def test_derivation_report_content():
    report = derivation_report(GATES["H"])
    assert report["gate"] == "H"
    assert report["matrix_sha256"] == matrix_digest(GATES["H"])
    assert report["preserved_count"] == 6 and report["escaped_count"] == 0
    assert report["all_total"] is True
    assert report["representation"] == "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩"
    assert report["input_variables"] == ["x1", "y1", "z1"]
    text = render_derivation_text(report)
    assert "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩" in text
    assert "X+ ↦ Z+" in text


def test_derivation_report_cnot_and_t():
    report = derivation_report(GATES["CNOT"])
    assert report["representation"] == (
        "cnot: (⟨x1,y1,z1⟩, ⟨x2,y2,z2⟩) ↦ (⟨x1.x2, y1.x2, z1⟩, ⟨x2, z1.y2, z1.z2⟩)"
    )
    assert len(report["constraints"]) == 40
    report = derivation_report(GATES["T"])
    assert report["all_total"] is False
    assert "representation" not in report
    kinds = {c["var"]: c["kind"] for c in report["components"]}
    assert kinds == {"x1": "undetermined", "y1": "undetermined", "z1": "total"}
