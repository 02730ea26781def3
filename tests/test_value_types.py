"""The value-type contract: equal values hash equal, fields are read-only,
and constructors reject bad input with their documented messages."""

import pytest

from hvlab.checks import CheckResult
from hvlab.cyclotomic import OMEGA, CycInt
from hvlab.derive import (
    Constraint,
    FunctionalRep,
    MappingTable,
    NonMonomialComponent,
    PartialComponent,
    TotalComponent,
    UndeterminedComponent,
    derive,
    enumerate_mappings,
    extract_constraints,
)
from hvlab.epr import BranchResult, ContradictionReport, run_contradiction
from hvlab.qstate import GATES, GateMatrix, Ket
from hvlab.triplets import SignMonomial, SymTriplet, Triplet

# class: (builds a fresh instance, an attribute to assign, [(bad call, error, message)])
CASES = {
    CycInt: (
        lambda: CycInt(1, -2, 3, 4),
        "a",
        [
            (lambda: CycInt(1, 2.0), TypeError, "coefficients must be plain ints, got 2.0"),
            (lambda: CycInt(True), TypeError, "coefficients must be plain ints, got True"),
        ],
    ),
    Ket: (
        lambda: Ket.of(1, OMEGA),
        "entries",
        [
            (lambda: Ket(()), ValueError, "kets have dimension 2 or 4, got 0"),
            (lambda: Ket((1, 0)), TypeError, "ket entries must be CycInt values"),
            (lambda: Ket.of(0, 0), ValueError, "the zero vector is not a state"),
        ],
    ),
    GateMatrix: (
        lambda: GateMatrix.of([[1, 1], [1, -1]], "H"),
        "entries",
        [
            (
                lambda: GateMatrix.of([[1, 0, 0]]),
                ValueError,
                "gate matrices must be square of dimension 2 or 4",
            ),
            (
                lambda: GateMatrix.of([[1, 0], [1, 1]]),
                ValueError,
                "matrix is not unitary up to a positive real scale",
            ),
        ],
    ),
    SignMonomial: (
        lambda: SignMonomial(-1, frozenset({(1, "x"), (2, "y")})),
        "sign",
        [(lambda: SignMonomial(0, frozenset()), ValueError, "sign must be -1 or +1, got 0")],
    ),
    Triplet: (
        lambda: Triplet(1, -1, 1),
        "x",
        [(lambda: Triplet(1, 0, 1), ValueError, "y component must be -1 or +1, got 0")],
    ),
    SymTriplet: (lambda: SymTriplet.generic(1), "x", []),
    Constraint: (
        lambda: extract_constraints(enumerate_mappings(GATES["H"]))[0],
        "premise",
        [],
    ),
    MappingTable: (lambda: enumerate_mappings(GATES["S"]), "preserved", []),
    TotalComponent: (lambda: TotalComponent(SignMonomial.variable((1, "z"))), "monomial", []),
    PartialComponent: (lambda: PartialComponent(((0, 1), (3, -1))), "forced", []),
    UndeterminedComponent: (UndeterminedComponent, "kind", []),
    NonMonomialComponent: (lambda: NonMonomialComponent((1, -1, -1, 1)), "values", []),
    FunctionalRep: (lambda: derive(GATES["T"]), "components", []),
    BranchResult: (lambda: run_contradiction().branches[1], "satisfying", []),
    ContradictionReport: (run_contradiction, "intersection", []),
    CheckResult: (lambda: CheckResult("h involution", True, "8/8"), "passed", []),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    make, attr, bad_calls = CASES[cls]
    first, second = make(), make()
    assert type(first) is cls
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, attr, getattr(second, attr))
    with pytest.raises(AttributeError):
        first.unknown_field = 0
    for call, error, message in bad_calls:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_gate_matrix_equality_and_hash_ignore_the_name():
    renamed = GateMatrix(GATES["H"].entries, "other")
    unnamed = GateMatrix(GATES["H"].entries)
    assert renamed == GATES["H"] == unnamed and not renamed != GATES["H"]
    assert hash(renamed) == hash(GATES["H"]) == hash(unnamed)
    assert renamed.name == "other" and unnamed.name is None
    assert GATES["H"] != GATES["X"]
    assert GATES["H"] != GATES["H"].entries
