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
        lambda: SignMonomial(-1, 0b10001),  # -x1.y2
        "sign",
        [
            (lambda: SignMonomial(0, 0), ValueError, "sign must be -1 or +1, got 0"),
            (lambda: SignMonomial(1.0, 3), ValueError, "sign must be -1 or +1, got 1.0"),
            (lambda: SignMonomial(1, -1), ValueError, "mask must be a non-negative int, got -1"),
            (lambda: SignMonomial(1, 2.5), ValueError, "mask must be a non-negative int, got 2.5"),
        ],
    ),
    Triplet: (
        lambda: Triplet(1, -1, 1),
        "x",
        [
            (lambda: Triplet(1, 0, 1), ValueError, "y component must be -1 or +1, got 0"),
            (lambda: Triplet(1.0, True, -1), ValueError, "x component must be -1 or +1, got 1.0"),
        ],
    ),
    SymTriplet: (
        lambda: SymTriplet.generic(1),
        "x",
        [
            (
                lambda: SymTriplet(1, "a", None),
                ValueError,
                "x component must be a sign monomial, got 1",
            ),
            (
                lambda: SymTriplet(SignMonomial(1, 1), "a", None),
                ValueError,
                "y component must be a sign monomial, got 'a'",
            ),
            (
                lambda: SymTriplet(SignMonomial(1, 1), SignMonomial(1, 2), (1, 4)),
                ValueError,
                "z component must be a sign monomial, got (1, 4)",
            ),
            (
                lambda: SymTriplet(Triplet(1, 1, 1), SignMonomial(1, 2), SignMonomial(1, 4)),
                ValueError,
                "x component must be a sign monomial, got Triplet(x=1, y=1, z=1)",
            ),
        ],
    ),
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


ORDERINGS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@pytest.mark.parametrize("symbol", ORDERINGS)
@pytest.mark.parametrize(
    "cls", [CycInt, Ket, GateMatrix, Triplet, SymTriplet, SignMonomial], ids=lambda cls: cls.__name__
)
def test_value_types_have_no_order(cls, symbol):
    # Tuples order lexicographically; a ring element, state or sign does not.
    value = CASES[cls][0]()
    compare = ORDERINGS[symbol]
    for left, right in ((value, value), (value, tuple(value)), (tuple(value), value)):
        with pytest.raises(TypeError):
            compare(left, right)


NON_RING_VALUES = {
    Triplet: (lambda: Triplet(1, 1, 1), lambda: Triplet(-1, 1, 1)),
    SymTriplet: (lambda: SymTriplet.generic(1), lambda: SymTriplet.generic(2)),
    SignMonomial: (lambda: SignMonomial.variable((1, "x")), lambda: SignMonomial.constant(-1)),
    Ket: (lambda: Ket.of(1, 0), lambda: Ket.of(0, 1)),
    GateMatrix: (lambda: GATES["H"], lambda: GATES["X"]),
}


@pytest.mark.parametrize("cls", NON_RING_VALUES, ids=lambda cls: cls.__name__)
def test_non_ring_values_refuse_tuple_concatenation_and_repetition(cls):
    make_first, make_second = NON_RING_VALUES[cls]
    first, second = make_first(), make_second()
    for misuse in (
        lambda: first + second,
        lambda: first + tuple(second),
        lambda: tuple(first) + second,
        lambda: first * 2,
        lambda: 2 * first,
    ):
        with pytest.raises(TypeError):
            misuse()


def test_ring_and_monomial_products_are_kept():
    assert CycInt(1, 2) + CycInt(3) == CycInt(4, 2)
    assert 2 * OMEGA == OMEGA * 2 == CycInt(0, 2)
    x1 = SignMonomial.variable((1, "x"))
    assert x1 * SignMonomial.constant(-1) == -x1
    assert x1 * x1 == SignMonomial.constant(1)
