"""Triplet states, sign-monomial algebra, and the gate rule functions."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvlab.triplets import (
    SignMonomial,
    SymTriplet,
    Triplet,
    all_triplets,
    assignment_index,
    bit_var,
    cnot,
    h,
    p_half_pi,
    var_bit,
    var_name,
    xy_product,
)

ALL_VARS = [(q, a) for q in (1, 2) for a in "xyz"]
signs = st.sampled_from((-1, 1))
monomials = st.builds(SignMonomial, signs, st.integers(0, 63))
assignments = st.integers(0, 63)


def test_var_name():
    assert var_name((1, "x")) == "x1"
    assert var_name((2, "y")) == "y2"
    assert var_name((1, "z"), with_index=False) == "z"


def test_monomial_rendering():
    assert SignMonomial.constant(1).render() == "+1"
    assert SignMonomial.constant(-1).render() == "-1"
    assert SignMonomial.variable((2, "x")).render() == "x2"
    m = SignMonomial(-1, 1 << var_bit((2, "x")) | 1 << var_bit((1, "y")))
    assert m.render() == "-y1.x2"
    assert m.render(with_index=False) == "-y.x"
    full = SignMonomial(1, sum(1 << var_bit(v) for v in ALL_VARS))
    assert full.render() == "x1.y1.z1.x2.y2.z2"


def test_monomial_validation():
    with pytest.raises(ValueError):
        SignMonomial(0, 0)
    with pytest.raises(ValueError):
        SignMonomial(2, 0)
    # A negative mask would render as x1 yet evaluate as if every higher
    # variable were a member; floats and bools compare equal to ints.
    for sign, mask, message in (
        (1, -1, "mask must be a non-negative int, got -1"),
        (-1, -8, "mask must be a non-negative int, got -8"),
        (1, 2.5, "mask must be a non-negative int, got 2.5"),
        (1, 1.0, "mask must be a non-negative int, got 1.0"),
        (1, True, "mask must be a non-negative int, got True"),
        (1.0, 3, "sign must be -1 or +1, got 1.0"),
        (-1.0, 0, "sign must be -1 or +1, got -1.0"),
        (True, 0, "sign must be -1 or +1, got True"),
    ):
        with pytest.raises(ValueError) as info:
            SignMonomial(sign, mask)
        assert str(info.value) == message


def test_monomial_multiplication_cancels_squares():
    x1 = SignMonomial.variable((1, "x"))
    y1 = SignMonomial.variable((1, "y"))
    assert x1 * x1 == SignMonomial.constant(1)
    assert x1 * y1 == SignMonomial(1, 0b11)
    assert -x1 * y1 * x1 == -y1


def test_monomial_evaluate():
    m = -(SignMonomial.variable((1, "x")) * SignMonomial.variable((2, "y")))
    x1, y2 = 1 << var_bit((1, "x")), 1 << var_bit((2, "y"))
    assert m.evaluate(x1) == 1  # x1 = +1, y2 = -1
    assert m.evaluate(x1 | y2) == -1
    # Bits of variables outside the monomial do not matter.
    others = 0b111111 & ~(x1 | y2)
    assert m.evaluate(x1 | others) == 1
    assert m.evaluate(x1 | y2 | others) == -1


@given(monomials, monomials, monomials)
def test_monomials_form_a_commutative_group(a, b, c):
    one = SignMonomial.constant(1)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert a * a == one
    assert (-a) * b == -(a * b)


@given(monomials, monomials, assignments)
def test_evaluation_is_multiplicative(a, b, assignment):
    assert (a * b).evaluate(assignment) == a.evaluate(assignment) * b.evaluate(assignment)


def test_triplet_validation_and_rendering():
    t = Triplet(1, -1, 1)
    assert (t.x, t.y, t.z) == (1, -1, 1)
    assert str(t) == "⟨+1, -1, +1⟩"
    with pytest.raises(ValueError):
        Triplet(1, 0, 1)
    with pytest.raises(ValueError):
        Triplet(2, 1, 1)
    for components, message in (
        ((1.0, True, -1), "x component must be -1 or +1, got 1.0"),
        ((1, True, -1), "y component must be -1 or +1, got True"),
        ((1, -1, -1.0), "z component must be -1 or +1, got -1.0"),
    ):
        with pytest.raises(ValueError) as info:
            Triplet(*components)
        assert str(info.value) == message


def test_all_triplets():
    ts = list(all_triplets())
    assert len(ts) == 8
    assert len(set(ts)) == 8


def test_sym_triplet_generic_and_evaluate():
    s = SymTriplet.generic(1)
    assert str(s) == "⟨x1, y1, z1⟩"
    t = s.evaluate(0b001)  # x1 = +1, y1 = z1 = -1
    assert t == Triplet(1, -1, -1)


def test_rules_on_concrete_triplets():
    assert h(Triplet(1, 1, -1)) == Triplet(-1, -1, 1)
    assert p_half_pi(Triplet(1, 1, -1)) == Triplet(-1, 1, -1)
    a, b = cnot(Triplet(1, -1, 1), Triplet(-1, 1, -1))
    assert a == Triplet(-1, 1, 1)
    assert b == Triplet(-1, 1, -1)


def test_rules_preserve_input_kind():
    assert isinstance(h(Triplet(1, 1, 1)), Triplet)
    sym = h(SymTriplet.generic(1))
    assert isinstance(sym, SymTriplet)
    assert str(sym) == "⟨z1, -y1, x1⟩"
    assert str(p_half_pi(SymTriplet.generic(1))) == "⟨-y1, x1, z1⟩"
    a, b = cnot(SymTriplet.generic(1), SymTriplet.generic(2))
    assert str(a) == "⟨x1.x2, y1.x2, z1⟩"
    assert str(b) == "⟨x2, z1.y2, z1.z2⟩"


def test_involutions():
    for t in all_triplets():
        assert h(h(t)) == t
        assert p_half_pi(p_half_pi(p_half_pi(p_half_pi(t)))) == t
    for a, b in itertools.product(all_triplets(), repeat=2):
        assert cnot(*cnot(a, b)) == (a, b)


def test_phase_shifter_flips_xy_product():
    for t in all_triplets():
        out = p_half_pi(t)
        assert out.z == t.z
        assert xy_product(out) == -xy_product(t)


def test_symbolic_rules_match_concrete_rules():
    sym1 = SymTriplet.generic(1)
    sym2 = SymTriplet.generic(2)
    for t in all_triplets():
        index = assignment_index((t,))
        assert h(sym1).evaluate(index) == h(t)
        assert p_half_pi(sym1).evaluate(index) == p_half_pi(t)
    for ta, tb in itertools.product(all_triplets(), repeat=2):
        index = assignment_index((ta, tb))
        sa, sb = cnot(sym1, sym2)
        assert (sa.evaluate(index), sb.evaluate(index)) == cnot(ta, tb)


def test_global_bit_encoding():
    # Variable (q, axis) is bit 3(q-1) + axis position; a set bit means +1.
    assert [var_bit(v) for v in ALL_VARS] == [0, 1, 2, 3, 4, 5]
    assert [bit_var(b) for b in range(9)] == ALL_VARS + [(3, "x"), (3, "y"), (3, "z")]
    assert SignMonomial.variable((2, "y")) == SignMonomial(1, 1 << 4)
    assert assignment_index((Triplet(1, -1, 1), Triplet(-1, -1, 1))) == 0b100101
    assert assignment_index((Triplet(-1, -1, -1),)) == 0
    for ta, tb in itertools.product(all_triplets(), repeat=2):
        index = assignment_index((ta, tb))
        assert SymTriplet.generic(1).evaluate(index) == ta
        assert SymTriplet.generic(2).evaluate(index) == tb
    assert sorted(assignment_index(p) for p in itertools.product(all_triplets(), repeat=2)) == (
        list(range(64))
    )
