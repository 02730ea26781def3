"""Ring laws and exact predicates for the cyclotomic scalars.

Multiplication is cross-checked against an independent complex-float
model of the ring, and the exact sign test for real elements against a
float evaluation of a + b*sqrt(2); both stay far above float error for
the coefficient ranges used.  Every ring operation is also checked
exactly, at coefficients far beyond 64 bits, against reference
arithmetic on plain coefficient tuples written here.
"""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvlab.cyclotomic import IM, OMEGA, ONE, SQRT2, ZERO, CycInt, dot

W = cmath.exp(1j * math.pi / 4)

coeffs = st.integers(min_value=-50, max_value=50)
cycints = st.builds(CycInt, coeffs, coeffs, coeffs, coeffs)
nonzero = cycints.filter(lambda u: not u.is_zero())


def to_complex(u: CycInt) -> complex:
    return u.a + u.b * W + u.c * W**2 + u.d * W**3


def test_constants():
    assert OMEGA**4 == -ONE
    assert OMEGA**2 == IM
    assert IM * IM == -ONE
    assert SQRT2 == OMEGA - OMEGA**3
    assert SQRT2 * SQRT2 == CycInt(2)
    assert ZERO.is_zero() and not ONE.is_zero()


def test_basic_arithmetic():
    assert CycInt(1, 2, 3, 4) + CycInt(4, 3, 2, 1) == CycInt(5, 5, 5, 5)
    assert CycInt(1, 1) - CycInt(0, 1) == ONE
    assert -CycInt(1, -2) == CycInt(-1, 2)
    assert 2 * OMEGA == CycInt(0, 2)
    assert 1 + OMEGA == CycInt(1, 1)
    assert 1 - OMEGA == CycInt(1, -1)


def test_multiplication_reduction():
    assert OMEGA * OMEGA**3 == -ONE
    assert CycInt(0, 0, 0, 1) * CycInt(0, 0, 1, 0) == CycInt(0, -1)
    assert (ONE + OMEGA) * (ONE - OMEGA) == ONE - IM


def test_conjugate_examples():
    assert OMEGA.conjugate() == -OMEGA**3
    assert IM.conjugate() == -IM
    assert SQRT2.conjugate() == SQRT2
    assert CycInt(1, 2, 3, 4).conjugate() == CycInt(1, -4, -3, -2)


def test_real_predicates():
    assert ONE.is_real() and SQRT2.is_real()
    assert not OMEGA.is_real() and not IM.is_real()
    assert SQRT2.is_positive_real()
    assert not (-SQRT2).is_positive_real()
    assert CycInt(-1, 1, 0, -1).is_positive_real()  # sqrt(2) - 1 > 0
    assert not CycInt(1, -1, 0, 1).is_positive_real()  # 1 - sqrt(2) < 0
    assert CycInt(3, -2, 0, 2).is_positive_real()  # 3 - 2*sqrt(2) > 0
    assert not CycInt(-3, 2, 0, -2).is_positive_real()  # 2*sqrt(2) - 3 < 0
    assert not ZERO.is_positive_real()
    assert not IM.is_positive_real()


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        CycInt(1.0)
    with pytest.raises(TypeError):
        CycInt(1, True)
    with pytest.raises(TypeError):
        CycInt.coerce("1")


def test_pow():
    assert OMEGA**0 == ONE
    assert OMEGA**8 == ONE
    assert (ONE + OMEGA) ** 2 == ONE + 2 * OMEGA + IM
    with pytest.raises(ValueError):
        OMEGA ** (-1)


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(CycInt(1, 0, 0, -1)) == "1 - w^3"
    assert str(CycInt(0, 2, -1)) == "2w - w^2"


@given(cycints, cycints)
def test_multiplication_matches_complex_model(u, v):
    assert cmath.isclose(to_complex(u * v), to_complex(u) * to_complex(v), abs_tol=1e-6)


@given(cycints, cycints, cycints)
def test_ring_laws(u, v, w):
    assert u + v == v + u
    assert u * v == v * u
    assert (u + v) + w == u + (v + w)
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w


@given(cycints, cycints)
def test_conjugation_is_a_ring_homomorphism(u, v):
    assert (u + v).conjugate() == u.conjugate() + v.conjugate()
    assert (u * v).conjugate() == u.conjugate() * v.conjugate()
    assert u.conjugate().conjugate() == u


@given(nonzero)
def test_norm_is_positive_real(u):
    norm = u * u.conjugate()
    assert norm.is_real()
    assert norm.is_positive_real()


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_positivity_matches_float_model(a, b):
    u = CycInt(a, b, 0, -b)
    assert u.is_real()
    expected = a + b * math.sqrt(2) > 0 and not (a == 0 and b == 0)
    assert u.is_positive_real() == expected


wide = st.integers(min_value=-(2**200), max_value=2**200)
wide_cycints = st.builds(CycInt, wide, wide, wide, wide)


def ref_mul(x, y):
    """Schoolbook product of coefficient tuples, reduced by w^4 = -1."""
    out = [0] * 4
    for j, p in enumerate(x):
        for k, q in enumerate(y):
            if j + k < 4:
                out[j + k] += p * q
            else:
                out[j + k - 4] -= p * q
    return tuple(out)


def ref_conjugate(x):
    """Send each w^k to w^(8-k) = w^-k, then reduce by w^4 = -1."""
    out = [0] * 4
    for k, p in enumerate(x):
        e = (8 - k) % 8
        if e < 4:
            out[e] += p
        else:
            out[e - 4] -= p
    return tuple(out)


def exact(value: CycInt) -> tuple:
    """The coefficient tuple, after checking the value is a CycInt of plain ints."""
    assert type(value) is CycInt
    assert all(type(coeff) is int for coeff in value)
    return tuple(value)


@given(wide_cycints, wide_cycints, wide)
def test_ring_operations_match_exact_reference(u, v, n):
    x, y, m = tuple(u), tuple(v), (n, 0, 0, 0)
    assert exact(u * v) == ref_mul(x, y)
    assert exact(u * n) == exact(n * u) == ref_mul(x, m)
    assert exact(u + v) == tuple(p + q for p, q in zip(x, y))
    assert exact(u + n) == exact(n + u) == tuple(p + q for p, q in zip(x, m))
    assert exact(u - v) == tuple(p - q for p, q in zip(x, y))
    assert exact(u - n) == tuple(p - q for p, q in zip(x, m))
    assert exact(n - u) == tuple(q - p for p, q in zip(x, m))
    assert exact(-u) == tuple(-p for p in x)
    assert exact(u.conjugate()) == ref_conjugate(x)


def ref_dot(xs, ys, conjugate_left):
    """Sum of the reference products, conjugating each left factor if asked."""
    out = [0] * 4
    for x, y in zip(xs, ys):
        for k, p in enumerate(ref_mul(ref_conjugate(x) if conjugate_left else x, y)):
            out[k] += p
    return tuple(out)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(*[st.tuples(wide_cycints, wide_cycints)] * n)))
def test_dot_matches_exact_reference(pairs):
    xs = tuple(x for x, _ in pairs)
    ys = tuple(y for _, y in pairs)
    for conjugate_left in (False, True):
        expected = ref_dot(map(tuple, xs), map(tuple, ys), conjugate_left)
        assert exact(dot(xs, ys, conjugate_left)) == expected
        assert exact(dot(xs, ys, conjugate_left=conjugate_left)) == expected


def test_dot_examples_and_length_check():
    assert dot((), ()) == ZERO
    assert dot((OMEGA, IM), (OMEGA**3, IM)) == -ONE + -ONE
    assert dot((OMEGA, IM), (OMEGA, IM), conjugate_left=True) == CycInt(2)
    assert dot((SQRT2,), (SQRT2,), conjugate_left=True) == CycInt(2)
    for xs, ys in (((ONE,), (ONE, ONE)), ((ONE, ONE), (ONE,))):
        for conjugate_left in (False, True):
            with pytest.raises(ValueError):
                dot(xs, ys, conjugate_left)


class Int(int):
    """An int subclass: accepted as a coefficient, like any int but bool."""


@pytest.mark.parametrize(
    "bad, shown", [(True, "True"), (False, "False"), (1.0, "1.0"), (2.5, "2.5"), ("1", "'1'")]
)
@pytest.mark.parametrize("position", range(4))
def test_coefficient_validation_messages(bad, shown, position):
    coeffs = [1, 2, 3, 4]
    coeffs[position] = bad
    with pytest.raises(TypeError) as info:
        CycInt(*coeffs)
    assert str(info.value) == f"coefficients must be plain ints, got {shown}"


def test_int_subclass_coefficients_are_accepted():
    u = CycInt(Int(3), 0, Int(-1))
    assert u == CycInt(3, 0, -1) and type(u.a) is Int
    assert u * OMEGA == CycInt(0, 3, 0, -1)
    assert u + Int(2) == CycInt(5, 0, -1)
    assert Int(2) * u == CycInt(6, 0, -2)


@pytest.mark.parametrize(
    "misuse",
    [
        lambda: CycInt(1) * True,
        lambda: True * CycInt(1),
        lambda: CycInt(1) + False,
        lambda: False + CycInt(1),
        lambda: CycInt(1) - True,
        lambda: True - CycInt(1),
        lambda: CycInt(1) * 1.0,
        lambda: CycInt(1) + "1",
    ],
)
def test_bool_and_non_int_operands_are_rejected(misuse):
    with pytest.raises(TypeError):
        misuse()
