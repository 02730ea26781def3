"""Exact arithmetic over the eighth-root cyclotomic integers.

A value is an integer combination ``a + b*w + c*w^2 + d*w^3`` of the
primitive eighth root of unity ``w = exp(i*pi/4)``, with products reduced
by ``w^4 = -1``.  The ring contains the imaginary unit (``w^2``) and
``sqrt(2)`` (as ``w - w^3``), which covers every matrix entry used in this
package, so no floating point appears anywhere.  Coefficients are plain
Python integers: arithmetic is exact at any magnitude and can never
silently wrap.

The vector kernel :func:`dot` sums paired products on the raw
coefficients and builds one validated element per result, so a
matrix-vector product or an inner product makes no intermediate ring
elements.
"""

from __future__ import annotations

from collections import namedtuple

from ._tuples import refused


class CycInt(namedtuple("CycInt", "a b c d", defaults=(0, 0, 0))):
    """Cyclotomic integer ``a + b*w + c*w^2 + d*w^3`` with ``w = exp(i*pi/4)``.

    An immutable tuple of the four coefficients: equality and hashing are
    those of the coefficient tuple.
    """

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")

    # Validation runs in __init__, once per instance: perfbench/tracing.py
    # counts ring-element builds through this method.  Four plain ints, the
    # case of every ring operation, pass on one type test each.
    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0) -> None:
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            return
        for coeff in self:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficients must be plain ints, got {coeff!r}")

    @staticmethod
    def coerce(value: CycInt | int) -> CycInt:
        if isinstance(value, CycInt):
            return value
        return CycInt(value)

    # The operators unpack a CycInt operand directly and call coerce only
    # for anything else.  Subtraction adds a negated copy through __add__,
    # so the op counts see it as an addition.
    def __add__(self, other: CycInt | int) -> CycInt:
        a, b, c, d = self
        e, f, g, h = other if type(other) is CycInt else CycInt.coerce(other)
        return CycInt(a + e, b + f, c + g, d + h)

    __radd__ = __add__

    def __neg__(self) -> CycInt:
        a, b, c, d = self
        return CycInt(-a, -b, -c, -d)

    def __sub__(self, other: CycInt | int) -> CycInt:
        e, f, g, h = other if type(other) is CycInt else CycInt.coerce(other)
        return self + CycInt(-e, -f, -g, -h)

    def __rsub__(self, other: CycInt | int) -> CycInt:
        a, b, c, d = self
        return CycInt.coerce(other) + CycInt(-a, -b, -c, -d)

    def __mul__(self, other: CycInt | int) -> CycInt:
        a, b, c, d = self
        e, f, g, h = other if type(other) is CycInt else CycInt.coerce(other)
        # w^(j+k) picks up a minus sign whenever j+k reaches 4.
        return CycInt(
            a * e - b * h - c * g - d * f,
            a * f + b * e - c * h - d * g,
            a * g + b * f + c * e - d * h,
            a * h + b * g + c * f + d * e,
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> CycInt:
        if exponent < 0:
            raise ValueError("negative powers leave the ring")
        result = ONE
        for _ in range(exponent):
            result = result * self
        return result

    def conjugate(self) -> CycInt:
        """Complex conjugate: w -> -w^3, w^2 -> -w^2, w^3 -> -w."""
        a, b, c, d = self
        return CycInt(a, -d, -c, -b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_real(self) -> bool:
        """Real iff fixed by conjugation, i.e. of the form ``a + b*sqrt(2)``."""
        return self.c == 0 and self.d == -self.b

    def is_positive_real(self) -> bool:
        """Exact sign test for ``a + b*sqrt(2)``, no floating point involved."""
        if not self.is_real():
            return False
        a, b = self.a, self.b
        if b == 0:
            return a > 0
        if b > 0:
            return a >= 0 or a * a < 2 * b * b
        return a > 0 and a * a > 2 * b * b

    def __str__(self) -> str:
        terms = []
        for coeff, unit in ((self.a, ""), (self.b, "w"), (self.c, "w^2"), (self.d, "w^3")):
            if coeff == 0:
                continue
            magnitude = abs(coeff)
            body = unit if magnitude == 1 and unit else f"{magnitude}{unit}"
            if not terms:
                terms.append(body if coeff > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def dot(xs, ys, conjugate_left: bool = False) -> CycInt:
    """The sum of ``x*y`` (``conj(x)*y`` if conjugate_left) over paired elements.

    The sum runs on plain-int coefficients with the product rule of
    CycInt.__mul__ and builds one CycInt, the result: the products and
    partial sums never become ring elements.  Both sequences must hold
    CycInt values and have the same length.
    """
    s0 = s1 = s2 = s3 = 0
    if conjugate_left:
        # conj(a + b*w + c*w^2 + d*w^3) = a - d*w - c*w^2 - b*w^3.
        for (a, b, c, d), (e, f, g, h) in zip(xs, ys, strict=True):
            s0 += a * e + b * f + c * g + d * h
            s1 += a * f + b * g + c * h - d * e
            s2 += a * g + b * h - c * e - d * f
            s3 += a * h - b * e - c * f - d * g
    else:
        for (a, b, c, d), (e, f, g, h) in zip(xs, ys, strict=True):
            s0 += a * e - b * h - c * g - d * f
            s1 += a * f + b * e - c * h - d * g
            s2 += a * g + b * f + c * e - d * h
            s3 += a * h + b * g + c * f + d * e
    return CycInt(s0, s1, s2, s3)


ZERO = CycInt(0)
ONE = CycInt(1)
OMEGA = CycInt(0, 1)
IM = CycInt(0, 0, 1)
SQRT2 = CycInt(0, 1, 0, -1)
