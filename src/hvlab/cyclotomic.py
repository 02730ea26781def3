"""Exact arithmetic over the eighth-root cyclotomic integers.

A value is an integer combination ``a + b*w + c*w^2 + d*w^3`` of the
primitive eighth root of unity ``w = exp(i*pi/4)``, with products reduced
by ``w^4 = -1``.  The ring contains the imaginary unit (``w^2``) and
``sqrt(2)`` (as ``w - w^3``), which covers every matrix entry used in this
package, so no floating point appears anywhere.  Coefficients are plain
Python integers: arithmetic is exact at any magnitude and can never
silently wrap.
"""

from __future__ import annotations

from collections import namedtuple


class CycInt(namedtuple("CycInt", "a b c d", defaults=(0, 0, 0))):
    """Cyclotomic integer ``a + b*w + c*w^2 + d*w^3`` with ``w = exp(i*pi/4)``.

    An immutable tuple of the four coefficients: equality and hashing are
    those of the coefficient tuple.
    """

    __slots__ = ()

    # Validation runs in __init__, once per instance: perfbench/tracing.py
    # counts ring-element builds through this method.
    def __init__(self, a: int, b: int = 0, c: int = 0, d: int = 0) -> None:
        for coeff in self:
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficients must be plain ints, got {coeff!r}")

    @staticmethod
    def coerce(value: CycInt | int) -> CycInt:
        if isinstance(value, CycInt):
            return value
        return CycInt(value)

    def __add__(self, other: CycInt | int) -> CycInt:
        o = CycInt.coerce(other)
        return CycInt(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> CycInt:
        return CycInt(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: CycInt | int) -> CycInt:
        return self + (-CycInt.coerce(other))

    def __rsub__(self, other: CycInt | int) -> CycInt:
        return CycInt.coerce(other) + (-self)

    def __mul__(self, other: CycInt | int) -> CycInt:
        a, b, c, d = self
        e, f, g, h = CycInt.coerce(other)
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
        return CycInt(self.a, -self.d, -self.c, -self.b)

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


ZERO = CycInt(0)
ONE = CycInt(1)
OMEGA = CycInt(0, 1)
IM = CycInt(0, 0, 1)
SQRT2 = CycInt(0, 1, 0, -1)
