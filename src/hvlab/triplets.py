"""Hidden-variable triplets and the sign-monomial algebra over them.

A qubit's hidden state is a triplet <x, y, z> of signs, one per
measurement axis.  Gate action on triplets is given by small functional
rules.  To reason about all assignments at once, components may also be
symbolic: a :class:`SignMonomial` is a product of +-1 variables with an
overall sign, closed under negation and multiplication, so the same rule
functions run unchanged on concrete and symbolic triplets.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Iterator, NamedTuple

from ._tuples import refused

AXES = ("x", "y", "z")

# A hidden variable is one axis component of one qubit's triplet.
Var = tuple[int, str]


def var_name(v: Var, with_index: bool = True) -> str:
    qubit, axis = v
    return f"{axis}{qubit}" if with_index else axis


def _var_key(v: Var) -> tuple[int, int]:
    return (v[0], AXES.index(v[1]))


class SignMonomial(namedtuple("SignMonomial", "sign vars")):
    """A signed product of distinct +-1 variables, e.g. -y1.x2.

    The empty product with sign s is the constant s.  Multiplication
    cancels repeated variables (v*v = 1), so monomials form a group.
    """

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    # __mul__ below takes another monomial only.
    __add__, __radd__, __rmul__ = refused("+", "+", "*")

    def __init__(self, sign: int, vars: frozenset[Var]) -> None:
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign!r}")

    @classmethod
    def constant(cls, sign: int) -> SignMonomial:
        return cls(sign, frozenset())

    @classmethod
    def variable(cls, v: Var) -> SignMonomial:
        return cls(1, frozenset([v]))

    def is_constant(self) -> bool:
        return not self.vars

    def __neg__(self) -> SignMonomial:
        return SignMonomial(-self.sign, self.vars)

    def __mul__(self, other: SignMonomial) -> SignMonomial:
        if not isinstance(other, SignMonomial):
            return NotImplemented
        return SignMonomial(self.sign * other.sign, self.vars ^ other.vars)

    def evaluate(self, assignment: dict[Var, int]) -> int:
        value = self.sign
        for v in self.vars:
            value *= assignment[v]
        return value

    def render(self, with_index: bool = True) -> str:
        if not self.vars:
            return "+1" if self.sign > 0 else "-1"
        body = ".".join(var_name(v, with_index) for v in sorted(self.vars, key=_var_key))
        return body if self.sign > 0 else f"-{body}"

    def __str__(self) -> str:
        return self.render()


class Triplet(namedtuple("Triplet", "x y z")):
    """Concrete hidden state of one qubit: a sign per measurement axis."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

    def __init__(self, x: int, y: int, z: int) -> None:
        for axis, value in zip(AXES, self):
            if value not in (-1, 1):
                raise ValueError(f"{axis} component must be -1 or +1, got {value!r}")

    def component(self, axis: str) -> int:
        return getattr(self, axis)

    def __str__(self) -> str:
        def fmt(v: int) -> str:
            return "+1" if v > 0 else "-1"

        return f"⟨{fmt(self.x)}, {fmt(self.y)}, {fmt(self.z)}⟩"


class SymTriplet(NamedTuple):
    """Symbolic hidden state: one sign monomial per measurement axis."""

    x: SignMonomial
    y: SignMonomial
    z: SignMonomial

    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

    @classmethod
    def generic(cls, qubit: int) -> SymTriplet:
        return cls(*(SignMonomial.variable((qubit, axis)) for axis in AXES))

    def component(self, axis: str) -> SignMonomial:
        return getattr(self, axis)

    def evaluate(self, assignment: dict[Var, int]) -> Triplet:
        return Triplet(*(self.component(a).evaluate(assignment) for a in AXES))

    def __str__(self) -> str:
        return f"⟨{self.x}, {self.y}, {self.z}⟩"


def h(t):
    """Beam-splitter rule: <x, y, z> -> <z, -y, x>."""
    return type(t)(t.z, -t.y, t.x)


def p_half_pi(t):
    """Quarter-turn phase rule: <x, y, z> -> <-y, x, z>."""
    return type(t)(-t.y, t.x, t.z)


def cnot(control, target):
    """Two-qubit controlled-flip rule on (control, target) triplets."""
    kind = type(control)
    out_control = kind(control.x * target.x, control.y * target.x, control.z)
    out_target = kind(target.x, control.z * target.y, control.z * target.z)
    return (out_control, out_target)


def xy_product(t):
    """The x.y observable of one triplet."""
    return t.x * t.y


def all_triplets() -> Iterator[Triplet]:
    """All 8 concrete triplets, in lexicographic (-1 first) order."""
    for x, y, z in itertools.product((-1, 1), repeat=3):
        yield Triplet(x, y, z)


def enumerate_assignments(variables: tuple[Var, ...]) -> Iterator[tuple[int, dict[Var, int]]]:
    """All 2^n sign assignments, indexed so bit j of the index gives variables[j].

    A set bit means +1.  The index doubles as the position in satisfying-set
    bitmasks, so reports can cite assignments by number.
    """
    n = len(variables)
    for index in range(1 << n):
        yield index, {v: (1 if index >> j & 1 else -1) for j, v in enumerate(variables)}
