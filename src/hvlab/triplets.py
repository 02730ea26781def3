"""Hidden-variable triplets and the sign-monomial algebra over them.

A qubit's hidden state is a triplet <x, y, z> of signs, one per
measurement axis.  Gate action on triplets is given by small functional
rules.  To reason about all assignments at once, components may also be
symbolic: a :class:`SignMonomial` is a product of +-1 variables with an
overall sign, closed under negation and multiplication, so the same rule
functions run unchanged on concrete and symbolic triplets.  A circuit is a
tuple of ``(gate name, qubit indices)`` steps, run by :func:`run` through
the rule functions of this module that :data:`RULES` names (and by
:func:`hvlab.qstate.run_ket` on kets).  Hidden variable (q, axis) has the
global bit ``3(q-1) + AXES.index(axis)``: a monomial is a mask over these
bits, and an assignment of signs is an integer index over them, a set bit
meaning +1.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from typing import Iterator

from ._tuples import refused

AXES = ("x", "y", "z")

# A hidden variable by name: one axis component of one qubit's triplet.
Var = tuple[int, str]


def var_bit(v: Var) -> int:
    """The variable's global bit: 3(q-1) + AXES.index(axis)."""
    qubit, axis = v
    return 3 * (qubit - 1) + AXES.index(axis)


def bit_var(bit: int) -> Var:
    """The variable of a global bit: the inverse of :func:`var_bit`."""
    return bit // 3 + 1, AXES[bit % 3]


def var_name(v: Var, with_index: bool = True) -> str:
    qubit, axis = v
    return f"{axis}{qubit}" if with_index else axis


def parity(bits: int) -> int:
    """+1 when `bits` has an even number of set bits, -1 when odd."""
    return -1 if bits.bit_count() & 1 else 1


class SignMonomial(namedtuple("SignMonomial", "sign mask")):
    """A signed product of distinct +-1 variables, e.g. -y1.x2.

    ``mask`` holds the global bits of the variables.  The empty product
    with sign s is the constant s.  Multiplication cancels repeated
    variables (v*v = 1), so it XORs the masks and monomials form a group.
    """

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    # __mul__ below takes another monomial only.
    __add__, __radd__, __rmul__ = refused("+", "+", "*")

    def __init__(self, sign: int, mask: int) -> None:
        # Plain ints only: 1.0 and True compare equal to 1, and a negative
        # mask has infinitely many bits set.
        if type(sign) is not int or sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign!r}")
        if type(mask) is not int or mask < 0:
            raise ValueError(f"mask must be a non-negative int, got {mask!r}")

    @classmethod
    def constant(cls, sign: int) -> SignMonomial:
        return cls(sign, 0)

    @classmethod
    def variable(cls, v: Var) -> SignMonomial:
        return cls(1, 1 << var_bit(v))

    def __neg__(self) -> SignMonomial:
        return SignMonomial(-self.sign, self.mask)

    def __mul__(self, other: SignMonomial) -> SignMonomial:
        if not isinstance(other, SignMonomial):
            return NotImplemented
        return SignMonomial(self.sign * other.sign, self.mask ^ other.mask)

    def evaluate(self, index: int) -> int:
        """The value at assignment `index`: the sign, times -1 per member bit clear in it."""
        return self.sign * parity(self.mask & ~index)

    def render(self, with_index: bool = True) -> str:
        return _render(self.sign, self.mask, bool(with_index))

    def __str__(self) -> str:
        return self.render()


@functools.lru_cache(maxsize=1024)  # bounded: a mask may be any non-negative int
def _render(sign: int, mask: int, with_index: bool) -> str:
    if not mask:
        return "+1" if sign > 0 else "-1"
    bits = range(mask.bit_length())
    body = ".".join(var_name(bit_var(bit), with_index) for bit in bits if mask >> bit & 1)
    return body if sign > 0 else f"-{body}"


class Triplet(namedtuple("Triplet", "x y z")):
    """Concrete hidden state of one qubit: a sign per measurement axis."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

    def __init__(self, x: int, y: int, z: int) -> None:
        for axis, value in zip(AXES, self):
            if type(value) is not int or value not in (-1, 1):
                raise ValueError(f"{axis} component must be -1 or +1, got {value!r}")

    def __str__(self) -> str:
        def fmt(v: int) -> str:
            return "+1" if v > 0 else "-1"

        return f"⟨{fmt(self.x)}, {fmt(self.y)}, {fmt(self.z)}⟩"


class SymTriplet(namedtuple("SymTriplet", "x y z")):
    """Symbolic hidden state: one sign monomial per measurement axis."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

    def __init__(self, x: SignMonomial, y: SignMonomial, z: SignMonomial) -> None:
        for axis, value in zip(AXES, self):
            if not isinstance(value, SignMonomial):
                raise ValueError(f"{axis} component must be a sign monomial, got {value!r}")

    @classmethod
    def generic(cls, qubit: int) -> SymTriplet:
        return cls(*(SignMonomial.variable((qubit, axis)) for axis in AXES))

    def evaluate(self, index: int) -> Triplet:
        return Triplet(*(m.evaluate(index) for m in self))

    def __str__(self) -> str:
        return f"⟨{self.x}, {self.y}, {self.z}⟩"


def assignment_index(triplets) -> int:
    """The assignment index of concrete triplets on qubits 1, 2, ... in order."""
    components = itertools.chain.from_iterable(triplets)
    return sum(1 << bit for bit, value in enumerate(components) if value > 0)


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


# Gate name -> name of its rule function in this module.
RULES = {"H": "h", "S": "p_half_pi", "CNOT": "cnot"}


def run(circuit: tuple, state: tuple) -> list[tuple]:
    """The triplets, one per qubit, before and after each step of the circuit.

    Each step's rule is looked up by name in this module when the step
    runs, so a rule replaced on the module is the one that runs.  A rule
    takes one triplet per qubit it acts on and returns a triplet for one
    qubit and a pair for two.
    """
    states = [tuple(state)]
    for name, qubits in circuit:
        rule = globals()[RULES[name]]
        out = rule(*(state[q - 1] for q in qubits))
        state = list(state)
        for q, t in zip(qubits, (out,) if len(qubits) == 1 else out):
            state[q - 1] = t
        states.append(tuple(state))
    return states
