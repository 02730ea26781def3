"""Exact one- and two-qubit state algebra and spin-measurement predictions.

States are unnormalized vectors over :class:`~hvlab.cyclotomic.CycInt` and
every comparison is made up to an arbitrary nonzero scalar, so
normalization factors never appear.  The module owns the six spin
eigenstates, the built-in gate matrices, tensor products, separability,
classification of vectors back into the eigenbasis, and the exact
anti-correlation predicate used by the entanglement experiment.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections import namedtuple
from enum import Enum
from pathlib import Path

from .cyclotomic import IM, OMEGA, ONE, ZERO, CycInt


class BasisLabel(Enum):
    """The six spin eigenstates, in fixed enumeration order."""

    X_PLUS = ("x", 1)
    X_MINUS = ("x", -1)
    Y_PLUS = ("y", 1)
    Y_MINUS = ("y", -1)
    Z_PLUS = ("z", 1)
    Z_MINUS = ("z", -1)

    @property
    def axis(self) -> str:
        return self.value[0]

    @property
    def sign(self) -> int:
        return self.value[1]

    def __str__(self) -> str:
        return f"{self.axis.upper()}{'+' if self.sign > 0 else '-'}"

    @classmethod
    def parse(cls, text: str) -> BasisLabel:
        for label in cls:
            if str(label) == text:
                return label
        raise ValueError(f"not a basis label: {text!r}")


class Ket(namedtuple("Ket", "entries")):
    """Unnormalized state vector of dimension 2 or 4; never the zero vector."""

    __slots__ = ()

    def __init__(self, entries: tuple[CycInt, ...]) -> None:
        if len(entries) not in (2, 4):
            raise ValueError(f"kets have dimension 2 or 4, got {len(entries)}")
        if any(not isinstance(e, CycInt) for e in entries):
            raise TypeError("ket entries must be CycInt values")
        if all(e.is_zero() for e in entries):
            raise ValueError("the zero vector is not a state")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def of(cls, *entries: CycInt | int) -> Ket:
        return cls(tuple(CycInt.coerce(e) for e in entries))

    def scaled(self, factor: CycInt | int) -> Ket:
        return Ket(tuple(CycInt.coerce(factor) * e for e in self.entries))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def _gram_scale(entries: tuple[tuple[CycInt, ...], ...]) -> CycInt | None:
    """Return kappa with M'M = kappa*I (conjugate-transpose M'), else None."""
    dim = len(entries)
    scale: CycInt | None = None
    for i in range(dim):
        for j in range(dim):
            acc = ZERO
            for k in range(dim):
                acc = acc + entries[k][i].conjugate() * entries[k][j]
            if i != j:
                if not acc.is_zero():
                    return None
            elif scale is None:
                scale = acc
            elif acc != scale:
                return None
    return scale


class GateMatrix(namedtuple("GateMatrix", "entries name", defaults=(None,))):
    """Square matrix over CycInt, unitary up to a positive real scale.

    The name is a label only: equality and hashing use the entries alone.
    """

    __slots__ = ()

    def __init__(self, entries: tuple[tuple[CycInt, ...], ...], name: str | None = None) -> None:
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries != other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __post_init__(self) -> None:
        # perfbench/tracing.py counts matrix builds through this method, so it
        # keeps its name and runs exactly once per instance, from __init__.
        dim = len(self.entries)
        if dim not in (2, 4) or any(len(row) != dim for row in self.entries):
            raise ValueError("gate matrices must be square of dimension 2 or 4")
        scale = _gram_scale(self.entries)
        if scale is None or not scale.is_positive_real():
            raise ValueError("matrix is not unitary up to a positive real scale")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def of(cls, rows, name: str | None = None) -> GateMatrix:
        return cls(tuple(tuple(CycInt.coerce(e) for e in row) for row in rows), name)

    def gram_scale(self) -> CycInt:
        scale = _gram_scale(self.entries)
        assert scale is not None  # guaranteed by construction
        return scale

    def scaled(self, factor: CycInt | int) -> GateMatrix:
        f = CycInt.coerce(factor)
        return GateMatrix(tuple(tuple(f * e for e in row) for row in self.entries), self.name)


def apply(g: GateMatrix, v: Ket) -> Ket:
    """Exact matrix-vector product."""
    if g.dim != v.dim:
        raise ValueError(f"dimension mismatch: gate {g.dim}, ket {v.dim}")
    out = []
    for row in g.entries:
        acc = ZERO
        for m, e in zip(row, v.entries):
            acc = acc + m * e
        out.append(acc)
    return Ket(tuple(out))


def proportional(v: Ket, w: Ket) -> bool:
    """True iff w = lambda*v for some nonzero scalar, checked exactly.

    Cross products v_i*w_j = v_j*w_i suffice: both vectors are nonzero by
    construction and the scalar ring has no zero divisors, so equal cross
    products force matching zero patterns as well.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    n = v.dim
    for i in range(n):
        for j in range(i + 1, n):
            if v.entries[i] * w.entries[j] != v.entries[j] * w.entries[i]:
                return False
    return True


def tensor(v: Ket, w: Ket) -> Ket:
    """Kronecker product; qubit 1 is the tensor-major factor."""
    if v.dim != 2 or w.dim != 2:
        raise ValueError("tensor takes two dimension-2 kets")
    return Ket(tuple(v.entries[i] * w.entries[j] for i in range(2) for j in range(2)))


def kron(a: GateMatrix, b: GateMatrix, name: str | None = None) -> GateMatrix:
    """Kronecker product of two single-qubit gates, qubit 1 major."""
    if a.dim != 2 or b.dim != 2:
        raise ValueError("kron takes two dimension-2 gates")
    rows = []
    for i in range(2):
        for k in range(2):
            rows.append(tuple(a.entries[i][j] * b.entries[k][l] for j in range(2) for l in range(2)))
    return GateMatrix(tuple(rows), name)


def separable(v: Ket) -> bool:
    """Rank-1 criterion for a two-qubit vector: v00*v11 = v01*v10."""
    if v.dim != 4:
        raise ValueError("separability is defined for dimension-4 kets")
    e = v.entries
    return e[0] * e[3] == e[1] * e[2]


def eigenvector(label: BasisLabel) -> Ket:
    return _EIGENVECTORS[label]


@functools.cache
def basis_products(arity: int) -> tuple[tuple[tuple[BasisLabel, ...], Ket], ...]:
    """Every basis product with its ket, in fixed enumeration order.

    One qubit gives the 6 eigenstates, two qubits the 36 ordered pairs with
    qubit 1 major.  The table is built on first use and shared afterwards.
    """
    if arity == 1:
        return tuple(((l,), eigenvector(l)) for l in BasisLabel)
    if arity == 2:
        return tuple(
            ((l1, l2), tensor(eigenvector(l1), eigenvector(l2)))
            for l1 in BasisLabel
            for l2 in BasisLabel
        )
    raise ValueError(f"arity must be 1 or 2, got {arity}")


def classify(v: Ket) -> BasisLabel | tuple[BasisLabel, BasisLabel] | None:
    """Identify v within the spin eigenbasis, up to a scalar.

    For dimension 2, returns the unique matching label, if any.  For
    dimension 4, returns the unique pair (qubit 1 label, qubit 2 label)
    whose tensor product is proportional to v; vectors that are entangled
    or have a non-eigenbasis factor yield None.  A missing classification
    is a meaningful result, not an error.
    """
    if v.dim == 2:
        for label in BasisLabel:
            if proportional(eigenvector(label), v):
                return label
        return None
    for labels, product in basis_products(2):
        if proportional(product, v):
            return labels
    return None


def inner(v: Ket, w: Ket) -> CycInt:
    """Hermitian inner product <v|w>, conjugating the left argument."""
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    acc = ZERO
    for a, b in zip(v.entries, w.entries):
        acc = acc + a.conjugate() * b
    return acc


def bell_psi_minus() -> Ket:
    """The maximally entangled singlet (0, 1, -1, 0), i.e. |01> - |10>."""
    return Ket.of(0, 1, -1, 0)


def predicts_opposite(v: Ket, axis: str) -> bool:
    """True iff equal-axis spin measurements on both qubits are predicted opposite.

    Encoded as the exact ring equation <v|s(x)s|v> = -<v|v> (expectation -1
    without any division), where s is the Pauli matrix of the given axis.
    """
    if v.dim != 4:
        raise ValueError("the anti-correlation predicate needs a two-qubit state")
    key = axis.upper()
    if key not in ("X", "Y", "Z"):
        raise ValueError(f"not a measurement axis: {axis!r}")
    m = _pair_observable(key)
    return inner(v, apply(m, v)) == -inner(v, v)


@functools.cache
def _pair_observable(key: str) -> GateMatrix:
    """s(x)s for the Pauli matrix s named by key, built on first use."""
    p = GATES[key]
    return kron(p, p)


def gate(name: str) -> GateMatrix:
    """Look up a built-in gate by name."""
    try:
        return GATES[name]
    except KeyError:
        raise ValueError(f"unknown built-in gate {name!r}") from None


def matrix_digest(g: GateMatrix) -> str:
    """Content hash of the matrix (dimension and entries, not the label)."""
    payload = {
        "dim": g.dim,
        "entries": [[[e.a, e.b, e.c, e.d] for e in row] for row in g.entries],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(blob).hexdigest()


def gate_to_json(g: GateMatrix) -> dict:
    return {
        "name": g.name or "",
        "dim": g.dim,
        "entries": [[[e.a, e.b, e.c, e.d] for e in row] for row in g.entries],
    }


def gate_from_json(obj) -> GateMatrix:
    """Build a gate from the document format {"name", "dim", "entries"}.

    Entries are rows of coefficient 4-tuples [a, b, c, d]; the matrix must
    be unitary up to a positive real scale or the construction fails.
    """
    if not isinstance(obj, dict):
        raise ValueError("gate document must be a JSON object")
    for key in ("name", "dim", "entries"):
        if key not in obj:
            raise ValueError(f"gate document is missing {key!r}")
    name = obj["name"]
    if not isinstance(name, str):
        raise ValueError("gate name must be a string")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim not in (2, 4):
        raise ValueError("gate dimension must be 2 or 4")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f"expected {dim} rows of entries")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"each row must hold {dim} entries")
        out_row = []
        for coeffs in row:
            if (
                not isinstance(coeffs, list)
                or len(coeffs) != 4
                or any(not isinstance(n, int) or isinstance(n, bool) for n in coeffs)
            ):
                raise ValueError("each entry must be a coefficient 4-tuple of integers")
            out_row.append(CycInt(*coeffs))
        rows.append(tuple(out_row))
    return GateMatrix(tuple(rows), name or None)


def load_gate(path: str | Path) -> GateMatrix:
    """Load a gate matrix from a JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    return gate_from_json(json.loads(text))


_EIGENVECTORS = {
    BasisLabel.X_PLUS: Ket.of(1, 1),
    BasisLabel.X_MINUS: Ket.of(1, -1),
    BasisLabel.Y_PLUS: Ket.of(ONE, IM),
    BasisLabel.Y_MINUS: Ket.of(ONE, -IM),
    BasisLabel.Z_PLUS: Ket.of(1, 0),
    BasisLabel.Z_MINUS: Ket.of(0, 1),
}

GATES = {
    "I": GateMatrix.of([[1, 0], [0, 1]], "I"),
    "X": GateMatrix.of([[0, 1], [1, 0]], "X"),
    "Y": GateMatrix.of([[ZERO, -IM], [IM, ZERO]], "Y"),
    "Z": GateMatrix.of([[1, 0], [0, -1]], "Z"),
    "H": GateMatrix.of([[1, 1], [1, -1]], "H"),
    "S": GateMatrix.of([[ONE, ZERO], [ZERO, IM]], "S"),
    "T": GateMatrix.of([[ONE, ZERO], [ZERO, OMEGA]], "T"),
    "CNOT": GateMatrix.of(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "CNOT"
    ),
}
