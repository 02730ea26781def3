"""Exact one- and two-qubit state algebra and spin-measurement predictions.

States are unnormalized vectors over :class:`~hvlab.cyclotomic.CycInt` and
every comparison is made up to an arbitrary nonzero scalar, so
normalization factors never appear.  The module owns the six spin
eigenstates, the built-in gate matrices, tensor products, separability,
classification of vectors back into the eigenbasis, and the exact
anti-correlation predicate used by the entanglement experiment.  The sizes
it supports are checked by the value types alone: :class:`Ket` and
:class:`GateMatrix` refuse any dimension but 2 and 4, and the products,
tables and circuits built from them inherit that limit.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import namedtuple
from enum import Enum
from pathlib import Path

from ._tuples import refused
from .cyclotomic import IM, OMEGA, ONE, ZERO, CycInt, dot


class BasisLabel(Enum):
    """The six spin eigenstates, in fixed enumeration order.

    Each member's ``axis``, ``sign`` and ``text`` (e.g. "X+") are plain
    attributes, set once when the class is built.
    """

    X_PLUS = ("x", 1)
    X_MINUS = ("x", -1)
    Y_PLUS = ("y", 1)
    Y_MINUS = ("y", -1)
    Z_PLUS = ("z", 1)
    Z_MINUS = ("z", -1)

    def __init__(self, axis: str, sign: int) -> None:
        self.axis = axis
        self.sign = sign
        self.text = f"{axis.upper()}{'+' if sign > 0 else '-'}"

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> BasisLabel:
        for label in cls:
            if str(label) == text:
                return label
        raise ValueError(f"not a basis label: {text!r}")


class Ket(namedtuple("Ket", "entries")):
    """Unnormalized state vector of dimension 2 or 4; never the zero vector."""

    __slots__ = ()
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

    def __init__(self, entries: tuple[CycInt, ...]) -> None:
        if type(entries) is not tuple:
            raise TypeError("ket entries must be a tuple")
        n = len(entries)
        if n != 2 and n != 4:
            raise ValueError(f"kets have dimension 2 or 4, got {n}")
        for e in entries:
            if not isinstance(e, CycInt):
                raise TypeError("ket entries must be CycInt values")
        if entries.count(ZERO) == n:
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
    """Return kappa with M'M = kappa*I (conjugate-transpose M'), else None.

    Entry (i, j) of M'M is the inner product of columns i and j.  M'M is
    Hermitian, so entry (j, i) is the conjugate of (i, j): the entries on
    and above the diagonal decide.
    """
    columns = tuple(zip(*entries))
    scale: CycInt | None = None
    for i, left in enumerate(columns):
        for j in range(i, len(columns)):
            acc = dot(left, columns[j], conjugate_left=True)
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
    __lt__, __le__, __gt__, __ge__ = refused("<", "<=", ">", ">=")
    __add__, __radd__, __mul__, __rmul__ = refused("+", "+", "*", "*")

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
        if type(self.entries) is not tuple or any(type(row) is not tuple for row in self.entries):
            raise TypeError("gate matrix entries must be a tuple of tuples")
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
    """Exact matrix-vector product.

    Each entry of the image is one :func:`~hvlab.cyclotomic.dot` of a row
    with the vector: the kernel works on raw coefficients and builds one
    validated CycInt per entry.
    """
    rows, ve = g.entries, v.entries
    if len(rows) != len(ve):
        raise ValueError(f"dimension mismatch: gate {len(rows)}, ket {len(ve)}")
    return Ket(tuple([dot(row, ve) for row in rows]))


# The index pairs i < j of a 2- or 4-vector, in the order proportional tries them.
_INDEX_PAIRS = {n: tuple(itertools.combinations(range(n), 2)) for n in (2, 4)}


def proportional(v: Ket, w: Ket) -> bool:
    """True iff w = lambda*v for some nonzero scalar, checked exactly.

    Cross products v_i*w_j = v_j*w_i suffice: both vectors are nonzero by
    construction and the scalar ring has no zero divisors, so equal cross
    products force matching zero patterns as well.
    """
    ve, we = v.entries, w.entries
    if len(ve) != len(we):
        raise ValueError(f"dimension mismatch: {len(ve)} vs {len(we)}")
    for i, j in _INDEX_PAIRS[len(ve)]:
        if ve[i] * we[j] != ve[j] * we[i]:
            return False
    return True


def tensor(v: Ket, w: Ket) -> Ket:
    """Kronecker product, qubit 1 major; :class:`Ket` validation checks its size."""
    return Ket(tuple([a * b for a in v.entries for b in w.entries]))


def kron(a: GateMatrix, b: GateMatrix) -> GateMatrix:
    """Kronecker product, qubit 1 major; :class:`GateMatrix` validation checks its size."""
    return GateMatrix(
        tuple(tuple([x * y for x in ra for y in rb]) for ra in a.entries for rb in b.entries)
    )


@functools.cache
def _builtin_kron(left: str, right: str) -> GateMatrix:
    """GATES[left]⊗GATES[right], built on first use and shared afterwards."""
    return kron(GATES[left], GATES[right])


def run_ket(circuit: tuple, ket: Ket) -> Ket:
    """The two-qubit ket after a circuit of (gate name, qubits) steps.

    A one-qubit gate is embedded as ``g⊗I``, so it must act on qubit 1, and
    a two-qubit gate on qubits (1, 2): the placements the experiment uses.
    The ket's size is checked by :func:`apply` against the gate's, so a
    ket of another dimension raises :class:`ValueError`.
    """
    for name, qubits in circuit:
        g = GATES[name]
        if qubits != ((1,) if g.dim == 2 else (1, 2)):
            raise ValueError(f"{name} on qubits {qubits} cannot run on a two-qubit ket")
        ket = apply(_builtin_kron(name, "I") if g.dim == 2 else g, ket)
    return ket


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
    An arity below 1 raises :class:`ValueError`, and so does one whose kets
    :class:`Ket` does not support (above 2).
    """
    if arity < 1:
        raise ValueError(f"arity must be positive, got {arity}")
    return tuple(
        (labels, functools.reduce(tensor, map(eigenvector, labels)))
        for labels in itertools.product(BasisLabel, repeat=arity)
    )


def classify(v: Ket) -> BasisLabel | tuple[BasisLabel, BasisLabel] | None:
    """Identify v within the spin eigenbasis, up to a scalar.

    For dimension 2, returns the unique matching label, if any, read off
    v = (a, b) in closed form: b = 0 is Z+, a = 0 is Z-, b = a is X+,
    b = -a is X-, b = i*a is Y+ and b = -i*a is Y-.  These are the cross
    products proportional would test against the fixed eigenvectors
    (1, s), (1, 0) and (0, 1), at one ring multiply at most.  For
    dimension 4, returns the unique pair (qubit 1 label, qubit 2 label)
    whose tensor product is proportional to v; vectors that are entangled
    or have a non-eigenbasis factor yield None.  An entangled v fails the
    rank-1 determinant of separable (two ring multiplies) and is rejected
    before the scan of the 36 products, none of which is proportional to
    it.  A missing classification is a meaningful result, not an error.
    """
    if v.dim == 2:
        a, b = v.entries
        if b == ZERO:
            return BasisLabel.Z_PLUS
        if a == ZERO:
            return BasisLabel.Z_MINUS
        if b == a:
            return BasisLabel.X_PLUS
        if b == -a:
            return BasisLabel.X_MINUS
        ia = IM * a
        if b == ia:
            return BasisLabel.Y_PLUS
        if b == -ia:
            return BasisLabel.Y_MINUS
        return None
    if not separable(v):
        return None
    for labels, product in basis_products(2):
        if proportional(product, v):
            return labels
    return None


def inner(v: Ket, w: Ket) -> CycInt:
    """Hermitian inner product <v|w>, conjugating the left argument."""
    ve, we = v.entries, w.entries
    if len(ve) != len(we):
        raise ValueError(f"dimension mismatch: {len(ve)} vs {len(we)}")
    return dot(ve, we, conjugate_left=True)


def bell_psi_minus() -> Ket:
    """The maximally entangled singlet (0, 1, -1, 0), i.e. |01> - |10>."""
    return _BELL_PSI_MINUS


def predicts_opposite(v: Ket, axis: str) -> bool:
    """True iff equal-axis spin measurements on both qubits are predicted opposite.

    Encoded as the exact ring equation <v|s(x)s|v> = -<v|v> (expectation -1
    without any division), where s is the Pauli matrix of the given axis.
    A v that is not a two-qubit state fails :func:`apply`'s size check with
    :class:`ValueError`.
    """
    key = axis.upper()
    if key not in ("X", "Y", "Z"):
        raise ValueError(f"not a measurement axis: {axis!r}")
    return inner(v, apply(_builtin_kron(key, key), v)) == -inner(v, v)


def matrix_digest(g: GateMatrix) -> str:
    """Content hash of the matrix (dimension and entries, not the label)."""
    payload = gate_to_json(g)
    del payload["name"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    # Imported here: only derive hashes a matrix, and OpenSSL's _hashlib
    # would otherwise load on every start.
    import hashlib

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
    be of a size :class:`GateMatrix` supports and unitary up to a positive
    real scale, or the construction fails.
    """
    if not isinstance(obj, dict):
        raise ValueError("gate document must be a JSON object")
    for key in ("name", "dim", "entries"):
        if key not in obj:
            raise ValueError(f"gate document is missing {key!r}")
    name = obj["name"]
    if not isinstance(name, str):
        raise ValueError("gate name must be a string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, valid in JSON text
        raise ValueError("gate name must be encodable as UTF-8") from None
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError("gate dimension must be an integer")
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


# Above the largest document that json.loads turns into in-limit integers:
# 16 entries x 4 coefficients x 4 300 digits is about 0.28 MB.
MAX_GATE_FILE_BYTES = 1 << 20


def load_gate(path: str | Path) -> GateMatrix:
    """Load a gate matrix from a JSON file of at most MAX_GATE_FILE_BYTES."""
    with open(path, "rb") as f:
        data = f.read(MAX_GATE_FILE_BYTES + 1)
    if len(data) > MAX_GATE_FILE_BYTES:
        raise ValueError(f"gate file is larger than {MAX_GATE_FILE_BYTES} bytes")
    return gate_from_json(json.loads(data.decode("utf-8")))


_EIGENVECTORS = {
    BasisLabel.X_PLUS: Ket.of(1, 1),
    BasisLabel.X_MINUS: Ket.of(1, -1),
    BasisLabel.Y_PLUS: Ket.of(ONE, IM),
    BasisLabel.Y_MINUS: Ket.of(ONE, -IM),
    BasisLabel.Z_PLUS: Ket.of(1, 0),
    BasisLabel.Z_MINUS: Ket.of(0, 1),
}

_BELL_PSI_MINUS = Ket.of(0, 1, -1, 0)

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
