"""Seeded inputs for the three benchmark workloads, and the requests they run.

Everything here is built from the workload seed alone, so one seed always
gives the same inputs.  Census gates are composed with the benchmark's own
ring arithmetic, never with hvlab, so the program under test only ever
sees the generated documents.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import types
from dataclasses import dataclass
from pathlib import Path

# --- Z[w] arithmetic on 4-tuples (a, b, c, d) = a + b*w + c*w^2 + d*w^3, w^4 = -1.

ZERO = (0, 0, 0, 0)
ONE = (1, 0, 0, 0)
MINUS_ONE = (-1, 0, 0, 0)
IM = (0, 0, 1, 0)
MINUS_IM = (0, 0, -1, 0)
OMEGA = (0, 1, 0, 0)


def rmul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e - b * h - c * g - d * f,
        a * f + b * e - c * h - d * g,
        a * g + b * f + c * e - d * h,
        a * h + b * g + c * f + d * e,
    )


def radd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def rpow(x, k):
    out = ONE
    for _ in range(k):
        out = rmul(out, x)
    return out


def matmul(m, n):
    size = len(m)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = ZERO
            for k in range(size):
                acc = radd(acc, rmul(m[i][k], n[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matvec(m, v):
    out = []
    for row in m:
        acc = ZERO
        for e, x in zip(row, v):
            acc = radd(acc, rmul(e, x))
        out.append(acc)
    return tuple(out)


def kron(a, b):
    return tuple(
        tuple(rmul(a[i][j], b[k][l]) for j in range(2) for l in range(2))
        for i in range(2)
        for k in range(2)
    )


def kron_vec(v, w):
    return tuple(rmul(x, y) for x in v for y in w)


def proportional(v, w):
    """Exact test that w is a nonzero multiple of v (both nonzero)."""
    n = len(v)
    return all(
        rmul(v[i], w[j]) == rmul(v[j], w[i]) for i in range(n) for j in range(i + 1, n)
    )


def scaled(m, factor):
    return tuple(tuple(rmul(factor, e) for e in row) for row in m)


# --- Gates and eigenstates, written out independently of hvlab.qstate.

def _diag(x, y):
    return ((x, ZERO), (ZERO, y))


I2 = _diag(ONE, ONE)
H2 = ((ONE, ONE), (ONE, MINUS_ONE))
S2 = _diag(ONE, IM)
T2 = _diag(ONE, OMEGA)


def _permutation(images):
    return tuple(tuple(ONE if images[j] == i else ZERO for j in range(4)) for i in range(4))


CLIFFORD_LETTERS = {
    "H1": kron(H2, I2),
    "H2": kron(I2, H2),
    "S1": kron(S2, I2),
    "S2": kron(I2, S2),
    "CX12": _permutation((0, 1, 3, 2)),  # control qubit 1: |10> <-> |11>
    "CX21": _permutation((0, 3, 2, 1)),  # control qubit 2: |01> <-> |11>
}
T_LETTERS = {"T1": kron(T2, I2), "T2": kron(I2, T2)}
LETTERS = {**CLIFFORD_LETTERS, **T_LETTERS}

EIGENSTATES = {
    "X+": (ONE, ONE),
    "X-": (ONE, MINUS_ONE),
    "Y+": (ONE, IM),
    "Y-": (ONE, MINUS_IM),
    "Z+": (ONE, ZERO),
    "Z-": (ZERO, ONE),
}
PRODUCT_LABELS = tuple(f"{a},{b}" for a in EIGENSTATES for b in EIGENSTATES)


def product_state(labels: str):
    first, second = labels.split(",")
    return kron_vec(EIGENSTATES[first], EIGENSTATES[second])


def word_matrix(word):
    """The matrix of a word; the first letter acts first."""
    m = LETTERS[word[0]]
    for letter in word[1:]:
        m = matmul(LETTERS[letter], m)
    return m


def gate_document(name, m) -> dict:
    """A matrix in the public gate format {"name", "dim", "entries"}."""
    return {"name": name, "dim": len(m), "entries": [[list(e) for e in row] for row in m]}


# --- census: distinct two-qubit gate documents.

# Each block of eight gates: (has a T letter, wide coefficients).  Half are T
# words and a quarter are wide, exactly, so that every seed's stream has the
# same mix of slow and fast inputs and the tail percentile does not depend
# on how the draws fell.
CENSUS_BLOCK = (
    (True, True), (True, False), (True, False), (True, False),
    (False, True), (False, False), (False, False), (False, False),
)
WORD_LENGTH = (6, 14)
WIDE_POWER = (90, 120)  # (1+w)^k has coefficients beyond 64 bits for k >= 90


@dataclass(frozen=True)
class CensusGate:
    doc: dict
    matrix: tuple
    t_word: bool
    wide: bool
    base_doc: dict | None  # the unscaled form of a wide gate


def _flat(m):
    return tuple(e for row in m for e in row)


class _Seen:
    """Gates already produced, compared up to a nonzero scalar factor."""

    def __init__(self) -> None:
        self._buckets: dict[tuple, list] = {}

    def add(self, m) -> bool:
        flat = _flat(m)
        bucket = self._buckets.setdefault(tuple(e == ZERO for e in flat), [])
        if any(proportional(other, flat) for other in bucket):
            return False
        bucket.append(flat)
        return True


def census_stream(seed: int, tag: str = "census"):
    """Endless stream of gates, distinct up to scalar factor within a stream."""
    rng = random.Random(f"{tag}:{seed}")
    seen = _Seen()
    clifford = sorted(CLIFFORD_LETTERS)
    for index in itertools.count():
        if index % len(CENSUS_BLOCK) == 0:
            block = list(CENSUS_BLOCK)
            rng.shuffle(block)
        t_word, wide = block[index % len(block)]
        while True:
            word = [rng.choice(clifford) for _ in range(rng.randint(*WORD_LENGTH))]
            if t_word:
                word.insert(rng.randrange(len(word) + 1), rng.choice(sorted(T_LETTERS)))
            m = word_matrix(word)
            if seen.add(m):
                break
        name = f"{tag}-{seed}-{index}"
        if wide:
            big = scaled(m, rpow((1, 1, 0, 0), rng.randint(*WIDE_POWER)))
            yield CensusGate(gate_document(name, big), big, t_word, True, gate_document(name, m))
        else:
            yield CensusGate(gate_document(name, m), m, t_word, False, None)


# --- session and cli: request streams over command lines.

ONE_QUBIT_BUILTINS = ("I", "X", "Y", "Z", "H", "S", "T")
FORMATS = ("text", "json")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    gate: CensusGate | None = None  # set for a derive on a generated gate file

    @property
    def format(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def _with_formats(kinds):
    return [Request((*argv, "--format", fmt), gate) for argv, gate in kinds for fmt in FORMATS]


SESSION_REQUESTS = _with_formats(
    [(("contradiction",), None), (("epr", "--phase-shift"), None), (("epr", "--no-phase-shift"), None)]
    + [(("derive", name), None) for name in ONE_QUBIT_BUILTINS]
)


def session_stream(seed: int):
    """Shuffled rounds over the fixed request set, so every input repeats."""
    rng = random.Random(f"session:{seed}")
    while True:
        block = list(SESSION_REQUESTS)
        rng.shuffle(block)
        yield from block


def cli_stream(seed: int, gate_dir: Path):
    """Shuffled rounds of all five subcommands, each round with a new gate file."""
    rng = random.Random(f"cli:{seed}")
    gates = census_stream(seed, tag="cli")
    gate_dir.mkdir(parents=True, exist_ok=True)
    for round_no in itertools.count():
        gate = next(gates)
        path = gate_dir / f"gate-{round_no}.json"
        path.write_text(json.dumps(gate.doc), encoding="utf-8")
        block = _with_formats(
            [
                (("derive", "CNOT"), None),
                (("derive", rng.choice(ONE_QUBIT_BUILTINS[:-1])), None),
                (("derive", "T"), None),
                (("derive", str(path)), gate),
                (("verify-reps",), None),
                (("oracle-check",), None),
                (("contradiction",), None),
                (("epr", rng.choice(("--phase-shift", "--no-phase-shift"))), None),
            ]
        )
        rng.shuffle(block)
        yield from block


def warm_up_items(workload: str) -> list:
    """One request of each kind the workload sends, outside its seeded stream."""
    if workload == "census":
        return [next(census_stream(0, tag="warm"))]
    if workload == "session":
        return list(SESSION_REQUESTS)
    kinds = [("derive", "CNOT"), ("verify-reps",), ("oracle-check",), ("contradiction",), ("epr", "--phase-shift")]
    return [Request((*argv, "--format", "text")) for argv in kinds]


# --- running one op against the program.


class ProgramMissing(Exception):
    """The checkout holds no hvlab sources to benchmark."""


def load_program(root: Path) -> types.SimpleNamespace:
    """Import hvlab from `root/src` and return the modules the ops call through.

    `hvlab.derive` is the derive() function re-exported by the package, so
    the module comes from sys.modules; ops look functions up on these
    modules at call time, which is also where tracing wraps them.
    """
    src = root / "src"
    if not (src / "hvlab" / "__init__.py").is_file():
        raise ProgramMissing(f"no hvlab package under {src}")
    sys.path.insert(0, str(src))
    import hvlab
    import hvlab.cli

    if Path(hvlab.__file__).resolve().parent != (src / "hvlab").resolve():
        raise ProgramMissing(f"imported hvlab from {hvlab.__file__}, not from {src}")
    return types.SimpleNamespace(
        src=src,
        qstate=sys.modules["hvlab.qstate"],
        derive_module=sys.modules["hvlab.derive"],
        cli=sys.modules["hvlab.cli"],
    )


def census_op(hv, doc: dict) -> str:
    """gate_from_json, derivation_report, then the dump `hvlab derive --format json` prints."""
    g = hv.qstate.gate_from_json(doc)
    report = hv.derive_module.derivation_report(g)
    return json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2)


def in_process(hv, argv) -> tuple[int, str, str]:
    """`hvlab.cli.main(argv)` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hv.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def subprocess_op(argv, root: Path, env: dict) -> tuple[int, str, str]:
    """One `python -m hvlab ...` child, waited for before returning."""
    done = subprocess.run(
        [sys.executable, "-m", "hvlab", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        timeout=120,
    )
    return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")
