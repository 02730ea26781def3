"""Self-verification suites: triplet rules against derivations and the oracle.

Two suites, both exhaustive. ``representation_checks`` confirms that the
hand-written triplet rules are exactly what the derivation engine forces
from the gate matrices, plus their algebraic laws (involutions, symbolic
and concrete agreement); it runs each rule through
:func:`~hvlab.triplets.run`, which looks it up in :mod:`hvlab.triplets`, so
a rule replaced there is the one checked.  ``oracle_checks``
exercises the state-vector side alone: unitarity scales, eigenbasis
mappings, the experiment's no-shift circuit, and the exact
anti-correlation predicate.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cyclotomic import OMEGA, CycInt
from .derive import enumerate_mappings, extract_constraints, merge, representation_str
from .epr import NO_SHIFT
from .qstate import (
    GATES,
    BasisLabel,
    apply,
    basis_products,
    bell_psi_minus,
    classify,
    eigenvector,
    predicts_opposite,
    proportional,
    run_ket,
    separable,
    tensor,
)
from .triplets import RULES, SymTriplet, all_triplets, assignment_index, run

# Per gate of RULES: the power of its rule that must be the identity, and
# the name of that check.
_POWERS = {
    "H": (2, "h involution"),
    "S": (4, "p fourth-power identity"),
    "CNOT": (2, "cnot involution"),
}
# Check name and expected (preserved, all) basis-product counts per gate.
_PRESERVED = (
    ("CNOT", "CNOT preserved product states", (20, 36)),
    ("H", "H preserves the eigenbasis", (6, 6)),
    ("S", "S preserves the eigenbasis", (6, 6)),
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def representation_checks() -> list[CheckResult]:
    """Coherence of the triplet rules with algebra, derivation, and oracle."""
    powers, derivations = [], []
    coherent = cases = 0
    tables = {}
    for name in RULES:
        # One mapping table per gate feeds both its derivation and its table check.
        table = tables[name] = enumerate_mappings(GATES[name])
        qubits = tuple(range(1, table.arity + 1))
        step = ((name, qubits),)
        rep = merge(extract_constraints(table), table.arity)
        symbolic = run(step, tuple(SymTriplet.generic(q) for q in qubits))[-1]
        ok = rep.all_total and rep.sym_triplets() == symbolic
        detail = representation_str(name.lower(), rep) if rep.all_total else "not total"
        derivations.append(CheckResult(f"{name} derivation matches builtin rule", ok, detail))

        # On every concrete input: the first step agrees with the symbolic
        # rule, and the rule's order-th power is the identity.
        order, label = _POWERS[name]
        inputs = list(itertools.product(all_triplets(), repeat=table.arity))
        hits = 0
        for ins in inputs:
            states = run(step * order, ins)
            hits += states[-1] == ins
            coherent += states[1] == tuple(t.evaluate(assignment_index(ins)) for t in symbolic)
        cases += len(inputs)
        powers.append(CheckResult(label, hits == len(inputs), f"{hits}/{len(inputs)}"))
    results = powers + derivations
    results.append(
        CheckResult("symbolic/concrete agreement", coherent == cases, f"{coherent}/{cases}")
    )
    for name, label, expected in _PRESERVED:
        table = tables[name]
        counts = (len(table.preserved), len(table.preserved) + len(table.escaped))
        results.append(CheckResult(label, counts == expected, f"{counts[0]}/{counts[1]}"))
    return results


def oracle_checks() -> list[CheckResult]:
    """Exact self-checks of the state-vector oracle, no triplets involved."""
    results = []

    scales_ok = all(
        (s := g.gram_scale()).b == 0 and s.c == 0 and s.d == 0 and s.a > 0
        for g in GATES.values()
    )
    results.append(
        CheckResult(
            "builtin gates unitary up to a positive integer scale",
            scales_ok,
            f"{len(GATES)}/{len(GATES)} gates",
        )
    )

    h_expected = {
        "X+": "Z+", "X-": "Z-", "Y+": "Y-", "Y-": "Y+", "Z+": "X+", "Z-": "X-",
    }
    s_expected = {
        "X+": "Y+", "X-": "Y-", "Y+": "X-", "Y-": "X+", "Z+": "Z+", "Z-": "Z-",
    }
    for gate_name, expected in (("H", h_expected), ("S", s_expected)):
        ok = all(
            classify(apply(GATES[gate_name], eigenvector(label))) == BasisLabel.parse(out)
            for label, out in ((BasisLabel.parse(k), v) for k, v in expected.items())
        )
        results.append(
            CheckResult(f"{gate_name} eigenbasis mapping", ok, "6/6 mappings")
        )

    start = tensor(eigenvector(BasisLabel.Z_MINUS), eigenvector(BasisLabel.Z_MINUS))
    entangled = run_ket(NO_SHIFT, start)
    bell = bell_psi_minus()
    results.append(
        CheckResult(
            "entangling circuit yields the singlet",
            proportional(entangled, bell),
            f"(H⊗I, cnot) on Z-,Z- ∝ {bell}",
        )
    )
    results.append(
        CheckResult("singlet is entangled", not separable(bell), "rank-1 test fails")
    )

    axes = [a for a in ("x", "y", "z") if predicts_opposite(bell, a)]
    results.append(
        CheckResult(
            "singlet anti-correlated on every axis",
            axes == ["x", "y", "z"],
            f"{len(axes)}/3 axes",
        )
    )

    single = all(classify(v) == labels[0] for labels, v in basis_products(1))
    pairs = all(classify(v) == labels for labels, v in basis_products(2))
    results.append(
        CheckResult("classification round-trip", single and pairs, "6 + 36 cases")
    )

    stable = all(
        classify(eigenvector(l).scaled(s)) == l
        for l in BasisLabel
        for s in (OMEGA, CycInt(1, 1))
    )
    results.append(
        CheckResult("classification ignores scalar factors", stable, "12 cases")
    )

    escape = apply(
        GATES["CNOT"], tensor(eigenvector(BasisLabel.Y_PLUS), eigenvector(BasisLabel.Y_PLUS))
    )
    results.append(
        CheckResult(
            "cnot drives Y+,Y+ out of the product basis",
            classify(escape) is None and not separable(escape),
            f"image {escape} is entangled",
        )
    )

    return results


def checks_report(command: str, title: str, results: list[CheckResult]) -> dict:
    """A check suite as a JSON-ready dictionary."""
    return {
        "command": command,
        "title": title,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }


def render_checks_text(report: dict) -> str:
    """Human-readable form of a check-suite dictionary."""
    lines = [report["title"]]
    for c in report["checks"]:
        status = "ok" if c["passed"] else "FAIL"
        lines.append(f"  [{status}] {c['name']}: {c['detail']}")
    passed = sum(1 for c in report["checks"] if c["passed"])
    word = "all checks passed" if report["all_passed"] else "CHECKS FAILED"
    lines.append(f"result: {word} ({passed}/{len(report['checks'])})")
    return "\n".join(lines)
