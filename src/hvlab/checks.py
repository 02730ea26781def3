"""Self-verification suites: triplet rules against derivations and the oracle.

Two suites, both exhaustive. ``representation_checks`` confirms that the
hand-written triplet rules are exactly what the derivation engine forces
from the gate matrices, plus their algebraic laws (involutions, symbolic
and concrete agreement).  ``oracle_checks`` exercises the state-vector
side alone: unitarity scales, eigenbasis mappings, the entangling
circuit, and the exact anti-correlation predicate.  The rule functions
are injectable so tests can confirm that a corrupted rule is caught.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .cyclotomic import OMEGA, CycInt
from .derive import enumerate_mappings, extract_constraints, merge, representation_str
from .qstate import (
    GATES,
    BasisLabel,
    apply,
    bell_psi_minus,
    classify,
    eigenvector,
    kron,
    predicts_opposite,
    proportional,
    separable,
    tensor,
)
from .triplets import SymTriplet, all_triplets, cnot, h, p_half_pi


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _count(pairs) -> tuple[int, int]:
    hits = 0
    total = 0
    for ok in pairs:
        total += 1
        hits += bool(ok)
    return hits, total


def representation_checks(h_fn=h, p_fn=p_half_pi, cnot_fn=cnot) -> list[CheckResult]:
    """Coherence of the triplet rules with algebra, derivation, and oracle."""
    results = []

    hits, total = _count(h_fn(h_fn(t)) == t for t in all_triplets())
    results.append(CheckResult("h involution", hits == total, f"{hits}/{total}"))

    def p4(t):
        for _ in range(4):
            t = p_fn(t)
        return t

    hits, total = _count(p4(t) == t for t in all_triplets())
    results.append(CheckResult("p fourth-power identity", hits == total, f"{hits}/{total}"))

    hits, total = _count(
        cnot_fn(*cnot_fn(a, b)) == (a, b)
        for a, b in itertools.product(all_triplets(), repeat=2)
    )
    results.append(CheckResult("cnot involution", hits == total, f"{hits}/{total}"))

    # One mapping table per gate feeds both its derivation and its table check.
    tables = {name: enumerate_mappings(GATES[name]) for name in ("H", "S", "CNOT")}
    for gate_name, fn, arity in (("H", h_fn, 1), ("S", p_fn, 1), ("CNOT", cnot_fn, 2)):
        table = tables[gate_name]
        rep = merge(extract_constraints(table), table.arity)
        if arity == 1:
            builtin = (fn(SymTriplet.generic(1)),)
        else:
            builtin = fn(SymTriplet.generic(1), SymTriplet.generic(2))
        ok = rep.all_total and rep.sym_triplets() == tuple(builtin)
        detail = representation_str(gate_name.lower(), rep) if rep.all_total else "not total"
        results.append(CheckResult(f"{gate_name} derivation matches builtin rule", ok, detail))

    sym1 = SymTriplet.generic(1)
    sym2 = SymTriplet.generic(2)
    coherent = 0
    cases = 0
    for t in all_triplets():
        assignment = {(1, a): t.component(a) for a in "xyz"}
        for fn in (h_fn, p_fn):
            cases += 1
            coherent += fn(sym1).evaluate(assignment) == fn(t)
    for ta, tb in itertools.product(all_triplets(), repeat=2):
        assignment = {(1, a): ta.component(a) for a in "xyz"}
        assignment.update({(2, a): tb.component(a) for a in "xyz"})
        cases += 1
        sa, sb = cnot_fn(sym1, sym2)
        coherent += (sa.evaluate(assignment), sb.evaluate(assignment)) == cnot_fn(ta, tb)
    results.append(
        CheckResult("symbolic/concrete agreement", coherent == cases, f"{coherent}/{cases}")
    )

    table = tables["CNOT"]
    preserved = len(table.preserved)
    total_products = preserved + len(table.escaped)
    results.append(
        CheckResult(
            "CNOT preserved product states",
            preserved == 20 and total_products == 36,
            f"{preserved}/{total_products}",
        )
    )

    for gate_name in ("H", "S"):
        table = tables[gate_name]
        results.append(
            CheckResult(
                f"{gate_name} preserves the eigenbasis",
                len(table.preserved) == 6 and not table.escaped,
                f"{len(table.preserved)}/6",
            )
        )

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
    entangled = apply(GATES["CNOT"], apply(kron(GATES["H"], GATES["I"]), start))
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

    single = all(classify(eigenvector(l)) == l for l in BasisLabel)
    pairs = all(
        classify(tensor(eigenvector(l1), eigenvector(l2))) == (l1, l2)
        for l1 in BasisLabel
        for l2 in BasisLabel
    )
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
