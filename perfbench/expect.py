"""Output checks: fixed answers from the paper, and exact re-checks of census rows.

Every check raises :class:`Mismatch` with a one-line reason.  Preserved
mapping rows are re-verified with the benchmark's own ring arithmetic
(`workloads.rmul`), so a wrong classification cannot pass by agreeing
with itself.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import PRODUCT_LABELS, matvec, product_state, proportional


class Mismatch(Exception):
    """An output differs from the expected answer."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


ONE_QUBIT_RULES = {
    "I": "⟨x, y, z⟩",
    "X": "⟨x, -y, -z⟩",
    "Y": "⟨-x, y, -z⟩",
    "Z": "⟨-x, -y, z⟩",
    "H": "⟨z, -y, x⟩",
    "S": "⟨-y, x, z⟩",
}
CNOT_RULE = "cnot: (⟨x1,y1,z1⟩, ⟨x2,y2,z2⟩) ↦ (⟨x1.x2, y1.x2, z1⟩, ⟨x2, z1.y2, z1.z2⟩)"
EPR_FINAL_PAIRS = {
    "--phase-shift": "(⟨-x2, -x1.x2, -y1⟩, ⟨x2, -y1.y2, y1⟩)",
    "--no-phase-shift": "(⟨-x2, -y1.x2, x1⟩, ⟨x2, x1.y2, -x1⟩)",
}
EPR_Y_CONDITIONS = {"--phase-shift": "x1.y1.x2.y2 = -1", "--no-phase-shift": "x1.y1.x2.y2 = +1"}

# sha256 over the outputs of the first DIGEST_OPS measured ops at DEFAULT_SEED.
DEFAULT_SEED = 0
DIGEST_OPS = 16
DIGESTS = {
    "census": "8bcf16f40d99643c49af49baeb3552ad5961d6c5fe03d7f1659cc6a5429a720f",
    "session": "c4f2ae4cda9f692372de2287a440887dbbac8e969a3ef891cf0c9d1f6f0cdc03",
    "cli": "ef9b29c4933bd0b355d1e4fafc295e797bb4f2dc0d88c872551f793383d66696",
}


def digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


_COUNTS = re.compile(r"^basis products: (\d+), preserved: (\d+), escaped: (\d+)$", re.M)


def report_summary(report: dict) -> dict:
    return {
        "products": report["basis_products"],
        "preserved": [(row["in"], row["out"]) for row in report["preserved"]],
        "escaped": list(report["escaped"]),
        "all_total": report["all_total"],
        "representation": report.get("representation"),
        "kinds": [c["kind"] for c in report["components"]],
    }


def derive_summary(fmt: str, stdout: str) -> dict:
    """The facts a derive report states, read from either output format."""
    if fmt == "json":
        return report_summary(json.loads(stdout))
    match = _COUNTS.search(stdout)
    expect(match is not None, "derive text has no counts line")
    products = int(match.group(1))
    lines = stdout.splitlines()
    preserved, escaped, section = [], [], None
    for line in lines:
        if line in ("mapping table (preserved):", "escapes (image leaves the basis):"):
            section = line
        elif not line.startswith("  "):
            section = None
        elif section == "mapping table (preserved):":
            left, right = line.strip().split(" ↦ ")
            preserved.append((left, right))
        elif section is not None:
            escaped.append(line.strip())
    expect(len(preserved) == int(match.group(2)), "derive text preserved count disagrees with rows")
    expect(len(escaped) == int(match.group(3)), "derive text escaped count disagrees with rows")
    all_total = "status: faithful functional representation found" in lines
    kinds = [re.search(r"\[(\S+)\]$", line).group(1) for line in lines if line.startswith("  ") and line.endswith("]")]
    return {
        "products": products,
        "preserved": preserved,
        "escaped": escaped,
        "all_total": all_total,
        "representation": lines[lines.index("status: faithful functional representation found") - 1]
        if all_total
        else None,
        "kinds": kinds,
    }


def check_rows(summary: dict, matrix) -> None:
    """Every preserved row re-verified exactly; rows and escapes partition the 36 products."""
    expect(summary["products"] == 36, f"{summary['products']} basis products, not 36")
    inputs = [i for i, _ in summary["preserved"]] + summary["escaped"]
    expect(sorted(inputs) == sorted(PRODUCT_LABELS), "preserved and escaped rows do not partition the basis")
    for labels_in, labels_out in summary["preserved"]:
        image = matvec(matrix, product_state(labels_in))
        expect(proportional(product_state(labels_out), image), f"row {labels_in} ↦ {labels_out} is wrong")


def check_census(gate, report: dict, base_report: dict | None) -> None:
    """Census answer: exact rows, Clifford words total, wide gates scale-invariant."""
    summary = report_summary(report)
    check_rows(summary, gate.matrix)
    expect(report["gate"] == gate.doc["name"], "report names another gate")
    expect(len(report["constraints"]) == 2 * len(summary["preserved"]), "not two constraints per preserved row")
    if not gate.t_word:
        expect(len(summary["preserved"]) in (20, 36), "Clifford word keeps neither 20 nor 36 products")
        expect(summary["all_total"], "Clifford word has no total rule")
    if base_report is not None:
        for key in ("preserved", "escaped", "constraints", "components", "all_total"):
            expect(report[key] == base_report[key], f"wide gate changes {key!r} of its unscaled form")


def check_request(request, code: int, stdout: str, stderr: str) -> dict | None:
    """Fixed answers for one command line; raises Mismatch on any difference.

    Returns the derive summary for a derive request, else None.
    """
    argv, fmt = request.argv, request.format
    expect(stderr == "", f"stderr: {stderr.strip()[-200:]!r}")
    command = argv[0]
    if command == "derive":
        summary = derive_summary(fmt, stdout)
        _check_derive(request, code, summary)
        return summary
    if command in ("verify-reps", "oracle-check"):
        expect(code == 0, f"{command} exit {code}")
        if fmt == "json":
            report = json.loads(stdout)
            expect(report["all_passed"] and all(c["passed"] for c in report["checks"]), f"{command} check failed")
        else:
            expect("[FAIL]" not in stdout and "result: all checks passed" in stdout, f"{command} check failed")
    elif command == "contradiction":
        expect(code == 0, f"contradiction exit {code}")
        if fmt == "json":
            report = json.loads(stdout)
            sets = [set(b["satisfying_indices"]) for b in report["branches"]]
            expect([len(s) for s in sets] == [8, 8] and not sets[0] & sets[1], "branches are not 8 + 8 disjoint")
            expect(report["intersection_count"] == 0, "intersection is not empty")
            expect(report["verdict"] == "contradiction", "verdict is not contradiction")
        else:
            expect(stdout.count("satisfying assignments: 8 of 16") == 2, "branches are not 8 + 8")
            expect("intersection: 0 assignments" in stdout, "intersection is not empty")
            expect("verdict: contradiction" in stdout, "verdict is not contradiction")
    elif command == "epr":
        expect(code == 0, f"epr exit {code}")
        branch = argv[1]
        if fmt == "json":
            report = json.loads(stdout)
            expect(report["final_pair"] == EPR_FINAL_PAIRS[branch], "epr final pair differs")
            y = [c["condition"] for c in report["conditions"] if c["axis"] == "y"]
            expect(y == [EPR_Y_CONDITIONS[branch]], "epr y condition differs")
        else:
            expect(f"final pair: {EPR_FINAL_PAIRS[branch]}" in stdout, "epr final pair differs")
            expect(f"  y: {EPR_Y_CONDITIONS[branch]}" in stdout, "epr y condition differs")
    else:
        raise Mismatch(f"no expected answer for {command!r}")
    return None


def _check_derive(request, code: int, summary: dict) -> None:
    target = request.argv[1]
    if request.gate is not None:
        expect(code == (0 if summary["all_total"] else 2), f"derive exit {code}")
        check_rows(summary, request.gate.matrix)
    elif target == "CNOT":
        expect(code == 0, f"derive CNOT exit {code}")
        expect(len(summary["preserved"]) == 20 and summary["products"] == 36, "CNOT does not keep 20/36")
        expect(summary["representation"] == CNOT_RULE, "CNOT rule differs")
    elif target == "T":
        expect(code == 2, f"derive T exit {code}")
        expect(not summary["all_total"], "T has a total rule")
        expect(summary["kinds"] == ["undetermined", "undetermined", "total"], "T components differ")
    else:
        expect(code == 0, f"derive {target} exit {code}")
        rule = f"{target.lower()}: ⟨x,y,z⟩ ↦ {ONE_QUBIT_RULES[target]}"
        expect(summary["representation"] == rule, f"{target} rule differs")
        expect(len(summary["preserved"]) == 6, f"{target} does not keep all 6 eigenstates")
