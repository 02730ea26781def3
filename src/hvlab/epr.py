"""Entangled-pair experiment on symbolic triplets, run both ways.

Two qubits start as ⟨x1, y1, -1⟩ and ⟨x2, y2, -1⟩.  Qubit A optionally
passes a quarter-turn phase shifter, then a beam splitter, then controls
a cnot on qubit B.  Each branch is one circuit value, :data:`NO_SHIFT` or
:data:`PHASE_SHIFT`; run on state vectors, both produce the singlet, so
equal-axis measurements must disagree.  Propagating the triplet rules
symbolically and demanding that disagreement yields one sign condition
per axis.  The X and Z conditions hold identically, but the Y condition
flips sign with the phase-shifter choice, so the two branches' satisfying
assignment sets are disjoint halves of the 16 possibilities: no
pre-assigned signs, nor any distribution over them, can serve both.
"""

from __future__ import annotations

from typing import NamedTuple

from .qstate import bell_psi_minus, predicts_opposite
from .triplets import (
    AXES,
    SignMonomial,
    SymTriplet,
    Var,
    all_triplets,
    p_half_pi,
    run,
    var_bit,
    var_name,
    xy_product,
)

# The free hidden variables once both z-components are pinned to -1.
VARIABLES: tuple[Var, ...] = ((1, "x"), (1, "y"), (2, "x"), (2, "y"))

# Reports number the 16 assignments by a 4-bit index, bit j for
# VARIABLES[j]; entry i is the global assignment index (bits 0, 1, 3, 4).
ASSIGNMENTS = tuple(
    sum(1 << var_bit(v) for j, v in enumerate(VARIABLES) if i >> j & 1) for i in range(16)
)

Pair = tuple[SymTriplet, SymTriplet]

# Both qubits in the minus z-eigenstate: free x and y, z fixed at -1.
START: Pair = tuple(
    SymTriplet(*(SignMonomial.variable((q, axis)) for axis in "xy"), SignMonomial.constant(-1))
    for q in (1, 2)
)

# The two branches, as circuits: a beam splitter on qubit A, then a cnot
# from A to B, with or without a quarter-turn phase shifter on A first.
NO_SHIFT = (("H", (1,)), ("CNOT", (1, 2)))
PHASE_SHIFT = (("S", (1,)),) + NO_SHIFT

# Each step in the experiment's words, qubits 1 and 2 being A and B.
_LABELS = {
    ("S", (1,)): "phase shifter on qubit A",
    ("H", (1,)): "beam splitter on qubit A",
    ("CNOT", (1, 2)): "cnot, A controlling B",
}


def anticorrelation_condition(pair: Pair, axis: str) -> SignMonomial:
    """The monomial that must equal +1 for opposite outcomes on this axis.

    Opposite outcomes mean the two axis-components multiply to -1, so the
    condition is the negated product, canonicalized by monomial algebra.
    """
    return -(getattr(pair[0], axis) * getattr(pair[1], axis))


def condition_str(m: SignMonomial) -> str:
    """Render a must-equal-(+1) monomial as an equation on its variables."""
    if not m.mask:
        return "+1 (always)" if m.sign > 0 else "-1 (never)"
    product = SignMonomial(1, m.mask).render()
    return f"{product} = {'+1' if m.sign > 0 else '-1'}"


def pair_str(pair: Pair) -> str:
    return f"({pair[0]}, {pair[1]})"


def check_claim1() -> bool:
    """Without the shifter, anticorrelation forces equal xy-products.

    Checked exhaustively: every one of the 16 assignments satisfying the
    no-shifter Y condition gives the two initial triplets equal xy-products,
    and the satisfying set is exactly half the space.
    """
    condition = anticorrelation_condition(run(NO_SHIFT, START)[-1], "y")
    a0, b0 = START
    hits = [index for index in ASSIGNMENTS if condition.evaluate(index) == 1]
    return len(hits) == 8 and all(
        xy_product(a0.evaluate(index)) == xy_product(b0.evaluate(index)) for index in hits
    )


def check_claim2() -> bool:
    """The phase shifter flips the xy-product and keeps z, on all 8 triplets."""
    for t in all_triplets():
        out = p_half_pi(t)
        if out.z != t.z or xy_product(out) != -xy_product(t):
            return False
    return True


class BranchResult(NamedTuple):
    """One branch: final pair, per-axis conditions, satisfying assignments."""

    phase_shift: bool
    final_pair: Pair
    conditions: tuple[tuple[str, SignMonomial], ...]
    satisfying: frozenset[int]

    @property
    def name(self) -> str:
        return "phase-shift" if self.phase_shift else "no-phase-shift"


class ContradictionReport(NamedTuple):
    """Both branches plus their joint satisfiability over all 16 assignments."""

    branches: tuple[BranchResult, BranchResult]
    intersection: frozenset[int]
    anti_correlated_axes: tuple[str, ...]

    @property
    def verdict(self) -> str:
        nonempty = all(b.satisfying for b in self.branches)
        if nonempty and not self.intersection:
            return "contradiction"
        return "jointly-satisfiable"


def _run_one_branch(phase_shift: bool) -> BranchResult:
    pair = run(PHASE_SHIFT if phase_shift else NO_SHIFT, START)[-1]
    conditions = tuple((axis, anticorrelation_condition(pair, axis)) for axis in AXES)
    satisfied = frozenset(
        i
        for i, index in enumerate(ASSIGNMENTS)
        if all(m.evaluate(index) == 1 for _, m in conditions)
    )
    return BranchResult(phase_shift, pair, conditions, satisfied)


def run_contradiction() -> ContradictionReport:
    """Evaluate both branches over the same 16 assignments and compare."""
    no_shift = _run_one_branch(False)
    with_shift = _run_one_branch(True)
    axes = tuple(a for a in AXES if predicts_opposite(bell_psi_minus(), a))
    return ContradictionReport(
        (no_shift, with_shift),
        no_shift.satisfying & with_shift.satisfying,
        axes,
    )


def _mask(indices: frozenset[int]) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _branch_dict(b: BranchResult) -> dict:
    return {
        "branch": b.name,
        "phase_shift": b.phase_shift,
        "final_pair": pair_str(b.final_pair),
        "conditions": [
            {"axis": axis, "condition": condition_str(m)} for axis, m in b.conditions
        ],
        "satisfying_count": len(b.satisfying),
        "satisfying_indices": sorted(b.satisfying),
        "satisfying_mask": _mask(b.satisfying),
    }


def contradiction_report() -> dict:
    """The full two-branch comparison as a JSON-ready dictionary."""
    result = run_contradiction()
    names = ("S_no", "S_yes")
    sizes = tuple(len(b.satisfying) for b in result.branches)
    summary = (
        f"{names[0]} = {sizes[0]} assignments, {names[1]} = {sizes[1]} assignments, "
        f"intersection = {'∅' if not result.intersection else len(result.intersection)}"
        f" → {'no-go confirmed at desk scale' if result.verdict == 'contradiction' else 'no contradiction found'}"
    )
    return {
        "command": "contradiction",
        "variables": [var_name(v) for v in VARIABLES],
        "fixed": "z1 = z2 = -1",
        "assignment_count": 1 << len(VARIABLES),
        "branches": [_branch_dict(b) for b in result.branches],
        "intersection_count": len(result.intersection),
        "intersection_indices": sorted(result.intersection),
        "intersection_mask": _mask(result.intersection),
        "quantum_prediction": {
            "state": str(bell_psi_minus()),
            "anti_correlated_axes": list(result.anti_correlated_axes),
        },
        "mixture_corollary": {
            "holds": not result.intersection,
            "statement": (
                "a distribution over assignments reproducing both branches with "
                "certainty needs support inside both satisfying sets, so an empty "
                "intersection rules out stochastic hidden variables too"
            ),
        },
        "verdict": result.verdict,
        "summary": summary,
    }


def render_contradiction_text(report: dict) -> str:
    """Human-readable form of a contradiction report dictionary."""
    lines = [
        "hidden-variable contradiction by exhaustive enumeration",
        f"variables: {', '.join(report['variables'])} ({report['fixed']} fixed), "
        f"{report['assignment_count']} assignments",
        "",
    ]
    for b in report["branches"]:
        lines.append(f"branch {b['branch']}:")
        lines.append(f"  final pair: {b['final_pair']}")
        for c in b["conditions"]:
            lines.append(f"  {c['axis']} condition: {c['condition']}")
        lines.append(
            f"  satisfying assignments: {b['satisfying_count']} of "
            f"{report['assignment_count']} (mask 0x{b['satisfying_mask']:04x})"
        )
        lines.append("")
    lines.append(
        f"intersection: {report['intersection_count']} assignments "
        f"(mask 0x{report['intersection_mask']:04x})"
    )
    qp = report["quantum_prediction"]
    lines.append(
        f"quantum prediction: state {qp['state']} anti-correlated on axes "
        f"{', '.join(qp['anti_correlated_axes'])}"
    )
    mc = report["mixture_corollary"]
    lines.append(f"mixture corollary {'holds' if mc['holds'] else 'fails'}: {mc['statement']}")
    lines.append(f"verdict: {report['verdict']}")
    lines.append(report["summary"])
    return "\n".join(lines)


def epr_report(phase_shift: bool) -> dict:
    """One branch's step-by-step propagation as a JSON-ready dictionary."""
    circuit = PHASE_SHIFT if phase_shift else NO_SHIFT
    states = run(circuit, START)
    labels = ["initial"] + [_LABELS[step] for step in circuit]
    final_pair = states[-1]
    return {
        "command": "epr",
        "branch": "phase-shift" if phase_shift else "no-phase-shift",
        "phase_shift": phase_shift,
        "steps": [
            {"label": label, "pair": pair_str(pair)} for label, pair in zip(labels, states)
        ],
        "final_pair": pair_str(final_pair),
        "conditions": [
            {
                "axis": axis,
                "condition": condition_str(anticorrelation_condition(final_pair, axis)),
            }
            for axis in AXES
        ],
    }


def render_epr_text(report: dict) -> str:
    """Human-readable form of an epr report dictionary."""
    lines = [f"entangled-pair circuit, branch {report['branch']}"]
    for step in report["steps"]:
        lines.append(f"  {step['label']}: {step['pair']}")
    lines.append(f"final pair: {report['final_pair']}")
    lines.append("anticorrelation conditions:")
    for c in report["conditions"]:
        lines.append(f"  {c['axis']}: {c['condition']}")
    return "\n".join(lines)
