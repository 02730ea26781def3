"""Two-branch entanglement experiment: symbolic algebra and enumeration."""

from hvlab import triplets
from hvlab.derive import derive
from hvlab.epr import (
    ASSIGNMENTS,
    NO_SHIFT,
    PHASE_SHIFT,
    START,
    VARIABLES,
    anticorrelation_condition,
    check_claim1,
    check_claim2,
    condition_str,
    contradiction_report,
    epr_report,
    pair_str,
    render_contradiction_text,
    render_epr_text,
    run_contradiction,
)
from hvlab.qstate import (
    GATES,
    BasisLabel,
    bell_psi_minus,
    eigenvector,
    proportional,
    run_ket,
    tensor,
)
from hvlab.triplets import (
    RULES,
    SignMonomial,
    SymTriplet,
    Triplet,
    cnot,
    h,
    p_half_pi,
    run,
    var_bit,
    xy_product,
)


def mono(*vars_, sign=1):
    return SignMonomial(sign, sum(1 << var_bit(v) for v in vars_))


def final_pair(phase_shift):
    return run(PHASE_SHIFT if phase_shift else NO_SHIFT, START)[-1]


def free_signs(i):
    """The signs of (x1, y1, x2, y2) at report index i: bit j for VARIABLES[j]."""
    return tuple(1 if i >> j & 1 else -1 for j in range(len(VARIABLES)))


def test_start_state():
    pair = START
    assert pair_str(pair) == "(⟨x1, y1, -1⟩, ⟨x2, y2, -1⟩)"
    every_plus = ASSIGNMENTS[15]
    assert pair[0].evaluate(every_plus) == Triplet(1, 1, -1)
    assert pair[1].evaluate(every_plus) == Triplet(1, 1, -1)
    assert pair[0].z == SignMonomial.constant(-1)
    assert pair[1].z == SignMonomial.constant(-1)
    # Built through the validating constructor, so rebuilding changes nothing.
    assert all(type(t) is SymTriplet and SymTriplet(*t) == t for t in pair)
    assert all(type(m) is SignMonomial for t in pair for m in t)


def test_report_indices_map_to_global_bits():
    # x1, y1, x2, y2 are global bits 0, 1, 3, 4; z1 and z2 stay clear (-1).
    assert [var_bit(v) for v in VARIABLES] == [0, 1, 3, 4]
    assert ASSIGNMENTS[0b0001] == 0b000001
    assert ASSIGNMENTS[0b0100] == 0b001000
    assert ASSIGNMENTS[0b1111] == 0b011011
    assert len(set(ASSIGNMENTS)) == 16


def test_branch_circuits_and_step_labels():
    assert NO_SHIFT == (("H", (1,)), ("CNOT", (1, 2)))
    assert PHASE_SHIFT == (("S", (1,)), ("H", (1,)), ("CNOT", (1, 2)))
    labels = [step["label"] for step in epr_report(False)["steps"]]
    assert labels == ["initial", "beam splitter on qubit A", "cnot, A controlling B"]
    labels = [step["label"] for step in epr_report(True)["steps"]]
    assert labels == [
        "initial",
        "phase shifter on qubit A",
        "beam splitter on qubit A",
        "cnot, A controlling B",
    ]


def test_final_pair_without_shifter():
    a, b = final_pair(False)
    assert a == SymTriplet(
        mono((2, "x"), sign=-1), mono((1, "y"), (2, "x"), sign=-1), mono((1, "x"))
    )
    assert b == SymTriplet(
        mono((2, "x")), mono((1, "x"), (2, "y")), mono((1, "x"), sign=-1)
    )
    assert pair_str((a, b)) == "(⟨-x2, -y1.x2, x1⟩, ⟨x2, x1.y2, -x1⟩)"


def test_final_pair_with_shifter():
    a, b = final_pair(True)
    assert a == SymTriplet(
        mono((2, "x"), sign=-1), mono((1, "x"), (2, "x"), sign=-1), mono((1, "y"), sign=-1)
    )
    assert b == SymTriplet(
        mono((2, "x")), mono((1, "y"), (2, "y"), sign=-1), mono((1, "y"))
    )
    assert pair_str((a, b)) == "(⟨-x2, -x1.x2, -y1⟩, ⟨x2, -y1.y2, y1⟩)"


def test_conditions():
    no_shift = final_pair(False)
    with_shift = final_pair(True)
    for pair in (no_shift, with_shift):
        assert anticorrelation_condition(pair, "x") == SignMonomial.constant(1)
        assert anticorrelation_condition(pair, "z") == SignMonomial.constant(1)
    y_no = anticorrelation_condition(no_shift, "y")
    y_yes = anticorrelation_condition(with_shift, "y")
    assert y_no == mono(*VARIABLES)
    assert y_yes == mono(*VARIABLES, sign=-1)
    assert y_yes == -y_no
    assert condition_str(y_no) == "x1.y1.x2.y2 = +1"
    assert condition_str(y_yes) == "x1.y1.x2.y2 = -1"
    assert condition_str(SignMonomial.constant(1)) == "+1 (always)"
    assert condition_str(SignMonomial.constant(-1)) == "-1 (never)"


def test_symbolic_propagation_matches_concrete_pipeline():
    for phase_shift in (False, True):
        final = final_pair(phase_shift)
        for i, index in enumerate(ASSIGNMENTS):
            x1, y1, x2, y2 = free_signs(i)
            a = Triplet(x1, y1, -1)
            b = Triplet(x2, y2, -1)
            if phase_shift:
                a = p_half_pi(a)
            a = h(a)
            a, b = cnot(a, b)
            assert (final[0].evaluate(index), final[1].evaluate(index)) == (a, b)


def test_claim1():
    assert check_claim1()
    condition = anticorrelation_condition(final_pair(False), "y")
    matches = [i for i, index in enumerate(ASSIGNMENTS) if condition.evaluate(index) == 1]
    assert len(matches) == 8
    for i in matches:
        x1, y1, x2, y2 = free_signs(i)
        assert x1 * y1 == x2 * y2


def test_claim2_including_variant_form():
    assert check_claim2()

    def variant(t):
        return type(t)(t.y, -t.x, t.z)

    from hvlab.triplets import all_triplets

    for t in all_triplets():
        assert variant(t).z == t.z
        assert xy_product(variant(t)) == -xy_product(t)


def test_contradiction():
    result = run_contradiction()
    s_no, s_yes = (b.satisfying for b in result.branches)
    assert len(s_no) == 8 and len(s_yes) == 8
    assert not s_no & s_yes
    assert s_no | s_yes == set(range(16))
    assert result.intersection == frozenset()
    assert result.verdict == "contradiction"
    assert result.anti_correlated_axes == ("x", "y", "z")


def test_contradiction_report_dict():
    report = contradiction_report()
    assert report["verdict"] == "contradiction"
    assert report["assignment_count"] == 16
    assert [b["satisfying_count"] for b in report["branches"]] == [8, 8]
    assert report["branches"][0]["satisfying_mask"] == 0x9669
    assert report["branches"][1]["satisfying_mask"] == 0x6996
    assert report["intersection_count"] == 0
    assert report["intersection_mask"] == 0
    assert report["quantum_prediction"]["anti_correlated_axes"] == ["x", "y", "z"]
    assert report["mixture_corollary"]["holds"] is True
    assert report["summary"] == (
        "S_no = 8 assignments, S_yes = 8 assignments, intersection = ∅"
        " → no-go confirmed at desk scale"
    )
    text = render_contradiction_text(report)
    assert "verdict: contradiction" in text
    assert report["summary"] in text


def test_epr_report_dict():
    report = epr_report(False)
    assert report["final_pair"] == "(⟨-x2, -y1.x2, x1⟩, ⟨x2, x1.y2, -x1⟩)"
    assert {c["axis"]: c["condition"] for c in report["conditions"]} == {
        "x": "+1 (always)",
        "y": "x1.y1.x2.y2 = +1",
        "z": "+1 (always)",
    }
    text = render_epr_text(report)
    assert "(⟨x1, y1, -1⟩, ⟨x2, y2, -1⟩)" in text
    report = epr_report(True)
    assert {c["axis"]: c["condition"] for c in report["conditions"]}["y"] == (
        "x1.y1.x2.y2 = -1"
    )
    assert len(report["steps"]) == 4


def test_both_branch_circuits_make_the_singlet():
    # The contradiction needs anti-correlation in both branches, so both
    # circuits, the phase-shift one included, must make the singlet.
    start = tensor(eigenvector(BasisLabel.Z_MINUS), eigenvector(BasisLabel.Z_MINUS))
    for circuit in (NO_SHIFT, PHASE_SHIFT):
        assert proportional(run_ket(circuit, start), bell_psi_minus())


def test_derived_rules_reach_the_same_contradiction(monkeypatch):
    # A second route to the headline result: concrete triplets through the
    # rules derived from the gate matrices, with no hand-written rule.
    # Each rule in hvlab.triplets is replaced by its derived rule, which
    # counts its calls: one per step of every run, or a hand-written rule ran.
    expected = [sum(1 << i for i in b.satisfying) for b in run_contradiction().branches]
    calls = dict.fromkeys(RULES, 0)

    def derived(name):
        rule = derive(GATES[name]).evaluate

        def counted(*ins):
            calls[name] += 1
            return rule(*ins)

        return counted

    for name, fn in RULES.items():
        monkeypatch.setattr(triplets, fn, derived(name))
    masks = []
    for circuit in (NO_SHIFT, PHASE_SHIFT):
        mask = 0
        for i in range(16):
            x1, y1, x2, y2 = free_signs(i)
            a, b = run(circuit, (Triplet(x1, y1, -1), Triplet(x2, y2, -1)))[-1]
            if all(getattr(a, axis) == -getattr(b, axis) for axis in "xyz"):
                mask |= 1 << i
        masks.append(mask)
    assert masks == [0x9669, 0x6996] == expected
    assert calls == {"H": 32, "S": 16, "CNOT": 32}
