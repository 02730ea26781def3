"""Acceptance suite: one test and one printed verdict line per criterion.

Everything here is exact; there are no tolerances anywhere.  The whole
suite enumerates a few hundred cases and finishes in well under a second.
"""

import itertools
import random
from contextlib import contextmanager
from pathlib import Path

from hvlab.cli import main
from hvlab.cyclotomic import CycInt
from hvlab.derive import TotalComponent, UndeterminedComponent, derive, enumerate_mappings
from hvlab.epr import (
    ASSIGNMENTS,
    NO_SHIFT,
    PHASE_SHIFT,
    START,
    check_claim1,
    check_claim2,
    run_contradiction,
    contradiction_report,
    pair_str,
)
from hvlab.qstate import (
    GATES,
    BasisLabel,
    apply,
    bell_psi_minus,
    eigenvector,
    kron,
    predicts_opposite,
    proportional,
    tensor,
)
from hvlab.triplets import (
    SignMonomial,
    SymTriplet,
    Triplet,
    all_triplets,
    cnot,
    h,
    p_half_pi,
    run,
)

README = Path(__file__).resolve().parents[1] / "README.md"

CNOT_TABLE = {
    ("X+", "X+"): ("X+", "X+"),
    ("X+", "X-"): ("X-", "X-"),
    ("X-", "X+"): ("X-", "X+"),
    ("X-", "X-"): ("X+", "X-"),
    ("Y+", "X+"): ("Y+", "X+"),
    ("Y+", "X-"): ("Y-", "X-"),
    ("Y-", "X+"): ("Y-", "X+"),
    ("Y-", "X-"): ("Y+", "X-"),
    ("Z+", "X+"): ("Z+", "X+"),
    ("Z+", "X-"): ("Z+", "X-"),
    ("Z+", "Y+"): ("Z+", "Y+"),
    ("Z+", "Y-"): ("Z+", "Y-"),
    ("Z+", "Z+"): ("Z+", "Z+"),
    ("Z+", "Z-"): ("Z+", "Z-"),
    ("Z-", "X+"): ("Z-", "X+"),
    ("Z-", "X-"): ("Z-", "X-"),
    ("Z-", "Y+"): ("Z-", "Y-"),
    ("Z-", "Y-"): ("Z-", "Y+"),
    ("Z-", "Z+"): ("Z-", "Z-"),
    ("Z-", "Z-"): ("Z-", "Z+"),
}


@contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {label}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS - {label}")


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_beam_splitter_rule(capsys):
    with verdict(capsys, 1, "derive H yields ⟨z, -y, x⟩ with all 6 basis states preserved"):
        table = enumerate_mappings(GATES["H"])
        assert len(table.preserved) == 6 and not table.escaped
        rep = derive(GATES["H"])
        assert rep.all_total
        assert rep.sym_triplets() == (h(SymTriplet.generic(1)),)
        code, out = cli(capsys, "derive", "H")
        assert code == 0
        assert "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩" in out


def test_criterion_2_phase_rule_and_documented_variant(capsys):
    with verdict(capsys, 2, "derive S yields ⟨-y, x, z⟩, never the inverse variant"):
        rep = derive(GATES["S"])
        assert rep.sym_triplets() == (p_half_pi(SymTriplet.generic(1)),)
        code, out = cli(capsys, "derive", "S")
        assert code == 0
        assert "⟨-y, x, z⟩" in out
        assert "⟨y, -x, z⟩" not in out
        docs = README.read_text(encoding="utf-8")
        assert "⟨-y, x, z⟩" in docs and "⟨y, -x, z⟩" in docs


def test_criterion_3_cnot_rule_and_mapping_table(capsys):
    with verdict(capsys, 3, "derive CNOT yields the six-component rule and the 20-row table"):
        table = enumerate_mappings(GATES["CNOT"])
        preserved = {
            tuple(str(l) for l in i): tuple(str(l) for l in o) for i, o in table.preserved
        }
        assert preserved == CNOT_TABLE
        escaped = {tuple(str(l) for l in labels) for labels in table.escaped}
        assert len(escaped) == 16
        assert ("Y+", "Y+") in escaped
        assert {("Y+", "Y-"), ("Y-", "Y+"), ("Y-", "Y-")} <= escaped
        rep = derive(GATES["CNOT"])
        assert rep.all_total
        assert rep.sym_triplets() == cnot(SymTriplet.generic(1), SymTriplet.generic(2))


def test_criterion_4_oracle_circuit(capsys):
    with verdict(capsys, 4, "the circuit makes the singlet and predicts opposition on X, Y, Z"):
        start = tensor(eigenvector(BasisLabel.Z_MINUS), eigenvector(BasisLabel.Z_MINUS))
        out = apply(GATES["CNOT"], apply(kron(GATES["H"], GATES["I"]), start))
        singlet = bell_psi_minus()
        assert singlet.entries == tuple(CycInt.coerce(n) for n in (0, 1, -1, 0))
        assert proportional(out, singlet)
        for axis in ("x", "y", "z"):
            assert predicts_opposite(singlet, axis)


def test_criterion_5_symbolic_propagation(capsys):
    with verdict(capsys, 5, "symbolic propagation reaches the expected final pair"):
        pair = run(NO_SHIFT, START)[-1]
        assert pair_str(pair) == "(⟨-x2, -y1.x2, x1⟩, ⟨x2, x1.y2, -x1⟩)"
        x1 = SignMonomial.variable((1, "x"))
        y1 = SignMonomial.variable((1, "y"))
        x2 = SignMonomial.variable((2, "x"))
        y2 = SignMonomial.variable((2, "y"))
        assert pair[0] == SymTriplet(-x2, -(y1 * x2), x1)
        assert pair[1] == SymTriplet(x2, x1 * y2, -x1)


def test_criterion_6_claims(capsys):
    with verdict(capsys, 6, "both enumeration claims hold (16 and 8 cases)"):
        assert check_claim1()
        assert check_claim2()


def test_criterion_7_contradiction(capsys):
    with verdict(capsys, 7, "satisfying sets are disjoint 8+8 over 16, mixture corollary included"):
        result = run_contradiction()
        sets = [b.satisfying for b in result.branches]
        assert [len(s) for s in sets] == [8, 8]
        assert not sets[0] & sets[1]
        assert sets[0] | sets[1] == set(range(16))
        assert result.verdict == "contradiction"
        report = contradiction_report()
        assert report["mixture_corollary"]["holds"] is True
        code, out = cli(capsys, "contradiction")
        assert code == 0
        assert "intersection = ∅" in out


def test_criterion_8_property_suites(capsys):
    with verdict(capsys, 8, "involutions, commutation, builtin equality, scale robustness"):
        for t in all_triplets():
            assert h(h(t)) == t
            out = t
            for _ in range(4):
                out = p_half_pi(out)
            assert out == t
        for a, b in itertools.product(all_triplets(), repeat=2):
            assert cnot(*cnot(a, b)) == (a, b)

        for phase_shift, circuit in ((False, NO_SHIFT), (True, PHASE_SHIFT)):
            final = run(circuit, START)[-1]
            for i, index in enumerate(ASSIGNMENTS):
                x1, y1, x2, y2 = (1 if i >> j & 1 else -1 for j in range(4))
                a = Triplet(x1, y1, -1)
                b = Triplet(x2, y2, -1)
                if phase_shift:
                    a = p_half_pi(a)
                a = h(a)
                a, b = cnot(a, b)
                assert (final[0].evaluate(index), final[1].evaluate(index)) == (a, b)

        h_rep, s_rep, cnot_rep = (derive(GATES[n]) for n in ("H", "S", "CNOT"))
        for t in all_triplets():
            assert h_rep.evaluate(t) == h(t)
            assert s_rep.evaluate(t) == p_half_pi(t)
        for a, b in itertools.product(all_triplets(), repeat=2):
            assert cnot_rep.evaluate(a, b) == cnot(a, b)

        rng = random.Random(1729)
        scalars = []
        while len(scalars) < 8:
            u = CycInt(*(rng.randint(-2, 2) for _ in range(4)))
            if not u.is_zero():
                scalars.append(u)
        for name in ("H", "S", "CNOT"):
            baseline = derive(GATES[name])
            for u in scalars:
                assert derive(GATES[name].scaled(u)) == baseline


def test_criterion_9_negative_control(capsys):
    with verdict(capsys, 9, "derive T exits 2 with z total and x, y undetermined"):
        code, out = cli(capsys, "derive", "T")
        assert code == 2
        rep = derive(GATES["T"])
        assert isinstance(rep.component((1, "z")), TotalComponent)
        assert rep.component((1, "z")).monomial == SignMonomial.variable((1, "z"))
        assert isinstance(rep.component((1, "x")), UndeterminedComponent)
        assert isinstance(rep.component((1, "y")), UndeterminedComponent)
        assert "[undetermined]" in out
