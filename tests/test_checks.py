"""Both self-check suites pass clean and catch an injected fault."""

from hvlab import triplets
from hvlab.checks import (
    checks_report,
    oracle_checks,
    render_checks_text,
    representation_checks,
)
from hvlab.triplets import SymTriplet, cnot, h


def by_name(results):
    return {r.name: r for r in results}


def test_representation_checks_pass():
    results = representation_checks()
    assert all(r.passed for r in results)
    named = by_name(results)
    assert named["CNOT preserved product states"].detail == "20/36"
    assert named["h involution"].detail == "8/8"
    assert named["cnot involution"].detail == "64/64"


def test_oracle_checks_pass():
    results = oracle_checks()
    assert all(r.passed for r in results)
    named = by_name(results)
    assert named["singlet anti-correlated on every axis"].detail == "3/3 axes"


# Each fault below replaces a rule in hvlab.triplets, where the circuit
# runner looks rules up, so the suite must check the replaced rule.


def test_fault_injection_is_caught(monkeypatch):
    def corrupted(control, target):
        a, b = cnot(control, target)
        return (a, type(b)(b.x, -b.y, b.z))

    monkeypatch.setattr(triplets, "cnot", corrupted)
    results = representation_checks()
    named = by_name(results)
    assert not named["CNOT derivation matches builtin rule"].passed
    assert [r.name for r in results if not r.passed] == ["CNOT derivation matches builtin rule"]


def test_a_rule_that_treats_symbols_differently_fails_agreement(monkeypatch):
    def two_faced(t):
        out = h(t)
        return out if isinstance(out, SymTriplet) else type(out)(out.x, out.y, -out.z)

    monkeypatch.setattr(triplets, "h", two_faced)
    failed = [r.name for r in representation_checks() if not r.passed]
    assert "symbolic/concrete agreement" in failed


def test_checks_report_and_rendering(monkeypatch):
    report = checks_report("verify-reps", "triplet-rule coherence checks", representation_checks())
    assert report["all_passed"] is True
    text = render_checks_text(report)
    assert "CNOT preserved product states: 20/36" in text
    assert "[ok]" in text and "[FAIL]" not in text

    def broken(control, target):
        return cnot(target, control)

    monkeypatch.setattr(triplets, "cnot", broken)
    report = checks_report("verify-reps", "triplet-rule coherence checks", representation_checks())
    assert report["all_passed"] is False
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["cnot involution", "CNOT derivation matches builtin rule"]
    assert "[FAIL]" in render_checks_text(report)
