"""Deterministic cost gates: ring multiplications per warm call.

Counts do not depend on the hardware, so they can bound the work a
derivation or the contradiction experiment does without a timer.
"""

import pytest

from hvlab.cyclotomic import CycInt
from hvlab.derive import derive
from hvlab.epr import contradiction_report
from hvlab.qstate import GATES


@pytest.fixture
def multiplies(monkeypatch):
    """Count CycInt multiplications, including the __rmul__ alias, while the test runs."""
    calls = [0]
    original = CycInt.__dict__["__mul__"]

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    for name, value in list(vars(CycInt).items()):
        if value is original:
            monkeypatch.setattr(CycInt, name, counted)
    return calls


def warm_count(calls, fn):
    fn()
    calls[0] = 0
    fn()
    return calls[0]


def test_multiplies_per_two_qubit_derivation(multiplies):
    assert warm_count(multiplies, lambda: derive(GATES["CNOT"])) <= 4_400


def test_multiplies_per_contradiction_report(multiplies):
    assert warm_count(multiplies, contradiction_report) <= 100
