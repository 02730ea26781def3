"""Deterministic cost gates: ring multiplications per warm call.

Counts do not depend on the hardware, so they can bound the work a
derivation or the contradiction experiment does without a timer.
"""

import pytest

from hvlab.checks import representation_checks
from hvlab.cyclotomic import OMEGA, ONE, CycInt
from hvlab.derive import derive
from hvlab.epr import contradiction_report
from hvlab.qstate import GATES


def count_calls(monkeypatch, method):
    """Count calls of a CycInt method, under each of its aliases, while the test runs."""
    calls = [0]
    original = CycInt.__dict__[method]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    for name, value in list(vars(CycInt).items()):
        if value is original:
            monkeypatch.setattr(CycInt, name, counted)
    return calls


@pytest.fixture
def multiplies(monkeypatch):
    """Count CycInt multiplications, including the __rmul__ alias."""
    return count_calls(monkeypatch, "__mul__")


@pytest.fixture
def builds(monkeypatch):
    """Count CycInt.__init__ calls, i.e. validated ring elements."""
    return count_calls(monkeypatch, "__init__")


def warm_count(calls, fn):
    fn()
    calls[0] = 0
    fn()
    return calls[0]


def test_multiplies_per_two_qubit_derivation(multiplies):
    assert warm_count(multiplies, lambda: derive(GATES["CNOT"])) <= 4_400


def test_multiplies_per_contradiction_report(multiplies):
    assert warm_count(multiplies, contradiction_report) <= 100


def test_multiplies_per_representation_check_suite(multiplies):
    # The H, S and CNOT mapping tables need 4 330 between them; enumerating
    # each table twice doubles that.
    assert warm_count(multiplies, representation_checks) <= 4_400


def test_each_ring_product_is_built_and_validated_once(builds, multiplies):
    factors = [CycInt(k, -k, 2**70 * k, 1) for k in range(1, 9)] + [OMEGA]
    builds[0] = 0
    product = ONE
    for factor in factors:
        product = product * factor
    assert multiplies[0] == builds[0] == len(factors)
