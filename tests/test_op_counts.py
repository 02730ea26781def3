"""Deterministic cost gates: ring multiplications and other calls per warm call.

Counts do not depend on the hardware, so they can bound the work a
derivation or the contradiction experiment does without a timer.
"""

import pytest

from hvlab import qstate, triplets
from hvlab.checks import oracle_checks, representation_checks
from hvlab.cyclotomic import OMEGA, ONE, CycInt
from hvlab.derive import derive
from hvlab.epr import contradiction_report
from hvlab.qstate import GATES
from hvlab.triplets import SignMonomial


def count_calls(monkeypatch, method, cls=CycInt):
    """Count calls of a method of `cls`, or a function of a module, under each alias."""
    calls = [0]
    original = cls.__dict__[method]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    for name, value in list(vars(cls).items()):
        if value is original:
            monkeypatch.setattr(cls, name, counted)
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
    # The rank-1 test rejects CNOT's 16 entangled images at two multiplies
    # each, so only its 20 product images are scanned (4 198 when every
    # image was scanned).
    assert warm_count(multiplies, lambda: derive(GATES["CNOT"])) <= 2_600


def test_entangled_images_skip_the_product_scan(monkeypatch):
    # A product image costs one call per candidate up to its match, 450 for
    # the 20 of them; the 16 entangled images took 36 calls each (1 026).
    scans = count_calls(monkeypatch, "proportional", qstate)
    assert warm_count(scans, lambda: derive(GATES["CNOT"])) <= 450


@pytest.mark.parametrize("name", ("I", "X", "Y", "Z", "H", "S", "T"))
def test_one_qubit_derivation_matches_in_closed_form(monkeypatch, multiplies, name):
    # 24 multiplies apply the gate to the six eigenvectors; classify adds one
    # for each image it must test against Y+-: two for a Clifford, four for T.
    # Six proportional scans per image took 66 (94 for T).
    scans = count_calls(monkeypatch, "proportional", qstate)
    assert warm_count(multiplies, lambda: derive(GATES[name])) <= (28 if name == "T" else 26)
    assert warm_count(scans, lambda: derive(GATES[name])) == 0


def test_merge_evaluates_no_sign_monomial(monkeypatch):
    # merge fits monomials on assignment indices, by parity, so it evaluates
    # none on an assignment dictionary (384 calls per CNOT derivation if it did).
    evaluations = count_calls(monkeypatch, "evaluate", SignMonomial)
    assert warm_count(evaluations, lambda: derive(GATES["CNOT"])) == 0


def test_multiplies_per_contradiction_report(multiplies):
    assert warm_count(multiplies, contradiction_report) <= 100


def test_multiplies_per_representation_check_suite(multiplies):
    # The H, S and CNOT mapping tables, each built once; the CNOT table is
    # most of it, as in a two-qubit derivation (4 250 before the rank-1 test).
    assert warm_count(multiplies, representation_checks) <= 2_600


def test_multiplies_per_oracle_check_suite(multiplies):
    # The suite classifies one entangled image: 3 230 when it was scanned.
    assert warm_count(multiplies, oracle_checks) <= 3_210


@pytest.fixture
def monomial_products(monkeypatch):
    """Count SignMonomial multiplications."""
    return count_calls(monkeypatch, "__mul__", SignMonomial)


def test_monomial_products_per_contradiction_report(monomial_products):
    assert warm_count(monomial_products, contradiction_report) <= 14


def test_monomial_products_per_representation_check_suite(monomial_products):
    assert warm_count(monomial_products, representation_checks) <= 260


def test_circuits_look_their_rules_up_in_the_triplets_module(monkeypatch):
    # A wrapper set on hvlab.triplets, as a tracer sets one, must see the calls.
    calls = [0]
    original = triplets.h

    def counted(t):
        calls[0] += 1
        return original(t)

    monkeypatch.setattr(triplets, "h", counted)
    contradiction_report()
    assert calls[0] > 0


def test_each_ring_product_is_built_and_validated_once(builds, multiplies):
    factors = [CycInt(k, -k, 2**70 * k, 1) for k in range(1, 9)] + [OMEGA]
    builds[0] = 0
    product = ONE
    for factor in factors:
        product = product * factor
    assert multiplies[0] == builds[0] == len(factors)
