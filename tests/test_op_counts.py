"""Deterministic cost gates: ring multiplications and other calls per warm call.

Counts do not depend on the hardware, so they can bound the work a
derivation or the contradiction experiment does without a timer.
``CycInt.__mul__`` does not see the products fused inside
``cyclotomic.dot`` (the matrix-vector and inner products), so the builds
of validated ring elements, one per ``CycInt.__init__``, carry the cost
signal of those kernels.
"""

import pytest

from hvlab import checks, qstate, triplets
from hvlab.checks import oracle_checks, representation_checks
from hvlab.cyclotomic import OMEGA, ONE, CycInt, dot
from hvlab.derive import derivation_report, derive
from hvlab.epr import contradiction_report, epr_report
from hvlab.qstate import GATES, GateMatrix, Ket
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
    # image was scanned).  The 36 images themselves are fused dots (2 534
    # multiplies when apply multiplied through the operators).
    assert warm_count(multiplies, lambda: derive(GATES["CNOT"])) <= 1_960


def test_builds_per_two_qubit_derivation(builds):
    # apply builds one element per entry of the 36 images, 144 in all; the
    # rest are classify's (3 110 builds when every partial product and sum
    # of apply was a ring element).
    assert warm_count(builds, lambda: derive(GATES["CNOT"])) <= 2_110


def test_entangled_images_skip_the_product_scan(monkeypatch):
    # A product image costs one call per candidate up to its match, 450 for
    # the 20 of them; the 16 entangled images took 36 calls each (1 026).
    scans = count_calls(monkeypatch, "proportional", qstate)
    assert warm_count(scans, lambda: derive(GATES["CNOT"])) <= 450


@pytest.mark.parametrize("name", ("I", "X", "Y", "Z", "H", "S", "T"))
def test_one_qubit_derivation_matches_in_closed_form(monkeypatch, multiplies, builds, name):
    # classify multiplies once for each image it must test against Y+-: two
    # for a Clifford, four for T.  Applying the gate to the six eigenvectors
    # took 24 more before apply fused its products (26 and 28), and six
    # proportional scans per image took 66 and 94.  Each image entry is one
    # build, 12 in all; the others are the -a, i*a and -i*a that classify
    # tests (54 and 60 builds before the fused apply).
    scans = count_calls(monkeypatch, "proportional", qstate)
    assert warm_count(multiplies, lambda: derive(GATES[name])) <= (4 if name == "T" else 2)
    assert warm_count(builds, lambda: derive(GATES[name])) <= (24 if name == "T" else 18)
    assert warm_count(scans, lambda: derive(GATES[name])) == 0


def test_merge_evaluates_no_sign_monomial(monkeypatch):
    # merge fits monomials on assignment indices, by parity, so it evaluates
    # none on an assignment dictionary (384 calls per CNOT derivation if it did).
    evaluations = count_calls(monkeypatch, "evaluate", SignMonomial)
    assert warm_count(evaluations, lambda: derive(GATES["CNOT"])) == 0


@pytest.mark.parametrize("name", ("CNOT", "H", "T"))
def test_derivation_takes_no_parity(monkeypatch, name):
    # merge fits a monomial on sets of indices, by half swaps and XORs, so it
    # computes no parity (CNOT 384, H 24, T 8 when it checked the fit one
    # index at a time).  Counted in the globals derive runs with, and in
    # hvlab.triplets for the monomials' own evaluate.
    calls = [0]
    original = triplets.parity

    def counted(bits):
        calls[0] += 1
        return original(bits)

    monkeypatch.setitem(derive.__globals__, "parity", counted)
    monkeypatch.setattr(triplets, "parity", counted)
    assert warm_count(calls, lambda: derive(GATES[name])) == 0


def test_multiplies_per_contradiction_report(multiplies):
    # predicts_opposite takes one apply and two inner products per axis, all
    # fused (72 multiplies through the operators).
    assert warm_count(multiplies, contradiction_report) == 0


def test_builds_per_contradiction_report(monkeypatch, builds):
    # The singlet is built once per process, not on each of its four calls:
    # 187 builds with the operator loops, 37 with fused products and a new
    # singlet per call.
    kets = count_calls(monkeypatch, "__init__", Ket)
    assert warm_count(builds, contradiction_report) <= 21
    assert warm_count(kets, contradiction_report) <= 3


def test_contradiction_report_reads_its_predictions_once_per_process(monkeypatch):
    # The singlet's three predictions are computed once per (ket, axis):
    # 3 applies per call when each recomputed <v|s(x)s|v>.
    applies = count_calls(monkeypatch, "apply", qstate)
    assert warm_count(applies, contradiction_report) == 0


def test_derivation_report_hashes_a_matrix_once_per_process(monkeypatch):
    # The digest is computed once per matrix: one gate_to_json per call when
    # each report re-serialised the matrix.
    documents = count_calls(monkeypatch, "gate_to_json", qstate)
    assert warm_count(documents, lambda: derivation_report(GATES["H"])) == 0


def test_epr_report_renders_each_monomial_once_per_process(monkeypatch):
    # Rendering is cached per (sign, mask, with_index): 32 variable names per
    # call when each monomial spelled out its names again.
    names = count_calls(monkeypatch, "var_name", triplets)
    assert warm_count(names, lambda: epr_report(True)) == 0


def test_contradiction_report_builds_no_gate(monkeypatch):
    # run_ket's H(x)I and predicts_opposite's s(x)s come from one cache of
    # products of built-in gates, each built once per process.
    gates = count_calls(monkeypatch, "__post_init__", GateMatrix)
    assert warm_count(gates, contradiction_report) == 0


def test_multiplies_per_representation_check_suite(multiplies):
    # The H, S and CNOT mapping tables, each built once; the CNOT table is
    # most of it, as in a two-qubit derivation (4 250 before the rank-1 test,
    # 2 586 before the fused apply).
    assert warm_count(multiplies, representation_checks) <= 1_965


def test_multiplies_per_oracle_check_suite(multiplies):
    # The suite classifies one entangled image: 3 230 when it was scanned,
    # 3 206 before the fused apply, 2 838 when the classification round trip
    # rebuilt its 36 product kets instead of reading basis_products.
    assert warm_count(multiplies, oracle_checks) <= 2_694


def test_oracle_check_suite_takes_two_tensor_products(monkeypatch):
    # The start and escape kets; the round trip reads the cached basis
    # products (38 tensor products per call when it rebuilt them).
    calls = count_calls(monkeypatch, "tensor", qstate)
    monkeypatch.setattr(checks, "tensor", qstate.tensor)
    assert warm_count(calls, oracle_checks) <= 2


def test_oracle_check_suite_builds_no_gate(monkeypatch):
    # run_ket embeds H as H(x)I once per process, not on every step.
    gates = count_calls(monkeypatch, "__post_init__", GateMatrix)
    assert warm_count(gates, oracle_checks) == 0


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


def test_a_dot_product_builds_one_ring_element(builds, multiplies):
    xs = tuple(CycInt(k, -k, 2**70 * k, 1) for k in range(1, 5))
    ys = tuple(reversed(xs))
    for conjugate_left in (False, True):
        builds[0] = 0
        dot(xs, ys, conjugate_left)
        assert builds[0] == 1 and multiplies[0] == 0
