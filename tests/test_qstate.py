"""Exact state-vector oracle: eigenbasis, gates, classification, predictions."""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvlab.cyclotomic import IM, OMEGA, ONE, CycInt
from hvlab.qstate import (
    GATES,
    BasisLabel,
    GateMatrix,
    Ket,
    apply,
    bell_psi_minus,
    classify,
    eigenvector,
    gate,
    gate_from_json,
    gate_to_json,
    inner,
    kron,
    load_gate,
    matrix_digest,
    predicts_opposite,
    proportional,
    separable,
    tensor,
)

LABELS = list(BasisLabel)

scalars = st.sampled_from(
    [ONE, -ONE, OMEGA, IM, CycInt(1, 1), CycInt(2, 0, -1), CycInt(0, 1, 0, -1)]
)


def test_label_parsing_and_rendering():
    assert [str(l) for l in LABELS] == ["X+", "X-", "Y+", "Y-", "Z+", "Z-"]
    for l in LABELS:
        assert BasisLabel.parse(str(l)) is l
    with pytest.raises(ValueError):
        BasisLabel.parse("Q+")


def test_eigenvectors_are_pauli_eigenstates():
    for l in LABELS:
        v = eigenvector(l)
        image = apply(GATES[l.axis.upper()], v)
        assert image == v.scaled(l.sign)


def test_ket_validation():
    with pytest.raises(ValueError):
        Ket.of(0, 0)
    with pytest.raises(ValueError):
        Ket.of(1, 0, 0)
    with pytest.raises(TypeError):
        Ket((1, 0))


def test_proportional():
    assert proportional(Ket.of(1, 1), Ket.of(3, 3))
    assert proportional(Ket.of(ONE, IM), Ket.of(OMEGA, OMEGA * IM))
    assert not proportional(Ket.of(1, 0), Ket.of(0, 1))
    assert not proportional(Ket.of(1, 1), Ket.of(1, -1))
    with pytest.raises(ValueError):
        proportional(Ket.of(1, 0), Ket.of(1, 0, 0, 0))


def test_tensor_is_first_qubit_major():
    v = tensor(eigenvector(BasisLabel.Z_MINUS), eigenvector(BasisLabel.X_PLUS))
    assert v == Ket.of(0, 0, 1, 1)
    assert tensor(Ket.of(1, 2), Ket.of(3, 5)) == Ket.of(3, 5, 6, 10)


def test_classify_single():
    for l in LABELS:
        assert classify(eigenvector(l)) is l
    assert classify(Ket.of(1, 2)) is None
    assert classify(Ket.of(ONE, OMEGA)) is None


def test_classify_pairs():
    for l1 in LABELS:
        for l2 in LABELS:
            assert classify(tensor(eigenvector(l1), eigenvector(l2))) == (l1, l2)
    assert classify(bell_psi_minus()) is None


def test_classify_factor_order():
    assert classify(Ket.of(0, 1, 0, -1)) == (BasisLabel.X_MINUS, BasisLabel.Z_MINUS)
    assert classify(Ket.of(0, 0, 1, -1)) == (BasisLabel.Z_MINUS, BasisLabel.X_MINUS)


def reference_classify(v):
    """Brute-force scan of every tensor/proportional pair, built afresh each call."""
    matches = [
        (l1, l2)
        for l1 in LABELS
        for l2 in LABELS
        if proportional(tensor(eigenvector(l1), eigenvector(l2)), v)
    ]
    assert len(matches) <= 1
    return matches[0] if matches else None


def test_classify_pairs_agrees_with_brute_force_reference():
    products = [tensor(eigenvector(l1), eigenvector(l2)) for l1 in LABELS for l2 in LABELS]
    gates = [
        GATES["CNOT"],
        kron(GATES["H"], GATES["I"]),
        kron(GATES["S"], GATES["T"]),
        kron(GATES["T"], GATES["I"]),
    ]
    images = [[apply(g, v) for v in products] for g in gates]
    assert [sum(classify(v) is not None for v in row) for row in images] == [20, 36, 12, 12]
    scaled = [[v.scaled(s) for v in products] for s in (OMEGA, ONE + OMEGA)]
    for v in itertools.chain(*images, *scaled):
        assert classify(v) == reference_classify(v), v
    off_basis = [Ket.of(1, 2), Ket.of(ONE, OMEGA), Ket.of(ONE, ONE + OMEGA)]
    for factor in off_basis:
        for label in LABELS:
            for v in (tensor(factor, eigenvector(label)), tensor(eigenvector(label), factor)):
                assert classify(v) is None and reference_classify(v) is None, v


@given(st.sampled_from(LABELS), st.sampled_from(LABELS), scalars, scalars)
def test_classification_ignores_scalars(l1, l2, s1, s2):
    assert classify(eigenvector(l1).scaled(s1)) is l1
    assert classify(tensor(eigenvector(l1), eigenvector(l2)).scaled(s2)) == (l1, l2)


def test_separable():
    for l1 in LABELS:
        for l2 in LABELS:
            assert separable(tensor(eigenvector(l1), eigenvector(l2)))
    assert not separable(bell_psi_minus())
    assert not separable(Ket.of(ONE, IM, -ONE, IM))


def test_gate_lookup():
    assert gate("H").name == "H"
    with pytest.raises(ValueError):
        gate("Q")


def test_builtin_gram_scales():
    for name, g in GATES.items():
        scale = g.gram_scale()
        assert (scale.b, scale.c, scale.d) == (0, 0, 0)
        assert scale.a == (2 if name == "H" else 1)


def test_matrix_validation():
    with pytest.raises(ValueError):
        GateMatrix.of([[1, 0], [1, 1]])
    with pytest.raises(ValueError):
        GateMatrix.of([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        GateMatrix.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_scaled_matrix_keeps_name_and_content():
    g = GATES["H"].scaled(OMEGA)
    assert g.name == "H"
    assert g.gram_scale() == CycInt(2)
    assert proportional(apply(g, Ket.of(1, 0)), Ket.of(1, 1))


def test_hadamard_eigenbasis_mapping():
    expected = {"X+": "Z+", "X-": "Z-", "Y+": "Y-", "Y-": "Y+", "Z+": "X+", "Z-": "X-"}
    for src, dst in expected.items():
        image = apply(GATES["H"], eigenvector(BasisLabel.parse(src)))
        assert classify(image) is BasisLabel.parse(dst)


def test_phase_gate_eigenbasis_mapping():
    expected = {"X+": "Y+", "X-": "Y-", "Y+": "X-", "Y-": "X+", "Z+": "Z+", "Z-": "Z-"}
    for src, dst in expected.items():
        image = apply(GATES["S"], eigenvector(BasisLabel.parse(src)))
        assert classify(image) is BasisLabel.parse(dst)


def test_t_gate_preserves_only_z():
    for l in LABELS:
        image = classify(apply(GATES["T"], eigenvector(l)))
        if l.axis == "z":
            assert image is l
        else:
            assert image is None


def test_entangling_circuit_produces_singlet():
    start = tensor(eigenvector(BasisLabel.Z_MINUS), eigenvector(BasisLabel.Z_MINUS))
    out = apply(GATES["CNOT"], apply(kron(GATES["H"], GATES["I"]), start))
    assert proportional(out, bell_psi_minus())
    assert bell_psi_minus() == Ket.of(0, 1, -1, 0)


def test_cnot_escape_is_entangled():
    v = tensor(eigenvector(BasisLabel.Y_PLUS), eigenvector(BasisLabel.Y_PLUS))
    out = apply(GATES["CNOT"], v)
    assert out == Ket.of(ONE, IM, -ONE, IM)
    assert classify(out) is None
    assert not separable(out)


def test_inner_product():
    yp = eigenvector(BasisLabel.Y_PLUS)
    ym = eigenvector(BasisLabel.Y_MINUS)
    assert inner(yp, yp) == CycInt(2)
    assert inner(yp, ym).is_zero()
    assert inner(Ket.of(ONE, IM), Ket.of(1, 1)) == ONE - IM


def test_predicts_opposite():
    bell = bell_psi_minus()
    for axis in ("x", "y", "z"):
        assert predicts_opposite(bell, axis)
    zz = tensor(eigenvector(BasisLabel.Z_PLUS), eigenvector(BasisLabel.Z_PLUS))
    assert not predicts_opposite(zz, "z")
    opposite_z = tensor(eigenvector(BasisLabel.Z_PLUS), eigenvector(BasisLabel.Z_MINUS))
    assert predicts_opposite(opposite_z, "z")
    assert not predicts_opposite(opposite_z, "x")
    with pytest.raises(ValueError):
        predicts_opposite(eigenvector(BasisLabel.Z_PLUS), "z")


def test_gate_json_round_trip():
    doc = gate_to_json(GATES["CNOT"])
    again = gate_from_json(doc)
    assert again == GATES["CNOT"]
    assert again.name == "CNOT"
    assert matrix_digest(again) == matrix_digest(GATES["CNOT"])


def test_gate_json_validation():
    good = gate_to_json(GATES["H"])
    for broken in (
        [],
        {k: v for k, v in good.items() if k != "entries"},
        {**good, "dim": 3},
        {**good, "dim": 2.0},
        {**good, "entries": good["entries"][:1]},
        {**good, "entries": [[[1, 0, 0], [0, 0, 0, 0]], good["entries"][1]]},
        {**good, "entries": [[[True, 0, 0, 0], [0, 0, 0, 0]], good["entries"][1]]},
        {**good, "name": 3},
    ):
        with pytest.raises(ValueError):
            gate_from_json(broken)
    with pytest.raises(ValueError):
        gate_from_json({"name": "bad", "dim": 2, "entries": [[[1, 0, 0, 0], [0, 0, 0, 0]], [[1, 0, 0, 0], [1, 0, 0, 0]]]})


def test_load_gate(tmp_path):
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(gate_to_json(GATES["S"])), encoding="utf-8")
    assert load_gate(path) == GATES["S"]
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_gate(path)
    with pytest.raises(OSError):
        load_gate(tmp_path / "missing.json")


def test_matrix_digest_ignores_name_but_not_entries():
    renamed = GateMatrix(GATES["H"].entries, "other")
    assert matrix_digest(renamed) == matrix_digest(GATES["H"])
    assert matrix_digest(GATES["H"]) != matrix_digest(GATES["X"])
    assert matrix_digest(GATES["H"].scaled(OMEGA)) != matrix_digest(GATES["H"])
