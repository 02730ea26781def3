"""Exact state-vector oracle: eigenbasis, gates, classification, predictions."""

import functools
import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hvlab.cyclotomic import IM, OMEGA, ONE, SQRT2, ZERO, CycInt
from hvlab.qstate import (
    GATES,
    BasisLabel,
    GateMatrix,
    Ket,
    _gram_scale,
    apply,
    basis_products,
    bell_psi_minus,
    classify,
    eigenvector,
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
    zero = "the zero vector is not a state"
    not_ring = "ket entries must be CycInt values"
    not_tuple = "ket entries must be a tuple"
    for call, error, message in (
        (lambda: Ket.of(0, 0), ValueError, zero),
        (lambda: Ket.of(0, 0, 0, 0), ValueError, zero),
        (lambda: Ket.of(1, 0, 0), ValueError, "kets have dimension 2 or 4, got 3"),
        (lambda: Ket((1, 0)), TypeError, not_ring),
        (lambda: Ket((ONE, 1)), TypeError, not_ring),
        # The entry types are checked before the zero test.
        (lambda: Ket((CycInt(0), 0)), TypeError, not_ring),
        (lambda: Ket((CycInt(0), CycInt(0), CycInt(0), (0, 0, 0, 0))), TypeError, not_ring),
        # A list could be edited after validation, into the zero vector say.
        (lambda: Ket([ONE, ZERO]), TypeError, not_tuple),
        (lambda: Ket([ONE, ZERO, ZERO]), TypeError, not_tuple),
        (lambda: Ket([ZERO, ZERO]), TypeError, not_tuple),
        (lambda: Ket([1, 0]), TypeError, not_tuple),
    ):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    assert Ket((CycInt(0), CycInt(0), CycInt(0), ONE)).entries[3] == ONE


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
    for l1, l2 in itertools.product(LABELS, repeat=2):
        x, y = eigenvector(l1).entries, eigenvector(l2).entries
        expected = [x[i] * y[k] for i in range(2) for k in range(2)]
        assert list(tensor(eigenvector(l1), eigenvector(l2)).entries) == expected


def test_kron_of_every_one_qubit_pair_matches_the_index_formula():
    one_qubit = [g for g in GATES.values() if g.dim == 2]
    assert len(one_qubit) == 7
    for a, b in itertools.product(one_qubit, repeat=2):
        product = kron(a, b).entries
        for i, j, k, l in itertools.product(range(2), repeat=4):
            assert product[2 * i + k][2 * j + l] == a.entries[i][j] * b.entries[k][l]


def test_products_of_unsupported_sizes_are_refused_by_the_value_types():
    with pytest.raises(ValueError):
        tensor(bell_psi_minus(), eigenvector(BasisLabel.Z_PLUS))
    with pytest.raises(ValueError):
        kron(GATES["CNOT"], GATES["H"])


def test_basis_products_order_and_arity():
    assert [labels for labels, _ in basis_products(1)] == [(l,) for l in LABELS]
    assert [labels for labels, _ in basis_products(2)] == list(itertools.product(LABELS, repeat=2))
    for labels, ket in basis_products(2):
        assert ket == tensor(eigenvector(labels[0]), eigenvector(labels[1]))
    for arity in (0, 3):
        with pytest.raises(ValueError):
            basis_products(arity)


def test_classify_single():
    for l in LABELS:
        assert classify(eigenvector(l)) is l
    assert classify(Ket.of(1, 2)) is None
    assert classify(Ket.of(ONE, OMEGA)) is None


def reference_classify_single(v):
    """The six-candidate proportional scan, in label order, for a 2-vector."""
    for label in BasisLabel:
        if proportional(eigenvector(label), v):
            return label
    return None


# The largest, (1+w)^120, has coefficients of up to 106 bits.
WIDE = [(ONE + OMEGA) ** k for k in range(121)]
wide_ints = st.integers(-(2**200), 2**200)
wide_scalars = st.builds(CycInt, wide_ints, wide_ints, wide_ints, wide_ints)
nonzero_scalars = wide_scalars.filter(lambda c: c != ZERO)
# The ring's units: a power of w times a power of 1+sqrt(2) or of its inverse.
units = st.builds(
    lambda j, m, inverse: OMEGA**j * (SQRT2 - 1 if inverse else SQRT2 + 1) ** m,
    st.integers(0, 7),
    st.integers(0, 4),
    st.booleans(),
)


def test_classify_single_matches_the_scan_on_wide_scaled_eigenvectors():
    assert max(abs(c).bit_length() for c in WIDE[120]) > 64
    for label in LABELS:
        for factor in WIDE:
            v = eigenvector(label).scaled(factor)
            assert classify(v) is reference_classify_single(v) is label, (label, factor)


@settings(max_examples=300)
@given(st.sampled_from(LABELS), st.sampled_from(WIDE), nonzero_scalars)
def test_classify_single_matches_the_scan_on_scaled_eigenvectors(label, wide, scalar):
    v = eigenvector(label).scaled(wide * scalar)
    assert classify(v) is reference_classify_single(v) is label


@settings(max_examples=300)
@given(nonzero_scalars, st.sampled_from([ONE, -ONE, IM, -IM]), units)
def test_classify_single_matches_the_scan_on_near_misses(a, s, delta):
    v = Ket((a, s * a + delta))
    assert classify(v) is reference_classify_single(v)


@given(nonzero_scalars, st.sampled_from(WIDE))
def test_classify_single_matches_the_scan_on_t_images(a, wide):
    v = Ket((a, OMEGA * a))
    assert classify(v) is reference_classify_single(v) is None
    image = apply(GATES["T"], Ket((wide, a)))
    assert classify(image) is reference_classify_single(image)


@settings(max_examples=300)
@given(st.tuples(wide_scalars, wide_scalars).filter(lambda e: e != (ZERO, ZERO)))
def test_classify_single_matches_the_scan_on_arbitrary_vectors(entries):
    v = Ket(entries)
    assert classify(v) is reference_classify_single(v)


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


PRODUCTS = [tensor(eigenvector(l1), eigenvector(l2)) for l1 in LABELS for l2 in LABELS]


def test_classify_pairs_agrees_with_brute_force_reference():
    gates = [
        GATES["CNOT"],
        kron(GATES["H"], GATES["I"]),
        kron(GATES["S"], GATES["T"]),
        kron(GATES["T"], GATES["I"]),
    ]
    images = [[apply(g, v) for v in PRODUCTS] for g in gates]
    assert [sum(classify(v) is not None for v in row) for row in images] == [20, 36, 12, 12]
    scaled = [[v.scaled(s) for v in PRODUCTS] for s in (OMEGA, ONE + OMEGA)]
    for v in itertools.chain(*images, *scaled):
        assert classify(v) == reference_classify(v), v
    # Rank-1 vectors with a factor off the eigenbasis, also scaled past 64 bits.
    off_basis = [Ket.of(1, 2), Ket.of(ONE, OMEGA), Ket.of(ONE, ONE + OMEGA)]
    wide = [WIDE[k] for k in (90, 105, 120)]
    assert min(max(abs(c).bit_length() for c in w) for w in wide) > 64
    rank_one = [tensor(f, g) for f in off_basis for g in off_basis]
    for factor in off_basis:
        for label in LABELS:
            rank_one += [tensor(factor, eigenvector(label)), tensor(eigenvector(label), factor)]
    for product in rank_one:
        assert separable(product)
        for v in (product, *(product.scaled(w) for w in wide)):
            assert classify(v) is None and reference_classify(v) is None, v


# Bell-type vectors a|00> + s|11> and a|01> + s|10>, and CNOT of every product:
# 16 of those 36 images are entangled, the other 20 are products.
BELL_TYPE = [
    Ket((a, ZERO, ZERO, s)) if even else Ket((ZERO, a, s, ZERO))
    for even in (True, False)
    for a in (ONE, IM, OMEGA)
    for s in (ONE, -ONE, IM, -IM, OMEGA, ONE + OMEGA)
]
CNOT_IMAGES = [apply(GATES["CNOT"], v) for v in PRODUCTS]


def test_bell_type_and_cnot_images_cover_both_branches():
    assert not any(separable(v) for v in BELL_TYPE)
    assert sum(not separable(v) for v in CNOT_IMAGES) == 16


@settings(max_examples=300)
@given(st.sampled_from(BELL_TYPE + CNOT_IMAGES), st.sampled_from(WIDE))
def test_classify_pairs_matches_brute_force_on_wide_bell_type_and_cnot_images(v, wide):
    v = v.scaled(wide)
    expected = reference_classify(v)
    assert classify(v) == expected
    assert separable(v) or expected is None


@settings(max_examples=300)
@given(st.sampled_from(PRODUCTS), st.sampled_from(WIDE), st.integers(0, 3), units)
def test_classify_pairs_matches_brute_force_on_near_products(product, wide, j, delta):
    entries = list(product.scaled(wide).entries)
    entries[j] = entries[j] + delta
    assume(any(e != ZERO for e in entries))
    v = Ket(tuple(entries))
    assert classify(v) == reference_classify(v)


@settings(max_examples=300)
@given(st.tuples(*[wide_scalars] * 4).filter(lambda e: any(c != ZERO for c in e)))
def test_classify_pairs_matches_brute_force_on_arbitrary_vectors(entries):
    v = Ket(entries)
    assert classify(v) == reference_classify(v)


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


def test_builtin_gates_carry_their_names():
    assert all(g.name == name for name, g in GATES.items())


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
    # Lists could be edited after the unitarity check; they are refused first.
    identity = GATES["I"].entries
    for entries in (
        [list(row) for row in identity],
        list(identity),
        (identity[0], list(identity[1])),
        [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]],
        ([ZERO, ZERO], [ZERO, ZERO]),
    ):
        with pytest.raises(TypeError) as info:
            GateMatrix(entries)
        assert str(info.value) == "gate matrix entries must be a tuple of tuples"
    assert GateMatrix(tuple(tuple(row) for row in identity)) == GATES["I"]


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


def reference_apply(g, v):
    """The operator loop apply ran before the fused kernel: a CycInt per step."""
    out = []
    for row in g.entries:
        acc = ZERO
        for m, e in zip(row, v.entries):
            acc = acc + m * e
        out.append(acc)
    return Ket(tuple(out))


def reference_inner(v, w):
    """The operator loop inner ran before the fused kernel."""
    acc = ZERO
    for a, b in zip(v.entries, w.entries):
        acc = acc + a.conjugate() * b
    return acc


def reference_gram_scale(entries):
    """The operator loop _gram_scale ran before the fused kernel, on all of M'M."""
    dim = len(entries)
    scale = None
    for i in range(dim):
        for j in range(dim):
            acc = ZERO
            for row in entries:
                acc = acc + row[i].conjugate() * row[j]
            if i != j:
                if not acc.is_zero():
                    return None
            elif scale is None:
                scale = acc
            elif acc != scale:
                return None
    return scale


def compose(a, b):
    """The matrix product a*b through the ring operators."""
    dim = a.dim
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = ZERO
            for k in range(dim):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return GateMatrix(tuple(rows))


small_ints = st.integers(-3, 3)
small_scalars = st.builds(CycInt, small_ints, small_ints, small_ints, small_ints)
# Kernel operands: zeros, small signed coefficients, and elements scaled by
# (1+w)^k with k >= 90, whose coefficients pass 64 bits.
kernel_entries = st.one_of(
    st.just(ZERO),
    small_scalars,
    st.builds(lambda c, k: c * WIDE[k], small_scalars, st.integers(90, 120)),
)
dims = st.sampled_from([2, 4])
ONE_QUBIT_GATES = [GATES[name] for name in "IXYZHST"]
GATE_POOLS = {
    2: ONE_QUBIT_GATES,
    4: [kron(a, b) for a in ONE_QUBIT_GATES for b in ONE_QUBIT_GATES] + [GATES["CNOT"]],
}


def kernel_kets(dim):
    return st.tuples(*[kernel_entries] * dim).filter(lambda e: e.count(ZERO) < dim).map(Ket)


def kernel_matrices(dim):
    return st.tuples(*[st.tuples(*[kernel_entries] * dim)] * dim)


def kernel_gates(dim):
    """Words of built-in gates, multiplied out and scaled by a nonzero operand."""
    return st.builds(
        lambda word, factor: functools.reduce(compose, word).scaled(factor),
        st.lists(st.sampled_from(GATE_POOLS[dim]), min_size=1, max_size=4),
        kernel_entries.filter(lambda c: c != ZERO),
    )


def perturbed_gates(dim):
    """A gate's entries with one entry moved off by a nonzero operand."""

    def perturb(g, i, j, delta):
        rows = [list(row) for row in g.entries]
        rows[i][j] = rows[i][j] + delta
        return tuple(tuple(row) for row in rows)

    index = st.integers(0, dim - 1)
    return st.builds(
        perturb, kernel_gates(dim), index, index, kernel_entries.filter(lambda c: c != ZERO)
    )


def exact(value):
    """The value, after checking it is a CycInt of plain ints."""
    assert type(value) is CycInt and all(type(coeff) is int for coeff in value)
    return value


def test_kernel_operands_pass_64_bits():
    assert max(abs(c).bit_length() for c in WIDE[90]) > 64


@settings(max_examples=300)
@given(dims.flatmap(lambda n: st.tuples(kernel_gates(n), kernel_kets(n))))
def test_apply_matches_the_operator_loop(case):
    g, v = case
    image = apply(g, v)
    assert image == reference_apply(g, v)
    assert all(exact(e) is e for e in image.entries)


@settings(max_examples=300)
@given(dims.flatmap(lambda n: st.tuples(kernel_kets(n), kernel_kets(n))))
def test_inner_matches_the_operator_loop(case):
    v, w = case
    assert exact(inner(v, w)) == reference_inner(v, w)
    assert exact(inner(v, v)) == reference_inner(v, v)


@settings(max_examples=300)
@given(
    dims.flatmap(
        lambda n: st.one_of(
            kernel_matrices(n), kernel_gates(n).map(lambda g: g.entries), perturbed_gates(n)
        )
    )
)
def test_gram_scale_matches_the_operator_loop(entries):
    scale = _gram_scale(entries)
    assert scale == reference_gram_scale(entries)
    assert scale is None or exact(scale) is scale


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
