"""The benchmark's own tests: generators, checks, statistics and tracing.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

import itertools
import random

import pytest

import expect
import run
import tracing
import workloads


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_generators_are_deterministic_per_seed_and_differ_across_seeds(tmp_path):
    docs = lambda seed: [g.doc for g in take(workloads.census_stream(seed), 12)]  # noqa: E731
    assert docs(3) == docs(3)
    assert docs(3) != docs(4)

    argvs = lambda seed: [r.argv for r in take(workloads.session_stream(seed), 40)]  # noqa: E731
    assert argvs(3) == argvs(3)
    assert argvs(3) != argvs(4)

    cli = lambda seed, d: [(r.argv[:1], r.gate and r.gate.doc) for r in take(workloads.cli_stream(seed, d), 32)]  # noqa: E731
    assert cli(3, tmp_path / "a") == cli(3, tmp_path / "b")
    assert cli(3, tmp_path / "a") != cli(4, tmp_path / "a")


def test_census_documents_never_repeat_even_up_to_a_scalar():
    gates = take(workloads.census_stream(7), 120)
    assert len({str(g.doc) for g in gates}) == len(gates)
    flats = [tuple(e for row in g.matrix for e in row) for g in gates]
    for i, j in itertools.combinations(range(len(flats)), 2):
        assert not workloads.proportional(flats[i], flats[j]), (i, j)
    assert sum(g.t_word for g in gates) == len(gates) // 2
    assert sum(g.wide for g in gates) == len(gates) // 4
    for g in gates:
        widest = max(abs(c).bit_length() for row in g.doc["entries"] for e in row for c in e)
        assert (widest > 64) == g.wide


def test_ring_multiply_agrees_with_cycint(hv):
    CycInt = hv.qstate.CycInt
    rng = random.Random(11)
    for _ in range(500):
        bits = rng.choice((4, 40, 100))
        x = tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(4))
        y = tuple(rng.randint(-(1 << bits), 1 << bits) for _ in range(4))
        p = CycInt(*x) * CycInt(*y)
        assert workloads.rmul(x, y) == (p.a, p.b, p.c, p.d)


@pytest.mark.parametrize(
    "n, p", [(20, 50), (39, 50), (40, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99), (50000, 99)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p
    ordered = list(range(n))
    value = run.percentile(ordered, p)
    assert sum(x > value for x in ordered) >= 10
    higher = [q for q in run.TAIL_LADDER if q > p]
    if higher:
        assert sum(x > run.percentile(ordered, min(higher)) for x in ordered) < 10


def test_tail_percentile_cap():
    assert run.tail_percentile(50000, cap=95) == 95
    assert run.tail_percentile(150, cap=95) == 90
    assert run.tail_percentile(run.MIN_OPS, cap=run.TAIL_CAP["cli"]) == run.TAIL_CAP["cli"]


def test_wrong_expected_answer_counts_as_failure_and_the_run_goes_on(hv, monkeypatch):
    monkeypatch.setitem(expect.ONE_QUBIT_RULES, "H", "⟨x, y, z⟩")
    wl = run.Requests(hv, lambda: workloads.session_stream(0), subprocesses=False)
    tally = run.Tally()
    batch = take(wl.stream(), 40)
    for item in batch:
        _, output, error = run.timed_op(wl, item)
        tally.record(wl, item, output, error)
    wrong = sum(r.argv[:2] == ("derive", "H") for r in batch)
    assert wrong > 0
    assert (tally.attempted, tally.failed) == (40, wrong)


def test_an_op_that_raises_is_a_failed_op(hv, monkeypatch):
    def conflict(*args, **kwargs):
        raise hv.derive_module.ConflictingConstraints("forced both ways")

    wl = run.Census(hv, 0)
    gate = next(wl.stream())
    monkeypatch.setattr(hv.derive_module, "merge", conflict)
    tally = run.Tally()
    _, output, error = run.timed_op(wl, gate)
    tally.record(wl, gate, output, error)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "ConflictingConstraints" in next(iter(tally.reasons))


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["c", 6.5, 9.0, 0, 0],  # overlaps b: the covered union is 5..9
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 2.0, 1.0, 2.5]
    inclusive, own = tracing.span_totals(spans)
    assert inclusive["a"] == 3.0 and own["op"] == 3.0


def test_tracer_wraps_where_callers_look_up_and_counts_exactly(hv):
    derive_module = hv.derive_module
    original = derive_module.classify
    cnot = hv.qstate.GATES["CNOT"]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert derive_module.classify is not original
            derive_module.derivation_report(cnot)
        finally:
            tracer.uninstall()
        counts.append(dict(tracer.counts))
    assert derive_module.classify is original
    assert counts[0] == counts[1]
    assert counts[0]["qstate.classify"] == 36 and counts[0]["qstate.classify.hits"] == 20
    assert counts[0]["qstate.proportional.true"] == 20


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_default_seed_outputs_match_the_recorded_digest(hv, name, tmp_path):
    if name == "cli":
        wl = run.Requests(hv, lambda: workloads.cli_stream(expect.DEFAULT_SEED, tmp_path), subprocesses=True)
    else:
        wl = run.make_workload(name, hv, expect.DEFAULT_SEED, traced=False)
    outputs = [wl.text(wl.run(item)) for item in take(wl.stream(), expect.DIGEST_OPS)]
    assert expect.digest(outputs) == expect.DIGESTS[name]
