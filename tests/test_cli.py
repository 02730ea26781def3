"""Command-line behavior: exit codes, pinned strings, format equivalence."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from hvlab import cli
from hvlab.checks import render_checks_text
from hvlab.cli import main
from hvlab.cyclotomic import CycInt
from hvlab.derive import render_derivation_text
from hvlab.epr import render_contradiction_text, render_epr_text
from hvlab.qstate import GATES, MAX_GATE_FILE_BYTES, gate_to_json, kron


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_h(capsys):
    code, out, err = run(capsys, "derive", "H")
    assert code == 0 and err == ""
    assert "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩" in out
    assert "preserved: 6" in out


def test_derive_s_produces_the_right_variant(capsys):
    code, out, _ = run(capsys, "derive", "S")
    assert code == 0
    assert "⟨-y, x, z⟩" in out
    assert "⟨y, -x, z⟩" not in out


def test_derive_cnot(capsys):
    code, out, _ = run(capsys, "derive", "CNOT")
    assert code == 0
    assert "(⟨x1.x2, y1.x2, z1⟩, ⟨x2, z1.y2, z1.z2⟩)" in out
    assert "preserved: 20, escaped: 16" in out


def test_derive_t_signals_no_representation(capsys):
    code, out, _ = run(capsys, "derive", "T")
    assert code == 2
    assert "z1' = z1  [total]" in out
    assert out.count("[undetermined]") == 2


def test_derive_identity(capsys):
    code, out, _ = run(capsys, "derive", "I")
    assert code == 0
    assert "i: ⟨x,y,z⟩ ↦ ⟨x, y, z⟩" in out


def test_derive_input_errors(capsys, tmp_path):
    code, out, err = run(capsys, "derive", str(tmp_path / "missing.json"))
    assert code == 1 and out == "" and "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "derive", str(bad))
    assert code == 1 and "error:" in err

    non_unitary = tmp_path / "shear.json"
    non_unitary.write_text(
        json.dumps(
            {
                "name": "shear",
                "dim": 2,
                "entries": [
                    [[1, 0, 0, 0], [0, 0, 0, 0]],
                    [[1, 0, 0, 0], [1, 0, 0, 0]],
                ],
            }
        ),
        encoding="utf-8",
    )
    code, _, err = run(capsys, "derive", str(non_unitary))
    assert code == 1 and "unitary" in err

    float_dim = tmp_path / "float_dim.json"
    doc = gate_to_json(GATES["H"])
    doc["dim"] = 2.0
    float_dim.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "derive", str(float_dim))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_derive_deeply_nested_json_is_a_one_line_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "derive", str(deep))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_derive_rejects_a_name_that_is_not_utf8(tmp_path, fmt):
    path = tmp_path / "surrogate.json"
    doc = gate_to_json(GATES["H"])
    doc["name"] = "\ud800"  # a lone surrogate: valid JSON, not encodable
    path.write_text(json.dumps(doc), encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", "derive", str(path), "--format", fmt],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: gate name must be encodable as UTF-8\n"


@pytest.mark.parametrize("separator", ["\n", "\r", "\x1b", "\x85", "\u2028"])
def test_derive_rejects_a_name_that_could_forge_report_lines(capsys, tmp_path, separator):
    path = tmp_path / "forged.json"
    doc = gate_to_json(GATES["H"])
    doc["name"] = f"a{separator}status: faithful"
    path.write_text(json.dumps(doc), encoding="ascii")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "derive", str(path), "--format", fmt)
        assert code == 1 and out == ""
        assert err == "error: gate name must not hold control or line-separator characters\n"


def test_derive_prints_a_name_with_spaces_and_non_ascii_letters(capsys, tmp_path):
    path = tmp_path / "named.json"
    doc = gate_to_json(GATES["H"])
    doc["name"] = "Hadamard à λ"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "derive", str(path))
    assert code == 0 and err == ""
    assert out.startswith("derivation report for Hadamard à λ (dim 2, ")
    assert "hadamard à λ: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩" in out


def test_derive_reads_a_gate_file_of_exactly_the_cap(capsys, tmp_path):
    text = json.dumps(gate_to_json(GATES["H"]))
    path = tmp_path / "padded.json"
    path.write_text(text + " " * (MAX_GATE_FILE_BYTES - len(text)), encoding="utf-8")
    assert path.stat().st_size == MAX_GATE_FILE_BYTES
    code, out, err = run(capsys, "derive", str(path))
    assert code == 0 and err == ""
    assert "h: ⟨x,y,z⟩ ↦ ⟨z, -y, x⟩" in out


def test_derive_rejects_a_gate_file_over_the_cap(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_bytes(b" " * (MAX_GATE_FILE_BYTES + 1))
    code, out, err = run(capsys, "derive", str(path))
    assert code == 1 and out == ""
    assert err == f"error: gate file is larger than {MAX_GATE_FILE_BYTES} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_derive_reads_an_endless_file_only_up_to_the_cap(capsys):
    code, out, err = run(capsys, "derive", "/dev/zero")
    assert code == 1 and out == ""
    assert err == f"error: gate file is larger than {MAX_GATE_FILE_BYTES} bytes\n"


def test_derive_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_gate", exhausted)
    code, out, err = run(capsys, "derive", "gate.json")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_derive_from_gate_file(capsys, tmp_path):
    path = tmp_path / "phase.json"
    doc = gate_to_json(GATES["S"])
    doc["name"] = "phase"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "derive", str(path))
    assert code == 0
    assert "phase: ⟨x,y,z⟩ ↦ ⟨-y, x, z⟩" in out


# Gate documents for the fuzz test below, as the bytes of a file.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
coefficients = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**4000), 10**4000),
    st.booleans(),
    st.floats(),
    st.just("1"),
)
gate_shaped = st.fixed_dictionaries(
    {
        "name": st.text(max_size=6) | st.just("\ud800") | json_values,
        "dim": st.sampled_from([2, 4, 3, 0, -2, 2.0, True, "2", None, 2**80]) | json_values,
        "entries": st.lists(
            st.lists(st.lists(coefficients, min_size=3, max_size=5) | json_values, max_size=5),
            max_size=5,
        )
        | json_values,
    }
)
one_qubit_gates = st.sampled_from([g for g in GATES.values() if g.dim == 2])
scalars = st.builds(CycInt, *[st.integers(-(2**100), 2**100)] * 4).map(
    lambda u: CycInt(1) if u.is_zero() else u
)
unitary = st.builds(
    lambda g, u: g.scaled(u),
    one_qubit_gates | st.builds(kron, one_qubit_gates, one_qubit_gates) | st.just(GATES["CNOT"]),
    scalars,
).map(gate_to_json)


def _with_bad_coefficient(doc, value):
    doc["entries"][0][-1][0] = value
    return doc


gate_documents = st.one_of(
    st.one_of(json_values, gate_shaped, unitary).map(lambda doc: json.dumps(doc).encode()),
    st.builds(_with_bad_coefficient, unitary, coefficients).map(lambda d: json.dumps(d).encode()),
    unitary.map(lambda doc: {**doc, "dim": 6 - doc["dim"]}).map(lambda d: json.dumps(d).encode()),
    # Integers over the JSON parser's 4 300-digit limit, and bytes that are not UTF-8.
    st.integers(4301, 6000).map(
        lambda n: f'{{"name": "", "dim": 2, "entries": [[[{"9" * n}, 0, 0, 0]]]}}'.encode()
    ),
    st.binary(max_size=40),
    st.binary(min_size=1, max_size=8).map(lambda b: b'{"name": "\xff' + b + b'"}'),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(gate_documents)
@example(json.dumps(gate_to_json(GATES["T"])).encode())  # exit 2
def test_derive_of_any_gate_file_gives_an_exit_code_and_no_traceback(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gate.json")
        with open(path, "wb") as f:
            f.write(document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["derive", path])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_verify_reps(capsys):
    code, out, _ = run(capsys, "verify-reps")
    assert code == 0
    assert "CNOT preserved product states: 20/36" in out
    assert "all checks passed" in out


def test_oracle_check(capsys):
    code, out, _ = run(capsys, "oracle-check")
    assert code == 0
    assert "all checks passed" in out


def test_epr_flag_validation(capsys):
    code, out, err = run(capsys, "epr")
    assert code == 1 and out == "" and "exactly one" in err
    code, _, err = run(capsys, "epr", "--phase-shift", "--no-phase-shift")
    assert code == 1 and "exactly one" in err


def test_epr_branches(capsys):
    code, out, _ = run(capsys, "epr", "--no-phase-shift")
    assert code == 0
    assert "(⟨-x2, -y1.x2, x1⟩, ⟨x2, x1.y2, -x1⟩)" in out
    assert "y: x1.y1.x2.y2 = +1" in out
    assert out.count("+1 (always)") == 2

    code, out, _ = run(capsys, "epr", "--phase-shift")
    assert code == 0
    assert "y: x1.y1.x2.y2 = -1" in out
    assert out.count("+1 (always)") == 2


def test_contradiction(capsys):
    code, out, _ = run(capsys, "contradiction")
    assert code == 0
    assert (
        "S_no = 8 assignments, S_yes = 8 assignments, intersection = ∅"
        " → no-go confirmed at desk scale"
    ) in out
    assert "verdict: contradiction" in out
    assert "mask 0x9669" in out and "mask 0x6996" in out


RENDERERS = {
    ("derive", "H"): render_derivation_text,
    ("derive", "T"): render_derivation_text,
    ("derive", "CNOT"): render_derivation_text,
    ("verify-reps",): render_checks_text,
    ("oracle-check",): render_checks_text,
    ("epr", "--phase-shift"): render_epr_text,
    ("epr", "--no-phase-shift"): render_epr_text,
    ("contradiction",): render_contradiction_text,
}


@pytest.mark.parametrize("argv", sorted(RENDERERS), ids=" ".join)
def test_text_and_json_carry_the_same_content(capsys, argv):
    _, text_out, _ = run(capsys, *argv)
    _, json_out, _ = run(capsys, *argv, "--format", "json")
    parsed = json.loads(json_out)
    assert RENDERERS[argv](parsed) + "\n" == text_out


@pytest.mark.parametrize("argv", sorted(RENDERERS), ids=" ".join)
def test_output_is_deterministic(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    first = run(capsys, *argv, "--format", "json")
    second = run(capsys, *argv, "--format", "json")
    assert first == second


def test_reused_parser_carries_no_state_between_requests(capsys):
    def request(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    requests = [
        ("epr", "--phase-shift"),
        ("derive", "H", "--format", "json"),
        ("contradiction",),
        ("epr",),
        ("no-such-command",),
        ("derive", "H"),
    ]
    first = {argv: request(argv) for argv in requests}
    assert [first[argv][0] for argv in requests] == [0, 0, 0, 1, ("SystemExit", 1), 0]
    for argv in reversed(requests + requests):
        assert request(argv) == first[argv], argv


@pytest.mark.parametrize(
    "argv",
    [("derive",), ("derive", "H", "--format", "xml"), ("bogus",), ("contradiction", "--bogus")],
    ids=" ".join,
)
def test_usage_errors_exit_1_with_the_usage_on_stderr(argv):
    # 2 is derive's finding (no faithful representation), never a usage error.
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", *argv], capture_output=True, text=True, encoding="utf-8"
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: hvlab")
    assert lines[-1].startswith("hvlab") and ": error: " in lines[-1]


def test_help_exits_0_on_stdout():
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", "--help"], capture_output=True, text=True, encoding="utf-8"
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: hvlab")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", "contradiction"],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0
    assert "no-go confirmed at desk scale" in proc.stdout


@pytest.mark.parametrize(
    "argv", [("derive", "CNOT", "--format", "json"), ("--help",)], ids=" ".join
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # Buffered stdout, as in a shell: the failed write may surface at flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hvlab", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""  # no traceback, no "Exception ignored" line


@pytest.mark.parametrize("argv", [("contradiction",), ("--help",)], ids=" ".join)
def test_closed_stdout_descriptor_exits_1_without_a_traceback(argv):
    # As `hvlab contradiction >&-` in a shell: fd 1 is not open at all, so
    # the interpreter starts with sys.stdout set to None.
    closes_fd_1 = (
        "import os, sys\n"
        "os.close(1)\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'hvlab', *sys.argv[1:]])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", closes_fd_1, *argv],
        stdin=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("golden", ["derive-H.text", "contradiction.json"])
def test_output_is_utf8_whatever_the_stdout_encoding(golden):
    golden_dir = Path(__file__).parent / "golden"
    case = json.loads((golden_dir / "cases.json").read_text(encoding="utf-8"))[golden]
    proc = subprocess.run(
        [sys.executable, "-m", "hvlab", *case["argv"]],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.stderr == b""
    assert proc.returncode == case["exit"]
    assert proc.stdout == (golden_dir / golden).read_bytes()


def test_import_loads_every_module_a_tracer_looks_up():
    # perfbench/tracing.py wraps functions through sys.modules["hvlab.<name>"]
    # as it installs, so `import hvlab.cli` must load all of these eagerly.
    names = ("cyclotomic", "qstate", "derive", "triplets", "epr", "checks", "cli")
    probe = (
        "import sys\n"
        "import hvlab.cli\n"
        f"print(' '.join(n for n in {names!r} if 'hvlab.' + n not in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == []


def test_import_loads_neither_dataclasses_nor_inspect():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import hvlab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    loaded = proc.stdout.split()
    assert "hvlab.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # Only derive hashes a matrix; the other subcommands start without OpenSSL.
    assert "hashlib" not in loaded and "_hashlib" not in loaded
