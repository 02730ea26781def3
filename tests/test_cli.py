"""Command-line behavior: exit codes, pinned strings, format equivalence."""

import json
import os
import subprocess
import sys

import pytest

from hvlab.checks import render_checks_text
from hvlab.cli import main
from hvlab.derive import render_derivation_text
from hvlab.epr import render_contradiction_text, render_epr_text
from hvlab.qstate import GATES, gate_to_json


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


def test_derive_from_gate_file(capsys, tmp_path):
    path = tmp_path / "phase.json"
    doc = gate_to_json(GATES["S"])
    doc["name"] = "phase"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "derive", str(path))
    assert code == 0
    assert "phase: ⟨x,y,z⟩ ↦ ⟨-y, x, z⟩" in out


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
    assert [first[argv][0] for argv in requests] == [0, 0, 0, 1, ("SystemExit", 2), 0]
    for argv in reversed(requests + requests):
        assert request(argv) == first[argv], argv


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
