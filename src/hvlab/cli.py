"""Command-line surface: derivations, verifications, and the contradiction.

Every subcommand emits one report, as text or as JSON carrying the same
content, and exit codes separate the scientific answer from operational
failure: 0 means the expected result, 2 (derive only) means no faithful
functional representation exists, which is a finding rather than an
error, and 1 means bad input or a failed check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .checks import checks_report, oracle_checks, render_checks_text, representation_checks
from .derive import derivation_report, render_derivation_text
from .epr import contradiction_report, epr_report, render_contradiction_text, render_epr_text
from .qstate import GATES, gate, load_gate


def _emit(report: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, ensure_ascii=False, indent=2))
    else:
        print(renderer(report))


def _resolve_gate(name_or_path: str):
    if name_or_path in GATES:
        return gate(name_or_path)
    return load_gate(name_or_path)


def _cmd_derive(args) -> int:
    try:
        g = _resolve_gate(args.gate)
        report = derivation_report(g)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.format, render_derivation_text)
    return 0 if report["all_total"] else 2


def _cmd_verify_reps(args) -> int:
    report = checks_report(
        "verify-reps", "triplet-rule coherence checks", representation_checks()
    )
    _emit(report, args.format, render_checks_text)
    return 0 if report["all_passed"] else 1


def _cmd_epr(args) -> int:
    if args.phase_shift == args.no_phase_shift:
        print(
            "error: choose exactly one of --phase-shift or --no-phase-shift",
            file=sys.stderr,
        )
        return 1
    _emit(epr_report(args.phase_shift), args.format, render_epr_text)
    return 0


def _cmd_contradiction(args) -> int:
    report = contradiction_report()
    _emit(report, args.format, render_contradiction_text)
    return 0 if report["verdict"] == "contradiction" else 1


def _cmd_oracle_check(args) -> int:
    report = checks_report("oracle-check", "state-vector oracle self-checks", oracle_checks())
    _emit(report, args.format, render_checks_text)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvlab",
        description="exact laboratory for triplet hidden-variable models of qubit gates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("derive", help="derive the triplet rule forced by a gate matrix")
    p.add_argument("gate", help="builtin gate name or path to a gate JSON file")
    add_format(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("verify-reps", help="check builtin triplet rules against derivations")
    add_format(p)
    p.set_defaults(handler=_cmd_verify_reps)

    p = sub.add_parser("epr", help="propagate symbolic triplets through the pair circuit")
    p.add_argument("--phase-shift", action="store_true")
    p.add_argument("--no-phase-shift", action="store_true")
    add_format(p)
    p.set_defaults(handler=_cmd_epr)

    p = sub.add_parser("contradiction", help="enumerate both branches and compare")
    add_format(p)
    p.set_defaults(handler=_cmd_contradiction)

    p = sub.add_parser("oracle-check", help="self-check the exact state-vector oracle")
    add_format(p)
    p.set_defaults(handler=_cmd_oracle_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first request and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


def entry() -> None:
    try:
        try:
            code = main()
        finally:
            # Flush here, also when argparse exits, so a closed stdout is
            # caught below rather than at interpreter exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: send what is left to /dev/null, so the
        # flush at exit cannot fail again, and report the failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
