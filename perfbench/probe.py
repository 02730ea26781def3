"""Fresh-interpreter probes that run.py times from outside.

    python3 perfbench/probe.py setup <census|session|cli>
        import hvlab, then run one warm-up request of each kind the
        workload sends, in process; prints "ok" when every exit code is
        the expected one.
    python3 perfbench/probe.py import
        prints the seconds `import hvlab` takes in this interpreter.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if argv[:1] == ["import"]:
        sys.path.insert(0, str(ROOT / "src"))
        start = time.perf_counter()
        import hvlab  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    if len(argv) != 2 or argv[0] != "setup":
        print(__doc__, file=sys.stderr)
        return 1
    import workloads

    hv = workloads.load_program(ROOT)
    for item in workloads.warm_up_items(argv[1]):
        if isinstance(item, workloads.CensusGate):
            workloads.census_op(hv, item.doc)
            continue
        code, _, _ = workloads.in_process(hv, item.argv)
        if code != (2 if item.argv[:2] == ("derive", "T") else 0):
            print(f"{' '.join(item.argv)}: exit {code}", file=sys.stderr)
            return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
