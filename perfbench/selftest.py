"""Self-test of the benchmark's correctness checker.

usage: python3 perfbench/selftest.py     (from the root of a checkout)

Runs every workload briefly twice: once as generated, where no op may fail,
and once with the expected outcome of one op mislabelled, where exactly that
op must be counted as failed. Exits 0 when both hold for every workload.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REJECT_KINDS, WORKLOADS, measure  # noqa: E402

SEED = 7
SECONDS = 1.0


def mislabel(op) -> None:
    """Give an op an expectation the program must not meet."""
    if op.digest is not None:
        op.digest = "0" * 64
    else:
        op.expect = REJECT_KINDS[(REJECT_KINDS.index(op.expect) + 1) % len(REJECT_KINDS)]


def run(name: str, wrong_op: int | None) -> tuple[list[str], list[str]]:
    scratch = ROOT / ".perfbench-scratch" / f"selftest-{name}-{os.getpid()}"
    w = WORKLOADS[name](SEED, scratch)
    next_op = w.next_op

    def labelled(index):
        op = next_op(index)
        if index == wrong_op:
            mislabel(op)
        return op

    w.next_op = labelled
    try:
        w.set_up()
        m = measure(w, SECONDS)
        return m.failures, m.warmup_failures + w.finish()
    finally:
        w.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    ok = True
    for name, cls in WORKLOADS.items():
        failures, problems = run(name, None)
        clean = not failures and not problems
        wrong_op = cls.warmup_ops + 1
        failures_mislabelled, problems_mislabelled = run(name, wrong_op)
        counted = (len(failures_mislabelled) == 1
                   and failures_mislabelled[0].startswith(f"op {wrong_op} ")
                   and not problems_mislabelled)
        print(f"{name}: clean run has no failures: {clean}; "
              f"mislabelled op {wrong_op} counted as the one failure: {counted}")
        for line in failures + problems + failures_mislabelled + problems_mislabelled:
            print(f"  {line}")
        ok = ok and clean and counted
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
