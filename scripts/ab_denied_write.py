#!/usr/bin/env python3
"""In-process A/B of the denied EL1 write path of two faarm checkouts.

usage: python3 scripts/ab_denied_write.py A B [--rounds R] [--writes N]

A and B are checkout roots (each holds src/faarm). One child process per
checkout imports faarm from that checkout's src, provisions a non-durable
store in a temporary directory, wires a Monitor to a locked region and then,
each round, times N denied EL1 writes, each of which appends one
WRITE_DENIED record. Both children are pinned to one CPU, the lowest this
process may use, as perfbench pins itself. Each child first runs one
untimed round; then the rounds alternate which checkout runs first, so a
slow phase of a shared host hits both sides alike. Prints each side's
median and quartiles in microseconds per denied write, and the ratio of
B's median to A's.

Passing the same checkout twice checks that the script works; a ratio then
reads about 1.0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WRITE = 32  # bytes per denied write, as reject-flood writes
CAPACITY = 256 * 1024


def child() -> int:
    """Serve rounds on stdin: each line holds a write count, answered with
    the loop's nanoseconds per denied write. A fresh store per round keeps
    the log the same size for both sides."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from faarm.crypto import SignatureScheme, keygen
    from faarm.mcu import McuRegion
    from faarm.monitor import Monitor
    from faarm.state import SecureStateStore

    key = keygen(SignatureScheme.ED25519, seed=b"ab-denied-write", allow_seeded=True)
    payloads = [bytes([i]) * WRITE for i in range(256)]
    with tempfile.TemporaryDirectory() as tmp:
        for round_no, line in enumerate(sys.stdin):
            writes = int(line)
            store = SecureStateStore.provision(key.public, Path(tmp) / str(round_no),
                                               durable=False)
            try:
                region = McuRegion(capacity=CAPACITY)
                region.lock()
                Monitor(store, region, mcu_id="MALI-MCU-XYZ")
                el1_write = region.el1_write
                t0 = time.perf_counter_ns()
                for i in range(writes):
                    el1_write((i * 4099) % (CAPACITY - WRITE), payloads[i & 255])
                elapsed = time.perf_counter_ns() - t0
            finally:
                store.close()
            print(elapsed / writes, flush=True)
    return 0


def start(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, __file__, "--child"],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def round_trip(proc: subprocess.Popen, writes: int) -> float:
    proc.stdin.write(f"{writes}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"error: child exited with status {proc.wait()}")
    return float(line)


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {med / 1e3:.3f} us (quartiles {q1 / 1e3:.3f} to {q3 / 1e3:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--writes", type=int, default=5000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child()
    if len(args.checkouts) != 2 or args.rounds < 1 or args.writes < 1:
        parser.error("give two checkouts, and positive --rounds and --writes")
    srcs = [checkout.resolve() / "src" for checkout in args.checkouts]
    for src in srcs:
        if not (src / "faarm" / "__init__.py").is_file():
            parser.error(f"no faarm package at {src / 'faarm'}")

    procs = [start(src) for src in srcs]
    try:
        for proc in procs:  # an untimed round each: first calls, caches, imports
            round_trip(proc, args.writes)
        times: list[list[float]] = [[], []]
        for round_no in range(args.rounds):
            order = (0, 1) if round_no % 2 == 0 else (1, 0)
            for side in order:
                times[side].append(round_trip(procs[side], args.writes))
    finally:
        for proc in procs:
            proc.stdin.close()
        for proc in procs:
            proc.wait(timeout=60)

    for label, checkout, values in zip("AB", args.checkouts, times):
        print(f"{label} {checkout}: {summary(values)} per denied write, "
              f"{len(values)} rounds of {args.writes}")
    ratio = statistics.median(times[1]) / statistics.median(times[0])
    wins = sum(b < a for a, b in zip(*times))
    print(f"B/A median ratio {ratio:.3f}; B faster in {wins} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
