#!/usr/bin/env python3
"""Snapshot the benchmark into BENCH_<label>.json at the repository root.

Runs perfbench/run.py once per workload declared in BENCHMARK.json,
untraced (--trace 0: end-to-end metrics) and traced (--trace 1: per-layer
metrics), and records for each run its command, its `config` line and its
last-line JSON result. Only snapshots taken back to back on one machine can
be compared.

    python3 scripts/bench_snapshot.py --label baseline --seed 1 --seconds 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    config = next(line for line in lines if line.startswith("config "))
    return {
        "command": "python3 " + " ".join(cmd),
        "config": json.loads(config[len("config "):]),
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args()

    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            print(f"{workload} --trace {trace}", file=sys.stderr)
            runs.append({"workload": workload, "trace": trace,
                         **run(workload, args.seed, args.seconds, trace)})
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "seed": args.seed,
                               "seconds": args.seconds, "runs": runs}, indent=2) + "\n")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
