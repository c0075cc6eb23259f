"""Layered load-path benchmark for the faarm package.

usage: python3 perfbench/run.py --workload {update-stream,reject-flood,boot-cold}
           --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. Set-up
runs several times and setup_s is their median. Timings are scaled by the
speed of a reference probe timed between ops (see REFERENCE_PROBE_NS). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced run with --trace 1. See perfbench/METRICS.md
for what each metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH_DIR = ".perfbench-scratch"
OUT_DIR = ".perfbench-out"
# Every timing is scaled to the host speed at which the reference probe of
# workloads.reference_probe_ns takes this long, about full speed on the
# two-CPU host the benchmark was tuned on. See "Speed scaling" in METRICS.md.
REFERENCE_PROBE_NS = 100_000
CAVEAT = ("bundles are read from the OS page cache and fsync goes to this machine's "
          "disk, so latencies are this machine's, not a device's")

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "crypto.hash_data.calls_per_op": "calls/op",
    "crypto.hash_data.bytes_per_op": "B/op",
    "crypto.hash_data.bytes_per_image_byte": "ratio",
    "crypto.hash_data.ms_per_op": "ms",
    "crypto.verify.calls_per_op": "calls/op",
    "crypto.verify.ms_per_op": "ms",
    "crypto.self_ms_per_op": "ms",
    "packaging.read_bundle.ms_per_op": "ms",
    "packaging.parse_manifest.ms_per_op": "ms",
    "packaging.self_ms_per_op": "ms",
    "mcu.el1_write.calls_per_op": "calls/op",
    "mcu.secure_write.calls_per_op": "calls/op",
    "mcu.attempts_retained": "count",
    "mcu.self_ms_per_op": "ms",
    "state.append_audit.calls_per_op": "calls/op",
    "state.append_audit.ms_per_op": "ms",
    "state.audit_bytes_per_op": "B/op",
    "state.fsync.calls_per_op": "calls/op",
    "state.commit_version.calls_per_op": "calls/op",
    "state.load.calls_per_op": "calls/op",
    "state.self_ms_per_op": "ms",
    "monitor.verify_bundle.self_ms_per_op": "ms",
    "cli.import_ms": "ms",
    "trace.op_wall_ms": "ms",
    "trace.unattributed_ms_per_op": "ms",
    "trace.accounted_pct": "%",
    "trace.overhead_ms_per_op": "ms",
    "trace.traced_ops": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["update-stream", "reject-flood", "boot-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def speed_factors(m) -> list[float]:
    return [REFERENCE_PROBE_NS / ns for ns in m.op_probes_ns()]


def end_to_end(m, factors: list[float], setups: list[tuple[float, float]]) -> dict:
    walls_ms = [ns * f / 1e6 for ns, f in zip(m.walls_ns, factors)]
    return {
        "op_p50_ms": statistics.median(walls_ms),
        "op_p90_ms": _percentile(walls_ms, 90),
        "ops_per_s": len(walls_ms) / (sum(walls_ms) / 1e3),
        "setup_s": statistics.median(sec * REFERENCE_PROBE_NS / ns for sec, ns in setups),
        "peak_rss_mb": m.peak_rss_kb / 1024,
    }


def per_layer(m, factors: list[float], summary, *, in_process: bool,
              cli_import_ms: float) -> dict:
    s = summary
    traced = [i for i, t in enumerate(m.traced) if t]
    untraced = [i for i, t in enumerate(m.traced) if not t]
    wall_ms = statistics.fmean(m.walls_ns[i] * factors[i] for i in traced) / 1e6
    untraced_ms = (statistics.fmean(m.walls_ns[i] * factors[i] for i in untraced) / 1e6
                   if untraced else wall_ms)
    spanned_ms = s.per_op(s.root_ns / 1e6)
    hashed = s.bytes.get("crypto.hash_data", 0)
    image_bytes = sum(m.image_bytes[i] for i in traced)
    return {
        "crypto.hash_data.calls_per_op": s.calls_per_op("crypto.hash_data"),
        "crypto.hash_data.bytes_per_op": s.bytes_per_op("crypto.hash_data"),
        "crypto.hash_data.bytes_per_image_byte": hashed / image_bytes if image_bytes else 0.0,
        "crypto.hash_data.ms_per_op": s.ms_per_op("crypto.hash_data"),
        "crypto.verify.calls_per_op": s.calls_per_op("crypto.verify"),
        "crypto.verify.ms_per_op": s.ms_per_op("crypto.verify"),
        "crypto.self_ms_per_op": s.layer_ms_per_op("crypto"),
        "packaging.read_bundle.ms_per_op": s.ms_per_op("packaging.read_bundle"),
        "packaging.parse_manifest.ms_per_op": s.ms_per_op("packaging.parse_manifest"),
        "packaging.self_ms_per_op": s.layer_ms_per_op("packaging"),
        "mcu.el1_write.calls_per_op": s.calls_per_op("mcu.el1_write"),
        "mcu.secure_write.calls_per_op": s.calls_per_op("mcu.secure_write"),
        "mcu.attempts_retained": m.attempts_retained,
        "mcu.self_ms_per_op": s.layer_ms_per_op("mcu"),
        "state.append_audit.calls_per_op": s.calls_per_op("state.append_audit"),
        "state.append_audit.ms_per_op": s.ms_per_op("state.append_audit"),
        "state.audit_bytes_per_op": s.per_op(sum(m.audit_bytes[i] for i in traced)),
        "state.fsync.calls_per_op": s.calls_per_op("state.fsync"),
        "state.commit_version.calls_per_op": s.calls_per_op("state.commit_version"),
        "state.load.calls_per_op": s.calls_per_op("state.load"),
        "state.self_ms_per_op": s.layer_ms_per_op("state"),
        "monitor.verify_bundle.self_ms_per_op": s.ms_per_op("monitor.verify_bundle"),
        "cli.import_ms": cli_import_ms if in_process else s.ms_per_op("cli.import"),
        "trace.op_wall_ms": wall_ms,
        "trace.unattributed_ms_per_op": wall_ms - spanned_ms,
        "trace.accounted_pct": 100.0 * spanned_ms / wall_ms,
        "trace.overhead_ms_per_op": wall_ms - untraced_ms,
        "trace.traced_ops": s.traced_ops,
    }


def machine_config(args, load_avg, w, cpu: int) -> dict:
    import cryptography

    from workloads import LOCK_MODE, MCU_ID, SCHEME, TRACE_BLOCK

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "python": platform.python_version(), "cryptography": cryptography.__version__,
        "platform": platform.platform(), "load_avg_at_start": list(load_avg),
        "scheme": SCHEME.value, "lock_mode": LOCK_MODE.value, "mcu_id": MCU_ID,
        "loop": "closed, one caller, no extra threads", "warmup_ops": w.warmup_ops,
        "reference_probe_ns": REFERENCE_PROBE_NS,
        "setup_repeats": w.setup_repeats, "trace_block_ops": TRACE_BLOCK,
        **w.config(), "caveat": CAVEAT,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "faarm" / "__init__.py").is_file():
        print(f"error: no faarm package at {SRC / 'faarm'}; run from a checkout",
              file=sys.stderr)
        return 2
    load_avg = os.getloadavg()
    # One CPU for the benchmark and the processes it starts: on a shared
    # two-CPU host this made runs faster and their timings steadier.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter_ns()
    import faarm.cli  # noqa: F401  (timed: the import a `faarm` process pays)

    cli_import_ms = (time.perf_counter_ns() - t0) / 1e6
    import faarm

    if Path(faarm.__file__).resolve().parent != (SRC / "faarm").resolve():
        print(f"error: imported faarm from {faarm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from spans import Recorder, Summary
    from workloads import WORKLOADS, measure

    scratch = ROOT / SCRATCH_DIR / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, scratch)
    recorder = Recorder() if args.trace else None
    try:
        setups = [w.set_up() for _ in range(w.setup_repeats)]
        m = measure(w, args.seconds, recorder)
        problems = m.warmup_failures + w.finish()
        config = machine_config(args, load_avg, w, cpu)
    finally:
        w.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    attempted = len(m.walls_ns)
    failed = len(m.failures)
    print("config " + json.dumps(config))
    print(f"{args.workload}: attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted} post-run problems={len(problems)}")
    for problem in (m.failures + problems)[:10]:
        print(f"FAIL {problem}", file=sys.stderr)

    factors = speed_factors(m)
    print(f"speed factor: median {statistics.median(factors)}, "
          f"range {min(factors)} to {max(factors)}; unscaled op p50 "
          f"{statistics.median(m.walls_ns) / 1e6} ms")
    if args.trace:
        summary = Summary(recorder, {op: f for op, f, t in zip(m.op_ids, factors, m.traced) if t})
        values = per_layer(m, factors, summary, in_process=w.in_process,
                           cli_import_ms=cli_import_ms)
        units = PER_LAYER
        for line in summary.table():
            print(line)
        layers = {layer: summary.layer_ms_per_op(layer)
                  for layer in ("crypto", "packaging", "mcu", "state", "monitor", "cli")}
        print("layer self ms/op " + json.dumps(layers))
        if not w.in_process:
            print(f"cli.process_overhead_ms {values['trace.unattributed_ms_per_op']}")
        out = ROOT / OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        recorder.write(out, {"config": config, "ops": {
            "id": m.op_ids, "wall_ns": m.walls_ns, "traced": m.traced, "speed_factor": factors}})
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        values = end_to_end(m, factors, setups)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
