#!/usr/bin/env python3
"""Latency sweep over firmware sizes for both signature schemes.

For each (size, scheme) cell, runs the verify/lock benchmark and writes one
JSON per cell plus a combined sweep.csv into --out. The default sweep covers
64 KiB to 16 MiB; pass --sizes to override (bytes, comma-separated).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faarm import harness
from faarm.crypto import SignatureScheme
from faarm.monitor import STAGES

DEFAULT_SIZES = [64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024, 16 * 1024 * 1024]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = harness.run_bench.__kwdefaults__
    parser.add_argument("--runs", type=int, default=defaults["runs"])
    parser.add_argument("--warmup", type=int, default=defaults["warmup"])
    parser.add_argument("--seed", type=int, default=defaults["seed"])
    parser.add_argument(
        "--sizes", default=None, help="comma-separated byte sizes (default: 64KiB..16MiB)"
    )
    parser.add_argument(
        "--schemes",
        default="ecdsa-p256,ed25519",
        help="comma-separated signature schemes",
    )
    parser.add_argument("--out", default="results/bench")
    args = parser.parse_args()

    sizes = (
        [int(s) for s in args.sizes.split(",")] if args.sizes else list(DEFAULT_SIZES)
    )
    schemes = [SignatureScheme(s.strip()) for s in args.schemes.split(",")]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stage_columns = ",".join(f"{stage}_mean_ms,{stage}_std_ms" for stage in STAGES)
    rows = [f"scheme,firmware_size,runs,{stage_columns},overhead_pct"]
    for scheme in schemes:
        for size in sizes:
            result = harness.run_bench(
                firmware_size=size,
                runs=args.runs,
                warmup=args.warmup,
                seed=args.seed,
                scheme=scheme,
            )
            stats = result.stats()
            cell = out / f"bench-{scheme.value}-{size}.json"
            cell.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
            stage_cells = ",".join(
                f"{stats[stage].mean_ms:.4f},{stats[stage].std_ms:.4f}" for stage in STAGES
            )
            rows.append(
                f"{scheme.value},{size},{args.runs},{stage_cells},{result.overhead_pct:.3f}"
            )
            print(
                f"{scheme.value:>11} {size:>9} B: total "
                f"{stats['total'].mean_ms:7.3f} ms (sigma {stats['total'].std_ms:.3f}), "
                f"overhead {result.overhead_pct:.2f}%"
            )
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    print(f"\nwrote {len(sizes) * len(schemes)} cells and {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
