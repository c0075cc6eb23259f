"""Operator command line: key management, vendor signing, device provisioning,
verified loads, state inspection, the attack harness, the latency bench, and a
before/after demo.

Exit codes: 0 success, 2 usage or infrastructure error, 10-16 the rejection
reasons of the load protocol (bad-signature 10, hash-mismatch 11, rollback 12,
unknown-flag 13, lock-failed 14, malformed-bundle 15, oversize 16), 1 for
integrity-check failures in `log --check` and defense regressions in `attack`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .crypto import CryptoError, KeyPair, PublicKey, SignatureScheme, keygen
from .mcu import (
    DEFAULT_CAPACITY,
    DEFAULT_NOMINAL_INIT_MS,
    LockMode,
    McuRegion,
    WriteOutcome,
)
from .monitor import Monitor, ReplayError, ScenarioKind, derive_status, replay_protocol_invariants
from .packaging import (
    DEFAULT_MCU_ID,
    FLAG_REQUIRES_LOCK,
    BundleError,
    FirmwarePackage,
    ManifestError,
    build_package,
    write_bundle,
)
from .state import (
    SecureStateStore,
    StateError,
    read_audit,
    read_audit_tail,
    read_state,
    torn_tail_bytes,
    walk_audit_chain,
)

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2

STATE_ENV_VAR = "FAARM_STATE_DIR"
DEFAULT_STATE_DIR = "./faarm-state"


class CliConfig(NamedTuple):
    """Effective run configuration, echoed into machine-readable reports."""

    state_dir: str
    mcu_id: str
    capacity: int
    lock_mode: str
    output: str
    seed: int


class CliError(Exception):
    pass


def parse_size(text: str) -> int:
    """Byte sizes with optional KiB/MiB/GiB suffix (case-insensitive), e.g.
    '64KiB' or '1mib'. Must come out strictly positive."""
    cleaned = text.strip()
    factor = 1
    lowered = cleaned.lower()
    for suffix, mult in (("kib", 1024), ("mib", 1024**2), ("gib", 1024**3)):
        if lowered.endswith(suffix):
            cleaned = cleaned[: -len(suffix)]
            factor = mult
            break
    value = int(cleaned) * factor
    if value < 1:
        raise ValueError(f"size must be positive: {text!r}")
    return value


def _state_dir(args: argparse.Namespace) -> Path:
    return Path(args.state or os.environ.get(STATE_ENV_VAR) or DEFAULT_STATE_DIR)


def _config(args: argparse.Namespace) -> CliConfig:
    return CliConfig(
        state_dir=str(_state_dir(args)) if hasattr(args, "state") else "-",
        mcu_id=getattr(args, "mcu_id", DEFAULT_MCU_ID),
        capacity=getattr(args, "capacity", DEFAULT_CAPACITY),
        lock_mode=getattr(args, "lock_mode", LockMode.HARDWARE_WP.value),
        output="json" if getattr(args, "json", False) else "text",
        seed=getattr(args, "seed", 0),
    )


# -- commands -------------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    scheme = SignatureScheme.from_name(args.scheme)
    if args.seed is not None and not args.test_fixtures:
        raise CliError("--seed is a test-fixture facility; pass --test-fixtures to allow it")
    prefix = Path(args.out)
    key_path = prefix.with_name(prefix.name + ".key")
    pub_path = prefix.with_name(prefix.name + ".pub")
    for path in (key_path, pub_path):
        if path.exists() and not args.force:
            raise CliError(f"{path} exists; pass --force to overwrite")
    pair = keygen(scheme, seed=args.seed, allow_seeded=args.test_fixtures)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(key_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with os.fdopen(fd, "wb") as fh:
        fh.write(pair.to_file_bytes())
    pub_path.write_bytes(pair.public.to_file_bytes())
    print(f"wrote {key_path} (private) and {pub_path} (public), scheme {scheme.value}")
    return EXIT_OK


def cmd_sign(args: argparse.Namespace) -> int:
    firmware = Path(args.firmware).read_bytes()
    pair = KeyPair.from_file_bytes(Path(args.key).read_bytes())
    flags = tuple(args.flag) if args.flag else (FLAG_REQUIRES_LOCK,)
    if args.no_flags:
        flags = ()
    package = build_package(
        firmware,
        version=args.version,
        mcu_id=args.mcu_id,
        key=pair,
        flags=flags,
        timestamp=args.timestamp,
    )
    out = write_bundle(package, args.out)
    print(
        f"signed {len(firmware)} bytes as version {args.version} "
        f"for {args.mcu_id} -> {out}"
    )
    return EXIT_OK


def cmd_provision(args: argparse.Namespace) -> int:
    anchor = PublicKey.from_file_bytes(Path(args.anchor).read_bytes())
    store = SecureStateStore.provision(anchor, _state_dir(args), reset=args.reset)
    try:
        print(
            f"provisioned {store.path} with {anchor.scheme.value} anchor, counter=0"
        )
    finally:
        store.close()
    return EXIT_OK


def _result_json(result, region: McuRegion | None = None) -> dict:
    payload = {
        "accepted": result.accepted,
        "reason": result.reason.value if result.reason else None,
        "detail": result.detail,
        "version": result.version,
        "digest": result.digest.hex if result.digest else None,
        "exit_code": result.exit_code,
        "timings_ms": result.timings.by_stage(),
    }
    if result.token is not None:
        payload["token"] = {
            "token_id": result.token.token_id,
            "version": result.token.version,
            "digest": result.token.digest_hex,
        }
    if region is not None:
        payload["region"] = region.dump()
    return payload


def cmd_verify(args: argparse.Namespace) -> int:
    store = SecureStateStore.load(_state_dir(args))
    try:
        region = McuRegion(capacity=args.capacity, lock_mode=LockMode(args.lock_mode))
        monitor = Monitor(store, region, mcu_id=args.mcu_id)
        result = monitor.verify_bundle(args.bundle)
        if args.dump_region:
            Path(args.dump_region).write_text(json.dumps(region.dump(), indent=2) + "\n")
        if args.json:
            print(json.dumps(_result_json(result, region), indent=2))
        elif result.accepted:
            print(
                f"SUCCESS: version {result.version} loaded and locked, "
                f"digest {result.digest.hex}"
            )
        if not result.accepted and not args.json:
            print(f"reject: {result.reason.value}: {result.detail}", file=sys.stderr)
        return result.exit_code
    finally:
        store.close()


def cmd_status(args: argparse.Namespace) -> int:
    state_dir = _state_dir(args)
    status = derive_status(state_dir)
    torn = torn_tail_bytes(state_dir)
    nv = None
    anchor_scheme = None
    if SecureStateStore.is_provisioned(state_dir):
        anchor, nv = read_state(state_dir)
        anchor_scheme = anchor.scheme.value
    if args.json:
        print(
            json.dumps(
                {
                    "phase": status.phase.value,
                    "current_version": status.current_version,
                    "current_digest": status.current_digest.hex
                    if status.current_digest
                    else None,
                    "nv_counter": nv,
                    "anchor_scheme": anchor_scheme,
                    "torn_tail_bytes": torn,
                },
                indent=2,
            )
        )
    else:
        print(f"phase: {status.phase.value}")
        if anchor_scheme is not None:
            print(f"anchor: {anchor_scheme}")
            print(f"nv_counter: {nv}")
        if status.current_version is not None:
            print(f"current_version: {status.current_version}")
            print(f"current_digest: {status.current_digest.hex}")
        if torn:
            print(f"torn_tail_bytes: {torn}")
    return EXIT_OK


def cmd_log(args: argparse.Namespace) -> int:
    state_dir = _state_dir(args)
    if args.check:
        _, nv = read_state(state_dir)  # outside the try: unprovisioned is exit 2, as in verify
        chain = walk_audit_chain(state_dir)
        try:
            try:
                count, last_accept = replay_protocol_invariants(chain)
            except ReplayError:
                for _ in chain:  # a broken link further on is the error to report
                    pass
                raise
            # a last accept above the counter is a crash before its commit,
            # which the next load rolls forward; below it, records are missing
            if last_accept < nv:
                raise ReplayError(
                    f"the last logged accept is version {last_accept}, "
                    f"below the committed counter {nv}"
                )
        except Exception as exc:
            print(f"audit check FAILED: {exc}", file=sys.stderr)
            return EXIT_INTEGRITY
        print(f"chain OK, {count} records")
        torn = torn_tail_bytes(state_dir)
        if torn:
            print(f"note: the log ends in a torn line of {torn} bytes; "
                  "the next load cuts it off")
        return EXIT_OK
    if args.tail is not None and args.tail < 0:
        raise CliError(f"-n must be a non-negative record count, got {args.tail}")
    if args.tail is None:
        records = read_audit(state_dir)
    else:
        records = read_audit_tail(state_dir, args.tail)
    for record in records:
        if args.json:
            print(record.to_line().decode("utf-8"))
        else:
            fields = [f"#{record.seq}", record.time, record.event.value]
            if record.version is not None:
                fields.append(f"v{record.version}")
            if record.reason:
                fields.append(record.reason)
            if record.digest:
                fields.append(record.digest[:16])
            if record.detail:
                fields.append(record.detail)
            print(" ".join(fields))
    return EXIT_OK


# The harness is imported only by the commands that run it, so that a
# `faarm verify` process does not load (and compile) it on the boot path.


def cmd_attack(args: argparse.Namespace) -> int:
    from . import harness
    from .harness import LoaderMode

    if args.scenario:
        kinds = [ScenarioKind(s) for s in args.scenario]
    else:
        kinds = list(harness.ALL_KINDS)
    if args.mode == "both":
        modes = [LoaderMode.BASELINE, LoaderMode.FAARM]
    else:
        modes = [LoaderMode(args.mode)]
    try:
        reports = harness.run_matrix(
            kinds=kinds,
            modes=modes,
            trials=args.trials,
            seed=args.seed,
            lock_mode=LockMode(args.lock_mode),
            firmware_size=args.firmware_size,
            scheme=SignatureScheme.from_name(args.scheme),
        )
    except harness.HarnessError as exc:
        raise CliError(str(exc)) from None
    config = _config(args)._asdict()
    config.update({"trials": args.trials, "firmware_size": args.firmware_size,
                   "scheme": args.scheme})
    if args.csv:
        Path(args.csv).write_text(harness.latency_csv(reports))
    if args.json:
        print(harness.reports_to_json(reports, config=config), end="")
    else:
        print(harness.render_matrix(reports), end="")
    regression = any(
        r.scenario.mode is LoaderMode.FAARM
        and r.scenario.kind is not ScenarioKind.SIGNED_GOOD
        and r.attack_success_count > 0
        for r in reports
    )
    infra = any(r.infra_failures for r in reports)
    return EXIT_INTEGRITY if (regression or infra) else EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    from . import harness

    try:
        result = harness.run_bench(
            firmware_size=args.size,
            runs=args.runs,
            warmup=args.warmup,
            seed=args.seed,
            scheme=SignatureScheme.from_name(args.scheme),
            lock_mode=LockMode(args.lock_mode),
            nominal_init_ms=args.nominal_init_ms,
        )
    except harness.HarnessError as exc:
        raise CliError(str(exc)) from None
    if args.csv:
        Path(args.csv).write_text(harness.bench_csv(result))
    if args.json:
        config = _config(args)._asdict()
        print(harness.bench_to_json(result, config=config), end="")
    else:
        print(harness.render_bench(result), end="")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    import tempfile

    from .harness import HARNESS_TIMESTAMP

    scheme = SignatureScheme.from_name(args.scheme)
    rng_fw = bytes(range(256)) * 16  # 4 KiB deterministic image
    pair = keygen(scheme, seed=2024, allow_seeded=True)

    print("== baseline loader (no verification, no lock) ==")
    region = McuRegion()
    tampered = bytearray(rng_fw)
    tampered[7] ^= 0xFF
    region.el1_write(0, bytes(tampered))
    print(f"vendor image: {len(rng_fw)} bytes")
    print("attacker flips one byte in transit and loads the image directly")
    print(f"region digest now {region.digest().hex[:16]}... (attacker-controlled)")
    print("baseline loader reports: firmware ready")
    print("outcome: tampered firmware would execute\n")

    print("== faarm monitor (verify-and-lock) ==")
    with tempfile.TemporaryDirectory(prefix="faarm-demo-") as tmp:
        store = SecureStateStore.provision(pair.public, Path(tmp) / "state", durable=False)
        try:
            region = McuRegion()
            monitor = Monitor(store, region, mcu_id=args.mcu_id)
            print(f"provisioned anchor ({scheme.value}), counter=0")

            good = build_package(
                rng_fw, version=1, mcu_id=args.mcu_id, key=pair,
                timestamp=HARNESS_TIMESTAMP,
            )
            bad_image = FirmwarePackage(bytes(tampered), good.manifest, good.signature)
            result = monitor.verify_and_lock(bad_image)
            print(
                f"tampered image  -> REJECT: {result.reason.value} "
                f"(exit {result.exit_code})"
            )

            forged = build_package(
                bytes(tampered), version=1, mcu_id=args.mcu_id,
                key=keygen(scheme, seed=999, allow_seeded=True),
                timestamp=HARNESS_TIMESTAMP,
            )
            result = monitor.verify_and_lock(forged)
            print(
                f"unsigned image  -> REJECT: {result.reason.value} "
                f"(exit {result.exit_code})"
            )

            result = monitor.verify_and_lock(good)
            print(
                f"genuine image   -> SUCCESS: version {result.version} loaded, "
                f"region locked, digest {result.digest.hex[:16]}..."
            )

            outcome = region.el1_write(0, b"\xde\xad\xbe\xef")
            print(f"el1 overwrite   -> {outcome.value} (lock held)")

            stale = build_package(
                rng_fw, version=1, mcu_id=args.mcu_id, key=pair,
                timestamp=HARNESS_TIMESTAMP,
            )
            result = monitor.verify_and_lock(stale)
            print(
                f"replayed v1     -> REJECT: {result.reason.value} "
                f"(exit {result.exit_code})"
            )

            ready = monitor.session_start()
            print(f"session recheck -> {'ready' if ready else 'quarantined'}")
            print("outcome: only authentic, newer firmware runs; the region stays locked")
            blocked = not ready or outcome is not WriteOutcome.APPLIED
        finally:
            store.close()
    return EXIT_OK if blocked else EXIT_INTEGRITY


# -- parser ----------------------------------------------------------------------


def _add_state_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        default=None,
        help=f"state directory (default ${STATE_ENV_VAR} or {DEFAULT_STATE_DIR})",
    )


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The faarm parser. Every subcommand is listed, so the top-level help
    and its errors never change; when command is given, only that
    subcommand's arguments are filled in, since a process runs one."""
    parser = argparse.ArgumentParser(
        prog="faarm",
        description="Firmware attestation toolkit: sign, provision, verify-and-lock, attack, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_text)
        return p if command is None or command == name else None

    p = add("keygen", "generate a vendor signing key pair")
    if p is not None:
        p.add_argument("scheme", choices=[s.value for s in SignatureScheme])
        p.add_argument("--out", required=True, help="output path prefix (.key/.pub appended)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--test-fixtures", action="store_true",
                       help="allow seeded (reproducible) keygen; never for production keys")
        p.add_argument("--force", action="store_true")
        p.set_defaults(func=cmd_keygen)

    p = add("sign", "build and sign a firmware bundle")
    if p is not None:
        p.add_argument("--firmware", required=True)
        p.add_argument("--version", required=True, type=int)
        p.add_argument("--mcu-id", default=DEFAULT_MCU_ID)
        p.add_argument("--flag", action="append", default=None,
                       help=f"manifest flag (repeatable; default {FLAG_REQUIRES_LOCK})")
        p.add_argument("--no-flags", action="store_true", help="emit an empty flag set")
        p.add_argument("--timestamp", default=None, help="RFC-3339 UTC instant (default: now)")
        p.add_argument("--key", required=True, help="vendor private key file")
        p.add_argument("--out", required=True,
                       help="bundle directory, or single-file container if it ends in .pkg")
        p.set_defaults(func=cmd_sign)

    p = add("provision", "install a trust anchor with the counter at zero")
    if p is not None:
        _add_state_arg(p)
        p.add_argument("--anchor", required=True, help="vendor public key file")
        p.add_argument("--reset", action="store_true",
                       help="archive any existing state and start over")
        p.set_defaults(func=cmd_provision)

    p = add("verify", "run the verify-and-lock protocol on a bundle")
    if p is not None:
        _add_state_arg(p)
        p.add_argument("bundle")
        p.add_argument("--mcu-id", default=DEFAULT_MCU_ID)
        p.add_argument("--capacity", type=parse_size, default=DEFAULT_CAPACITY)
        p.add_argument("--lock-mode", choices=[m.value for m in LockMode],
                       default=LockMode.HARDWARE_WP.value)
        p.add_argument("--dump-region", default=None, help="write a region dump JSON here")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_verify)

    p = add("status", "show phase, counter, and current firmware")
    if p is not None:
        _add_state_arg(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_status)

    p = add("log", "print or integrity-check the audit log")
    if p is not None:
        _add_state_arg(p)
        p.add_argument("--check", action="store_true",
                       help="verify the hash chain and protocol replay invariants")
        p.add_argument("-n", "--tail", type=int, default=None, help="show only the last N records")
        p.add_argument("--json", action="store_true", help="print raw JSON record lines")
        p.set_defaults(func=cmd_log)

    p = add("attack", "run adversarial scenarios against both loaders")
    if p is not None:
        p.add_argument("--scenario", action="append", default=None,
                       choices=[k.value for k in ScenarioKind],
                       help="scenario to run (repeatable; default: all)")
        p.add_argument("--mode", choices=["baseline", "faarm", "both"], default="both")
        p.add_argument("--trials", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--firmware-size", type=parse_size, default=4096)
        p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                       default=SignatureScheme.ED25519.value)
        p.add_argument("--lock-mode", choices=[m.value for m in LockMode],
                       default=LockMode.HARDWARE_WP.value)
        p.add_argument("--csv", default=None, help="write per-trial latency samples here")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_attack)

    p = add("bench", "measure verify/lock/total latency")
    if p is not None:
        p.add_argument("--size", type=parse_size, default=1024 * 1024,
                       help="firmware size in bytes; KiB/MiB suffixes accepted (default 1MiB)")
        p.add_argument("--runs", type=int, default=100)
        p.add_argument("--warmup", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                       default=SignatureScheme.ECDSA_P256.value)
        p.add_argument("--lock-mode", choices=[m.value for m in LockMode],
                       default=LockMode.HARDWARE_WP.value)
        p.add_argument("--nominal-init-ms", type=float, default=DEFAULT_NOMINAL_INIT_MS)
        p.add_argument("--csv", default=None, help="write raw latency samples here")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_bench)

    p = add("demo", "before/after transcript: baseline loader vs monitor")
    if p is not None:
        p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                       default=SignatureScheme.ED25519.value)
        p.add_argument("--mcu-id", default=DEFAULT_MCU_ID)
        p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes a first word that is not an option as the subcommand
    command = argv[0] if argv and not argv[0].startswith("-") else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        CryptoError,
        StateError,
        BundleError,
        ManifestError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
