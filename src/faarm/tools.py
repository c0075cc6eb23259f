"""The operator subcommands: key management, vendor signing, device
provisioning, state inspection, the attack harness, the latency bench, and a
before/after demo, each with its argument spec.

They live apart from cli, which holds only the verify command, so that a
`faarm verify` process never imports or compiles them: cli.build_parser
imports this module only when one of these commands is named, or for the full
parser. Exit codes are cli's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from pathlib import Path
from typing import Iterable

from .cli import EXIT_INTEGRITY, EXIT_OK, CliError, _add_state_arg, _state_dir, parse_size
from .crypto import Digest, KeyPair, PublicKey, SignatureScheme, keygen
from .mcu import McuRegion, WriteOutcome
from .monitor import Monitor, MonitorStatus, Phase, ReplayError, replay_protocol_invariants
from .packaging import (
    DEFAULT_MCU_ID,
    FLAG_REQUIRES_LOCK,
    FirmwarePackage,
    build_package,
    write_bundle,
)
from .state import (
    AuditEvent,
    AuditRecord,
    NotProvisionedError,
    SecureStateStore,
    audit_backwards,
    audit_forwards,
    read_state,
    walk_audit_chain,
)


# status and log read the audit log through state's readers, which alone know
# where its torn tail begins; nothing here writes.


def derive_status(state_dir: str | Path) -> MonitorStatus:
    """Reconstruct phase/version/digest from the audit log; used by operator
    tooling, since the emulated region lives only inside a process. Reads
    backwards to the last VERIFY_ACCEPT, so the cost grows with the records
    after it, not with the log: a tampered SESSION_RECHECK among them means
    the device is quarantined."""
    with audit_backwards(state_dir) as (_, records):
        return _status_from(state_dir, records)


def _status_from(state_dir: str | Path, records: Iterable[AuditRecord]) -> MonitorStatus:
    """derive_status over the log's records, newest first."""
    if not SecureStateStore.is_provisioned(state_dir):
        return MonitorStatus(Phase.UNPROVISIONED, None, None)
    tampered = False
    for record in records:
        if record.event is AuditEvent.VERIFY_ACCEPT:
            phase = Phase.QUARANTINED if tampered else Phase.LOADED_LOCKED
            digest = Digest.from_hex(record.digest) if record.digest else None
            return MonitorStatus(phase, record.version, digest)
        if record.event is AuditEvent.SESSION_RECHECK and record.detail == "tampered":
            tampered = True
    return MonitorStatus(Phase.QUARANTINED if tampered else Phase.IDLE, None, None)


# -- commands -------------------------------------------------------------------


def cmd_keygen(args: argparse.Namespace) -> int:
    scheme = SignatureScheme(args.scheme)
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
        os.fchmod(fd, 0o600)  # open's mode applies only to a file it creates
        fh.write(pair.to_file_bytes())
    pub_path.write_bytes(pair.public.to_file_bytes())
    print(f"wrote {key_path} (private) and {pub_path} (public), scheme {scheme.value}")
    return EXIT_OK


def cmd_sign(args: argparse.Namespace) -> int:
    firmware = Path(args.firmware).read_bytes()
    pair = KeyPair.from_file_bytes(Path(args.key).read_bytes())
    flags = () if args.no_flags else tuple(args.flag or (FLAG_REQUIRES_LOCK,))
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


def cmd_status(args: argparse.Namespace) -> int:
    state_dir = _state_dir(args)
    with audit_backwards(state_dir) as (torn, records):
        status = _status_from(state_dir, records)
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
        try:
            _, nv = read_state(state_dir)
            with walk_audit_chain(state_dir) as (torn, chain):
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
        except NotProvisionedError:
            raise  # a usage error, exit 2, as in verify
        except Exception as exc:
            print(f"audit check FAILED: {exc}", file=sys.stderr)
            return EXIT_INTEGRITY
        print(f"chain OK, {count} records")
        if torn:
            print(f"note: the log ends in a torn line of {torn} bytes; "
                  "the next load cuts it off")
        return EXIT_OK
    if args.tail is not None and args.tail < 0:
        raise CliError(f"-n must be a non-negative record count, got {args.tail}")
    # the full listing prints each record as it is read, so it holds one at a
    # time; -n reads back only as far as it prints
    reader = audit_forwards if args.tail is None else audit_backwards
    with reader(state_dir) as (_, records):
        if args.tail is not None:
            records = reversed(list(islice(records, args.tail)))
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


# The harness is imported only by the commands that run it, so that status
# and log processes do not load (and compile) it.


def cmd_attack(args: argparse.Namespace) -> int:
    from . import harness
    from .harness import LoaderMode, ScenarioKind

    kinds = [ScenarioKind(s) for s in args.scenario] if args.scenario else harness.ALL_KINDS
    modes = tuple(LoaderMode) if args.mode == "both" else (LoaderMode(args.mode),)
    try:
        reports = harness.run_matrix(
            kinds=kinds,
            modes=modes,
            trials=args.trials,
            seed=args.seed,
            firmware_size=args.firmware_size,
            scheme=SignatureScheme(args.scheme),
        )
    except harness.HarnessError as exc:
        raise CliError(str(exc)) from None
    if args.csv:
        Path(args.csv).write_text(harness.latency_csv(reports))
    if args.json:
        print(harness.reports_to_json(reports), end="")
    else:
        print(harness.render_matrix(reports), end="")
    # an attack that beats the monitor, or a genuine image it fails to load
    regression = any(
        r.scenario.mode is LoaderMode.FAARM
        and (
            r.legitimate_success_count < r.scenario.trials
            if r.scenario.kind is ScenarioKind.SIGNED_GOOD
            else r.attack_success_count > 0
        )
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
            scheme=SignatureScheme(args.scheme),
        )
    except harness.HarnessError as exc:
        raise CliError(str(exc)) from None
    if args.csv:
        Path(args.csv).write_text(harness.bench_csv(result))
    if args.json:
        print(harness.bench_to_json(result), end="")
    else:
        print(harness.render_bench(result), end="")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    import tempfile

    from .harness import HARNESS_TIMESTAMP, BaselineLoader

    scheme = SignatureScheme(args.scheme)
    rng_fw = bytes(range(256)) * 16  # 4 KiB deterministic image
    pair = keygen(scheme, seed=2024, allow_seeded=True)
    good = build_package(
        rng_fw, version=1, mcu_id=DEFAULT_MCU_ID, key=pair, timestamp=HARNESS_TIMESTAMP,
    )
    tampered = bytearray(rng_fw)
    tampered[7] ^= 0xFF
    bad_image = FirmwarePackage(bytes(tampered), good.manifest, good.signature)

    print("== baseline loader (no verification, no lock) ==")
    result = BaselineLoader(McuRegion()).verify_and_lock(bad_image)
    print(f"vendor image: {len(rng_fw)} bytes")
    print("attacker flips one byte in transit and loads the image directly")
    print(f"region digest now {result.digest.hex[:16]}... (attacker-controlled)")
    print("baseline loader reports: firmware ready")
    print("outcome: tampered firmware would execute\n")

    print("== faarm monitor (verify-and-lock) ==")
    with tempfile.TemporaryDirectory(prefix="faarm-demo-") as tmp:
        store = SecureStateStore.provision(pair.public, Path(tmp) / "state", durable=False)
        try:
            region = McuRegion()
            monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
            print(f"provisioned anchor ({scheme.value}), counter=0")

            result = monitor.verify_and_lock(bad_image)
            print(
                f"tampered image  -> REJECT: {result.reason.value} "
                f"(exit {result.exit_code})"
            )

            forged = build_package(
                bytes(tampered), version=1, mcu_id=DEFAULT_MCU_ID,
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
                rng_fw, version=1, mcu_id=DEFAULT_MCU_ID, key=pair,
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


# -- argument specs ----------------------------------------------------------------


def _keygen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scheme", choices=[s.value for s in SignatureScheme])
    p.add_argument("--out", required=True, help="output path prefix (.key/.pub appended)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-fixtures", action="store_true",
                   help="allow seeded (reproducible) keygen; never for production keys")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_keygen)


def _sign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--firmware", required=True)
    p.add_argument("--version", required=True, type=int)
    p.add_argument("--mcu-id", default=DEFAULT_MCU_ID)
    flags = p.add_mutually_exclusive_group()
    flags.add_argument("--flag", action="append", default=None,
                       help=f"manifest flag (repeatable; default {FLAG_REQUIRES_LOCK})")
    flags.add_argument("--no-flags", action="store_true", help="emit an empty flag set")
    p.add_argument("--timestamp", default=None, help="RFC-3339 UTC instant (default: now)")
    p.add_argument("--key", required=True, help="vendor private key file")
    p.add_argument("--out", required=True,
                   help="bundle directory, or single-file container if it ends in .pkg")
    p.set_defaults(func=cmd_sign)


def _provision_args(p: argparse.ArgumentParser) -> None:
    _add_state_arg(p)
    p.add_argument("--anchor", required=True, help="vendor public key file")
    p.add_argument("--reset", action="store_true",
                   help="archive any existing state and start over")
    p.set_defaults(func=cmd_provision)


def _status_args(p: argparse.ArgumentParser) -> None:
    _add_state_arg(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_status)


def _log_args(p: argparse.ArgumentParser) -> None:
    _add_state_arg(p)
    p.add_argument("--check", action="store_true",
                   help="verify the hash chain and protocol replay invariants")
    p.add_argument("-n", "--tail", type=int, default=None, help="show only the last N records")
    p.add_argument("--json", action="store_true", help="print each record as faarm writes it")
    p.set_defaults(func=cmd_log)


# attack and bench take their defaults from the harness, which alone states them


def _attack_args(p: argparse.ArgumentParser) -> None:
    from .harness import Scenario, ScenarioKind

    p.add_argument("--scenario", action="append", default=None,
                   choices=[k.value for k in ScenarioKind],
                   help="scenario to run (repeatable; default: all)")
    p.add_argument("--mode", choices=["baseline", "faarm", "both"], default="both")
    p.add_argument("--trials", type=int, default=Scenario.trials)
    p.add_argument("--seed", type=int, default=Scenario.seed)
    p.add_argument("--firmware-size", type=parse_size, default=Scenario.firmware_size)
    p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                   default=Scenario.scheme.value)
    p.add_argument("--csv", default=None, help="write per-trial latency samples here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attack)


def _bench_args(p: argparse.ArgumentParser) -> None:
    from .harness import run_bench

    defaults = run_bench.__kwdefaults__
    size = defaults["firmware_size"]
    p.add_argument("--size", type=parse_size, default=size,
                   help=f"firmware size in bytes; KiB/MiB suffixes accepted "
                        f"(default {size >> 20}MiB)")
    p.add_argument("--runs", type=int, default=defaults["runs"])
    p.add_argument("--warmup", type=int, default=defaults["warmup"])
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                   default=defaults["scheme"].value)
    p.add_argument("--csv", default=None, help="write raw latency samples here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)


def _demo_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=[s.value for s in SignatureScheme],
                   default=SignatureScheme.ED25519.value)
    p.set_defaults(func=cmd_demo)


# the argument spec of each subcommand here, by name, for cli.build_parser
ARGUMENTS = {
    "keygen": _keygen_args,
    "sign": _sign_args,
    "provision": _provision_args,
    "status": _status_args,
    "log": _log_args,
    "attack": _attack_args,
    "bench": _bench_args,
    "demo": _demo_args,
}
