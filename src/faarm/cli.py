"""Command line entry point: the parser of all nine subcommands and the one
a boot runs, `faarm verify`. The other eight (key management, vendor
signing, device provisioning, state inspection, the attack harness, the
latency bench and the demo) are in tools, which this module imports only
when one of them is named, so a verify process never compiles them.

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
from typing import NoReturn

from .crypto import CryptoError
from .mcu import DEFAULT_CAPACITY, McuRegion
from .monitor import Monitor
from .packaging import DEFAULT_MCU_ID, BundleError, ManifestError
from .state import SecureStateStore, StateError

EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_USAGE = 2

STATE_ENV_VAR = "FAARM_STATE_DIR"
DEFAULT_STATE_DIR = "./faarm-state"


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


# -- verify ---------------------------------------------------------------------


def _result_json(result, region_dump: dict) -> dict:
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
    payload["region"] = region_dump
    return payload


def cmd_verify(args: argparse.Namespace) -> int:
    store = SecureStateStore.load(_state_dir(args))
    try:
        region = McuRegion(capacity=args.capacity)
        monitor = Monitor(store, region, mcu_id=args.mcu_id)
        result = monitor.verify_bundle(args.bundle)
        if args.json:
            print(json.dumps(_result_json(result, region.dump()), indent=2))
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


# -- parser ----------------------------------------------------------------------


# every subcommand with its help line, in the order help lists them
COMMANDS = (
    ("keygen", "generate a vendor signing key pair"),
    ("sign", "build and sign a firmware bundle"),
    ("provision", "install a trust anchor with the counter at zero"),
    ("verify", "run the verify-and-lock protocol on a bundle"),
    ("status", "show phase, counter, and current firmware"),
    ("log", "print or integrity-check the audit log"),
    ("attack", "run adversarial scenarios against both loaders"),
    ("bench", "measure verify/lock/total latency"),
    ("demo", "before/after transcript: baseline loader vs monitor"),
)


def _add_state_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        default=None,
        help=f"state directory (default ${STATE_ENV_VAR} or {DEFAULT_STATE_DIR})",
    )


def _verify_args(p: argparse.ArgumentParser) -> None:
    _add_state_arg(p)
    p.add_argument("bundle")
    p.add_argument("--mcu-id", default=DEFAULT_MCU_ID)
    p.add_argument("--capacity", type=parse_size, default=DEFAULT_CAPACITY)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The faarm parser. When command names a subcommand, only that one is
    added, since a process runs one; its metavar lists all nine, so the
    usage line and every error it can raise read as the full parser's.
    Otherwise (help, no command, an unknown word) all nine are added. The
    arguments of any subcommand but verify come from tools, imported here
    only when they are needed."""
    parser = argparse.ArgumentParser(
        prog="faarm",
        description="Firmware attestation toolkit: sign, provision, verify-and-lock, attack, bench.",
    )
    named = command in dict(COMMANDS)
    # the full parser takes no metavar: one would also rename the action in
    # the two errors only it raises, for an unknown and a missing command
    metavar = "{" + ",".join(name for name, _ in COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text in COMMANDS:
        if named and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            _verify_args(p)
        else:
            from .tools import ARGUMENTS

            ARGUMENTS[name](p)
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


def run() -> NoReturn:
    """The process entry of `python -m faarm` and the `faarm` script: main,
    then a flush of stdout and stderr, then os._exit, which skips the
    interpreter's teardown (freeing every module and a last collection).
    Nothing is left for it to do: the store writes its audit lines and
    counter slot with write(2) and closes every file before main returns,
    and only the standard streams buffer. If a flush fails, sys.exit hands
    the error to the interpreter, which reports it as it always has. A
    SystemExit or uncaught exception from main also exits the normal way."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
