"""Correctness checks for benchmark ops and for the state they leave behind.

Expected outcomes are written down here, independently of the package: the
exit code of every rejection reason is the documented CLI contract, and
digests are computed with hashlib by the benchmark itself.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

ACCEPT = "accept"

EXIT_CODES = {
    ACCEPT: 0,
    "bad-signature": 10,
    "hash-mismatch": 11,
    "rollback": 12,
    "unknown-flag": 13,
    "lock-failed": 14,
    "malformed-bundle": 15,
    "oversize": 16,
}


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_result(result, expect: str, *, digest: str | None = None) -> str | None:
    """Check an in-process VerifyResult against the expected outcome; returns
    a description of the first mismatch, or None."""
    if expect == ACCEPT:
        if not result.accepted:
            return f"expected accept, got reject {result.reason}: {result.detail}"
        if result.exit_code != EXIT_CODES[ACCEPT]:
            return f"accepted with exit code {result.exit_code}"
        if result.digest is None or result.digest.hex != digest:
            return f"accepted digest {result.digest} differs from manifest hash {digest}"
        return None
    if result.accepted:
        return f"expected reject {expect}, got accept"
    reason = result.reason.value if result.reason is not None else None
    if reason != expect:
        return f"expected reject {expect}, got {reason}: {result.detail}"
    if result.exit_code != EXIT_CODES[expect]:
        return f"reject {expect} has exit code {result.exit_code}, expected {EXIT_CODES[expect]}"
    return None


def check_cli_accept(returncode: int, payload: dict, digest: str) -> str | None:
    """Check one `faarm verify --json` process that must accept: exit status,
    reported outcome, and the reported and region digests."""
    if returncode != EXIT_CODES[ACCEPT]:
        return f"exit status {returncode}: {payload.get('reason')}: {payload.get('detail')}"
    if payload.get("exit_code") != returncode or payload.get("accepted") is not True:
        return f"exit 0 but JSON says accepted={payload.get('accepted')}"
    if payload.get("digest") != digest:
        return f"accepted digest {payload.get('digest')} differs from manifest hash {digest}"
    region = payload.get("region") or {}
    if region.get("digest") != digest or region.get("lock_state") != "locked":
        return (f"region holds {region.get('digest')} ({region.get('lock_state')}), "
                f"expected {digest}")
    return None


def check_region(region, digest: str) -> str | None:
    """The region is locked and holds exactly the image with this digest."""
    if region.lock_state.value != "locked":
        return f"region is {region.lock_state.value}"
    held = sha256_hex(region.read())
    if held != digest:
        return f"region holds {held}, expected {digest}"
    return None


def check_state_dir(state_dir: Path, *, counter: int, events: Counter) -> list[str]:
    """Post-run checks of a state directory: the audit hash chain, the
    protocol replay invariants, the counter against the last accepted
    version, and the exact number of records of each event."""
    from faarm.monitor import replay_protocol_invariants
    from faarm.state import check_audit_chain, read_audit, read_state

    problems = []
    try:
        count = check_audit_chain(state_dir)
        records = read_audit(state_dir)
        replay_protocol_invariants(records)
    except Exception as exc:  # any integrity failure fails the run
        return [f"{state_dir.name}: audit check failed: {exc!r}"]
    seen = Counter(record.event.value for record in records)
    if seen != events:
        problems.append(f"{state_dir.name}: audit events {dict(seen)}, expected {dict(events)}")
    if count != sum(events.values()):
        problems.append(f"{state_dir.name}: chain has {count} records")
    _, nv = read_state(state_dir)
    if nv != counter:
        problems.append(f"{state_dir.name}: counter {nv}, last accepted version {counter}")
    return problems
