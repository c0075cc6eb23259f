"""The EL3-style secure monitor: the ordered verify-and-lock load protocol,
session rechecks, and the task admission gate.

Load protocol, in order (a failing step rejects with the reason shown, appends
a VERIFY_REJECT record, and leaves both the counter and the region untouched):

  1. freeze the firmware image as bytes and hash it, once
  2. compare against the manifest hash            -> hash-mismatch
  3. verify the signature over digest||manifest   -> bad-signature
  4. manifest identity matches this monitor       -> malformed-bundle
  5. version strictly above the committed counter -> rollback
  6. every manifest flag is known                 -> unknown-flag
  7. image fits the region                        -> oversize
  8. secure write of the step-1 bytes + lock with
     the step-1 digest, in one critical section
     (no EL1 write can interleave)                -> lock-failed
  9. VERIFY_ACCEPT, counter commit, token issue

Verification and locking happen inside one serialized entry point: the TOCTOU
window between "checked" and "locked" is closed by construction, and the
interposition hooks used by adversarial tests fire outside the critical
section, where a real concurrent writer would sit.
"""

from __future__ import annotations

import secrets
import threading
import time
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

from .crypto import CryptoError, Digest, hash_data, signing_payload, verify
from .mcu import HookPoint, LockEngageError, LockState, McuRegion
from .packaging import (
    FLAG_REQUIRES_LOCK,
    BundleError,
    FirmwarePackage,
    ManifestError,
    canonical_bytes,
    read_bundle,
)
from .state import AuditEvent, AuditRecord, SecureStateStore, read_audit

TASK_ENVELOPE_MAGIC = b"ENC1"


class MonitorError(Exception):
    pass


class ReplayError(Exception):
    """An audit log violates the protocol's replay invariants."""


class Phase(Enum):
    UNPROVISIONED = "unprovisioned"
    IDLE = "idle"
    LOADED_LOCKED = "loaded-locked"
    QUARANTINED = "quarantined"


class RejectionReason(Enum):
    BAD_SIGNATURE = "bad-signature"
    HASH_MISMATCH = "hash-mismatch"
    ROLLBACK = "rollback"
    UNKNOWN_FLAG = "unknown-flag"
    OVERSIZE = "oversize"
    LOCK_FAILED = "lock-failed"
    MALFORMED_BUNDLE = "malformed-bundle"


class ScenarioKind(Enum):
    """The adversarial scenarios the harness runs against this protocol; kept
    here so the CLI can offer them without importing the harness."""

    SIGNED_GOOD = "signed-good"
    TAMPER_BEFORE_VERIFY = "tamper-before-verify"
    TOCTOU_OVERWRITE = "toctou-overwrite"
    UNSIGNED_LOAD = "unsigned-load"
    ROLLBACK_LOAD = "rollback-load"


EXIT_SUCCESS = 0
EXIT_CODES: dict[RejectionReason, int] = {
    RejectionReason.BAD_SIGNATURE: 10,
    RejectionReason.HASH_MISMATCH: 11,
    RejectionReason.ROLLBACK: 12,
    RejectionReason.UNKNOWN_FLAG: 13,
    RejectionReason.LOCK_FAILED: 14,
    RejectionReason.MALFORMED_BUNDLE: 15,
    RejectionReason.OVERSIZE: 16,
}


class AuthToken(NamedTuple):
    """Session-scoped capability bound to one accepted load."""

    token_id: str
    version: int
    digest_hex: str


class StageTimings(NamedTuple):
    verify_ms: float
    lock_ms: float
    total_ms: float


class VerifyResult(NamedTuple):
    accepted: bool
    reason: RejectionReason | None
    detail: str | None
    version: int | None
    digest: Digest | None
    token: AuthToken | None
    timings: StageTimings

    @property
    def exit_code(self) -> int:
        if self.accepted:
            return EXIT_SUCCESS
        assert self.reason is not None
        return EXIT_CODES[self.reason]


class TaskResult(NamedTuple):
    admitted: bool
    reason: str | None
    digest_hex: str | None


class MonitorStatus(NamedTuple):
    phase: Phase
    current_version: int | None
    current_digest: Digest | None


class Monitor:
    """One monitor instance guards one region with one state store."""

    def __init__(
        self,
        store: SecureStateStore,
        region: McuRegion,
        *,
        mcu_id: str,
        known_flags: Sequence[str] = (FLAG_REQUIRES_LOCK,),
    ):
        self.store = store
        self.region = region
        self.mcu_id = mcu_id
        self.known_flags = frozenset(known_flags)
        self.phase = Phase.IDLE
        self._current_version: int | None = None
        self._current_digest: Digest | None = None
        self._token: AuthToken | None = None
        self._serial = threading.RLock()
        if region.audit_sink is None:
            region.audit_sink = self._denied_write_sink

    def _denied_write_sink(self, detail: str) -> None:
        self.store.append_audit(AuditEvent.WRITE_DENIED, detail=detail)

    # -- the load protocol -----------------------------------------------------

    def verify_and_lock(self, package: FirmwarePackage) -> VerifyResult:
        """Run the full ordered load protocol on an in-memory package.

        The image is frozen into one immutable bytes object up front (a no-op
        when it already is bytes); that object alone is hashed, written and
        locked, so a caller mutating package.firmware after verification
        cannot change what gets locked.
        """
        with self._serial:
            t_total = time.perf_counter()
            firmware = bytes(package.firmware)
            manifest = package.manifest
            version = manifest.version
            self.region.fire(HookPoint.PRE_VERIFY)

            t_verify = time.perf_counter()
            digest = hash_data(firmware)
            hash_ok = digest == manifest.firmware_hash
            signature_ok = hash_ok and verify(
                self.store.anchor,
                signing_payload(digest, canonical_bytes(manifest)),
                package.signature,
            )
            verify_ms = _ms_since(t_verify)
            if not hash_ok:
                return self._reject(
                    RejectionReason.HASH_MISMATCH,
                    f"firmware hashes to {digest.hex}, manifest says {manifest.firmware_hash.hex}",
                    version, t_total, verify_ms,
                )
            if not signature_ok:
                return self._reject(
                    RejectionReason.BAD_SIGNATURE,
                    "signature does not verify against the provisioned anchor",
                    version, t_total, verify_ms,
                )
            if manifest.mcu_id != self.mcu_id:
                return self._reject(
                    RejectionReason.MALFORMED_BUNDLE,
                    f"manifest mcu_id {manifest.mcu_id!r} does not match monitor {self.mcu_id!r}",
                    version, t_total, verify_ms,
                )
            if not self.store.check_version(version):
                return self._reject(
                    RejectionReason.ROLLBACK,
                    f"version {version} is not above counter {self.store.nv_counter}",
                    version, t_total, verify_ms,
                )
            unknown = sorted(set(manifest.flags) - self.known_flags)
            if unknown:
                return self._reject(
                    RejectionReason.UNKNOWN_FLAG, f"unknown flags: {unknown}",
                    version, t_total, verify_ms,
                )
            if len(firmware) > self.region.capacity:
                return self._reject(
                    RejectionReason.OVERSIZE,
                    f"{len(firmware)} bytes exceeds region capacity {self.region.capacity}",
                    version, t_total, verify_ms,
                )
            requires_lock = FLAG_REQUIRES_LOCK in manifest.flags

            self.region.fire(HookPoint.POST_VERIFY_PRE_LOCK)

            t_lock = time.perf_counter()
            lock_engaged = False
            with self.region.exclusive():
                snap = self.region.snapshot()
                try:
                    self.region.unlock_for_update()
                    self.region.secure_write(firmware)
                    self.region.lock(digest)
                    lock_engaged = True
                except LockEngageError:
                    if requires_lock:
                        self.region.restore(snap)
            lock_ms = _ms_since(t_lock)
            if not lock_engaged and requires_lock:
                return self._reject(
                    RejectionReason.LOCK_FAILED,
                    "region lock did not engage and the manifest requires it",
                    version, t_total, verify_ms, lock_ms,
                )

            if lock_engaged:
                self.store.append_audit(AuditEvent.LOCK, version=version, digest=digest.hex)
            self.store.append_audit(AuditEvent.VERIFY_ACCEPT, version=version, digest=digest.hex)
            self.store.commit_version(version)

            self._current_version = version
            self._current_digest = digest
            self._token = AuthToken(secrets.token_hex(16), version, digest.hex)
            self.phase = Phase.LOADED_LOCKED
            result = VerifyResult(
                accepted=True, reason=None, detail=None,
                version=version, digest=digest, token=self._token,
                timings=StageTimings(verify_ms, lock_ms, _ms_since(t_total)),
            )
            self.region.fire(HookPoint.POST_LOCK)
            return result

    def verify_bundle(self, path: str | Path) -> VerifyResult:
        """Read a bundle from disk and run the load protocol; parse failures
        reject as malformed-bundle."""
        t0 = time.perf_counter()
        try:
            package = read_bundle(path)
        except (BundleError, ManifestError, CryptoError) as exc:
            with self._serial:
                return self._reject(RejectionReason.MALFORMED_BUNDLE, str(exc), None, t0)
        return self.verify_and_lock(package)

    # -- sessions and tasks ---------------------------------------------------

    def session_start(self) -> bool:
        """Re-hash the region against the digest recorded at lock time.

        Returns True when the monitor is ready to admit tasks; a failed
        recheck quarantines until the next successful load.
        """
        with self._serial:
            if self.phase is Phase.QUARANTINED:
                return False
            if self.phase is not Phase.LOADED_LOCKED:
                raise MonitorError(f"no verified firmware loaded (phase {self.phase.value})")
            if self._region_clean():
                self.store.append_audit(
                    AuditEvent.SESSION_RECHECK,
                    version=self._current_version,
                    digest=self._current_digest.hex if self._current_digest else None,
                    detail="clean",
                )
                return True
            self._quarantine()
            return False

    def submit_task(self, token: AuthToken | None, payload: bytes) -> TaskResult:
        """Gate a task: valid token, loaded-locked phase, clean recheck, and a
        well-formed envelope; admission is recorded against the firmware digest."""
        with self._serial:
            if self.phase is Phase.QUARANTINED:
                return self._deny_task("quarantined")
            if self.phase is not Phase.LOADED_LOCKED or self._token is None:
                return self._deny_task("no-verified-firmware")
            if (
                token is None
                or token.token_id != self._token.token_id
                or token.version != self._token.version
                or token.digest_hex != self._token.digest_hex
            ):
                return self._deny_task("invalid-token")
            if not self._region_clean():
                self._quarantine()
                return self._deny_task("quarantined")
            if (
                not isinstance(payload, (bytes, bytearray))
                or len(payload) <= len(TASK_ENVELOPE_MAGIC)
                or bytes(payload[: len(TASK_ENVELOPE_MAGIC)]) != TASK_ENVELOPE_MAGIC
            ):
                return self._deny_task("bad-envelope")
            digest_hex = self._current_digest.hex  # type: ignore[union-attr]
            self.store.append_audit(
                AuditEvent.TASK_ADMIT, version=self._current_version, digest=digest_hex
            )
            return TaskResult(True, None, digest_hex)

    def status(self) -> MonitorStatus:
        """Read-only snapshot; never mutates anything."""
        with self._serial:
            return MonitorStatus(self.phase, self._current_version, self._current_digest)

    # -- internals -----------------------------------------------------------

    def _reject(
        self,
        reason: RejectionReason,
        detail: str,
        version: int | None,
        t_total: float,
        verify_ms: float = 0.0,
        lock_ms: float = 0.0,
    ) -> VerifyResult:
        """Record VERIFY_REJECT and build the rejected result; the caller holds
        _serial and has changed neither the counter nor the region."""
        self.store.append_audit(
            AuditEvent.VERIFY_REJECT, version=version, reason=reason.value, detail=detail
        )
        return VerifyResult(
            accepted=False, reason=reason, detail=detail,
            version=version, digest=None, token=None,
            timings=StageTimings(verify_ms, lock_ms, _ms_since(t_total)),
        )

    def _region_clean(self) -> bool:
        if self.region.lock_state is LockState.LOCKED:
            return self.region.recheck()
        # tolerated unlocked load (lock fault without requires_lock): compare
        # directly against the verified digest
        return self._current_digest is not None and self.region.digest() == self._current_digest

    def _quarantine(self) -> None:
        self.store.append_audit(
            AuditEvent.SESSION_RECHECK,
            version=self._current_version,
            detail="tampered",
        )
        self.phase = Phase.QUARANTINED
        self._token = None

    def _deny_task(self, reason: str) -> TaskResult:
        self.store.append_audit(AuditEvent.TASK_DENY, reason=reason)
        return TaskResult(False, reason, None)


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


# -- audit replay -------------------------------------------------------------


def replay_protocol_invariants(records: Sequence[AuditRecord]) -> None:
    """Check a full audit log against the protocol's replay invariants:
    accepted versions strictly increase, every LOCK pairs with the accept that
    follows it, and every task admission names the latest accepted digest."""
    last_version = 0
    current_digest: str | None = None
    pending_lock: AuditRecord | None = None
    for record in records:
        if record.event is AuditEvent.LOCK:
            pending_lock = record
        elif record.event is AuditEvent.VERIFY_ACCEPT:
            if record.version is None or record.version <= last_version:
                raise ReplayError(
                    f"record {record.seq}: accepted version {record.version} "
                    f"is not above {last_version}"
                )
            if pending_lock is not None and pending_lock.digest != record.digest:
                raise ReplayError(
                    f"record {record.seq}: accept digest differs from the preceding lock"
                )
            last_version = record.version
            current_digest = record.digest
            pending_lock = None
        elif record.event is AuditEvent.TASK_ADMIT:
            if current_digest is None:
                raise ReplayError(f"record {record.seq}: task admitted before any accept")
            if record.digest != current_digest:
                raise ReplayError(
                    f"record {record.seq}: task admitted against digest {record.digest}, "
                    f"but the last accept was {current_digest}"
                )


def derive_status(state_dir: str | Path) -> MonitorStatus:
    """Reconstruct phase/version/digest by replaying the audit log; used by
    operator tooling, since the emulated region lives only inside a process."""
    state_dir = Path(state_dir)
    if not SecureStateStore.is_provisioned(state_dir):
        return MonitorStatus(Phase.UNPROVISIONED, None, None)
    phase = Phase.IDLE
    version: int | None = None
    digest: Digest | None = None
    for record in read_audit(state_dir):
        if record.event is AuditEvent.VERIFY_ACCEPT:
            phase = Phase.LOADED_LOCKED
            version = record.version
            digest = Digest.from_hex(record.digest) if record.digest else None
        elif record.event is AuditEvent.SESSION_RECHECK and record.detail == "tampered":
            phase = Phase.QUARANTINED
    return MonitorStatus(phase, version, digest)
