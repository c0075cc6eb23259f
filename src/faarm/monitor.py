"""The EL3-style secure monitor: the ordered verify-and-lock load protocol,
session rechecks, and the task admission gate.

Load protocol, in order (a failing step rejects with the reason shown, appends
a VERIFY_REJECT record, and leaves both the counter and the region untouched):

  1. parse the bundle (verify_bundle only)         -> malformed-bundle
  2. image fits the region, by its length alone   -> oversize
     (checked before the image is read or copied)
  3. freeze the firmware image as bytes and hash it, once
  4. compare against the manifest hash            -> hash-mismatch
  5. verify the signature over digest||manifest   -> bad-signature
  6. manifest identity matches this monitor       -> malformed-bundle
  7. version strictly above the committed counter -> rollback
  8. every manifest flag is known                 -> unknown-flag
  9. secure write of the step-3 bytes + lock with
     the step-3 digest, in one critical section
     (no EL1 write can interleave)                -> lock-failed
 10. VERIFY_ACCEPT, counter commit, token issue
     (if a record or the commit raises, the region is
     restored to its pre-step-9 snapshot and the error
     propagates)

StageTimings splits each load into three stages: verify_ms spans the step-3
hash and steps 4-8 (the signature and the three policy gates take
microseconds of it), lock_ms spans step 9, and total_ms runs from entry to
the built result, so it alone includes the audit appends, the counter commit
and, for verify_bundle, the step-1 read and parse, accepted or rejected. A
load rejected at step 1 or 2 has verify_ms == lock_ms == 0.

The size gate comes first because it needs only the image's length, which
the bundle's author already knows, so it tells a prober nothing about the
gates behind it, and an oversize image costs no read, hash or signature check.

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
from typing import Iterable, NamedTuple

from .crypto import CryptoError, Digest, hash_data, signing_payload, verify
from .mcu import HookPoint, LockEngageError, LockState, McuRegion
from .packaging import (
    FLAG_REQUIRES_LOCK,
    BundleError,
    FirmwarePackage,
    ImageTooLarge,
    ManifestError,
    canonical_bytes,
    read_bundle,
)
from .state import AuditEvent, AuditRecord, SecureStateStore, iter_audit_backwards

TASK_ENVELOPE_MAGIC = b"ENC1"
KNOWN_FLAGS = frozenset({FLAG_REQUIRES_LOCK})  # a manifest flag outside these rejects the load


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
    """One load's stage latencies; the module docstring says what each spans."""

    verify_ms: float
    lock_ms: float
    total_ms: float

    def by_stage(self) -> dict[str, float]:
        """The timings keyed by stage name, in field order."""
        return dict(zip(STAGES, self))


# the stage names that output uses as keys and headers: the fields without "_ms"
STAGES = tuple(name.removesuffix("_ms") for name in StageTimings._fields)


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
    ):
        self.store = store
        self.region = region
        self.mcu_id = mcu_id
        self.phase = Phase.IDLE
        self._current_version: int | None = None
        self._current_digest: Digest | None = None
        self._token: AuthToken | None = None
        self._serial = threading.RLock()
        region.audit_sink = self._denied_write_sink

    def _denied_write_sink(self, detail: str) -> None:
        self.store.append_audit(AuditEvent.WRITE_DENIED, detail=detail)

    # -- the load protocol -----------------------------------------------------

    def verify_and_lock(self, package: FirmwarePackage) -> VerifyResult:
        """Run the full ordered load protocol on an in-memory package.

        An image that fits the region is frozen into one immutable bytes
        object up front (a no-op when it already is bytes); that object alone
        is hashed, written and locked, so a caller mutating package.firmware
        after verification cannot change what gets locked. An oversize image
        is rejected from its length and never copied.
        """
        return self._load(package, time.perf_counter())

    def verify_bundle(self, path: str | Path) -> VerifyResult:
        """Read a bundle from disk and run the load protocol; parse failures
        reject as malformed-bundle, and an image over the region's capacity
        rejects as oversize without being read. total_ms includes the read."""
        t_total = time.perf_counter()
        version = None
        try:
            package = read_bundle(path, max_firmware=self.region.capacity)
        except (BundleError, ManifestError, CryptoError) as exc:
            rejection = RejectionReason.MALFORMED_BUNDLE, str(exc)
        except ImageTooLarge as exc:
            rejection, version = self._check_size(exc.size), exc.manifest.version
        else:
            return self._load(package, t_total)
        with self._serial:
            return self._reject(*rejection, version, t_total)

    def _load(self, package: FirmwarePackage, t_total: float) -> VerifyResult:
        """The load protocol from step 2 on, for both entry points; t_total is
        the perf_counter() reading taken when the entry point was called."""
        with self._serial:
            manifest = package.manifest
            version = manifest.version
            firmware = package.firmware
            size = len(firmware)
            if size <= self.region.capacity:
                firmware = bytes(firmware)
                size = len(firmware)  # the frozen length is the one gated
            self.region.fire(HookPoint.PRE_VERIFY)
            verify_ms = lock_ms = 0.0

            rejection = self._check_size(size)
            if rejection is None:
                t_verify = time.perf_counter()
                digest = hash_data(firmware)
                rejection = self._check_gates(digest, package)
                verify_ms = _ms_since(t_verify)
            if rejection is None:
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
                    rejection = (
                        RejectionReason.LOCK_FAILED,
                        "region lock did not engage and the manifest requires it",
                    )
            if rejection is not None:
                return self._reject(*rejection, version, t_total, verify_ms, lock_ms)

            try:
                if lock_engaged:
                    self.store.append_audit(AuditEvent.LOCK, version=version, digest=digest.hex)
                self.store.append_audit(
                    AuditEvent.VERIFY_ACCEPT, version=version, digest=digest.hex
                )
                self.store.commit_version(version)
            except BaseException:
                # the region goes back to the image status() describes; the
                # next load decides from the log whether this one was accepted
                self.region.restore(snap)
                raise

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

    def _check_size(self, size: int) -> tuple[RejectionReason, str] | None:
        """The size gate, which needs the image's length alone."""
        cap = self.region.capacity
        if size > cap:
            return RejectionReason.OVERSIZE, f"{size} bytes exceeds region capacity {cap}"
        return None

    def _check_gates(
        self, digest: Digest, package: FirmwarePackage
    ) -> tuple[RejectionReason, str] | None:
        """The gates after the size gate, in protocol order: the first one that
        fails, as (reason, detail), or None when the image may be locked."""
        manifest = package.manifest
        if digest != manifest.firmware_hash:
            return RejectionReason.HASH_MISMATCH, (
                f"firmware hashes to {digest.hex}, manifest says {manifest.firmware_hash.hex}"
            )
        payload = signing_payload(digest, canonical_bytes(manifest))
        if not verify(self.store.anchor, payload, package.signature):
            return RejectionReason.BAD_SIGNATURE, (
                "signature does not verify against the provisioned anchor"
            )
        if manifest.mcu_id != self.mcu_id:
            return RejectionReason.MALFORMED_BUNDLE, (
                f"manifest mcu_id {manifest.mcu_id!r} does not match monitor {self.mcu_id!r}"
            )
        if not self.store.check_version(manifest.version):
            return RejectionReason.ROLLBACK, (
                f"version {manifest.version} is not above counter {self.store.nv_counter}"
            )
        unknown = sorted(set(manifest.flags) - KNOWN_FLAGS)
        if unknown:
            return RejectionReason.UNKNOWN_FLAG, f"unknown flags: {unknown}"
        return None

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


def replay_protocol_invariants(records: Iterable[AuditRecord]) -> tuple[int, int]:
    """Check a full audit log against the protocol's replay invariants:
    accepted versions strictly increase, every LOCK pairs with the accept that
    follows it, and every task admission names the latest accepted digest.
    Returns the number of records and the last accepted version (0 when
    there is none)."""
    count = 0
    last_version = 0
    current_digest: str | None = None
    pending_lock: AuditRecord | None = None
    for count, record in enumerate(records, start=1):
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
    return count, last_version


def derive_status(state_dir: str | Path) -> MonitorStatus:
    """Reconstruct phase/version/digest from the audit log; used by operator
    tooling, since the emulated region lives only inside a process. Reads
    backwards to the last VERIFY_ACCEPT, so the cost grows with the records
    after it, not with the log: a tampered SESSION_RECHECK among them means
    the device is quarantined."""
    state_dir = Path(state_dir)
    if not SecureStateStore.is_provisioned(state_dir):
        return MonitorStatus(Phase.UNPROVISIONED, None, None)
    tampered = False
    for record in iter_audit_backwards(state_dir):
        if record.event is AuditEvent.VERIFY_ACCEPT:
            phase = Phase.QUARANTINED if tampered else Phase.LOADED_LOCKED
            digest = Digest.from_hex(record.digest) if record.digest else None
            return MonitorStatus(phase, record.version, digest)
        if record.event is AuditEvent.SESSION_RECHECK and record.detail == "tampered":
            tampered = True
    return MonitorStatus(Phase.QUARANTINED if tampered else Phase.IDLE, None, None)
