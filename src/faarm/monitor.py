"""The EL3-style secure monitor: the ordered verify-and-lock load protocol,
session rechecks, and the task admission gate.

Load protocol, in order (a failing step rejects with the reason shown, appends
a VERIFY_REJECT record, and leaves both the counter and the region untouched):

  1. parse the manifest and the signature         -> malformed-bundle
  2. image fits the region, by its length alone   -> oversize
     (fstat, the .pkg length header, or the length
     of an in-memory image; before it is read or
     copied)
  3. verify the signature over the manifest's
     firmware_hash || canonical manifest          -> bad-signature
  4. manifest identity matches this monitor       -> malformed-bundle
  5. version strictly above the committed counter -> rollback
  6. every manifest flag is known                 -> unknown-flag
  7. read the image and hash it, once
  8. compare against the authenticated hash       -> hash-mismatch
  9. secure write of the step-7 bytes + lock with
     the step-7 digest, in one critical section
     (no EL1 write can interleave)                -> lock-failed
 10. VERIFY_ACCEPT, counter commit, token issue
     (if a record or the commit raises, the region is
     restored to its pre-step-9 snapshot and the error
     propagates)

Both entry points run these steps in one method, _load, over a reader with
read_bundle's contract; verify_and_lock's reader has no step 1 and freezes
an image that fits into bytes at step 2. Steps 3-6 (_authenticate) need the
manifest and the signature alone and run before step 7, so a forged,
foreign, rolled-back or unknown-flag bundle costs its manifest parse and one
signature check, whatever its image size. _serial is held from step 1
through step 10. The signature covers firmware_hash, so step 8 holds the
image to the vendor's own digest. A package with several faults rejects at
the earliest gate it fails. A rejection's detail is cut to MAX_DETAIL_CHARS,
since a parse error quotes the unauthenticated field it refuses.

StageTimings: verify_ms spans steps 3-8, lock_ms step 9, and total_ms runs
from entry to the built result, so it alone includes steps 1 and 2, the
audit appends and the commit. A load rejected at step 1 or 2 has verify_ms
== lock_ms == 0 (but a bundle image that grows past the region after its
fstat is rejected as oversize at step 7, with verify_ms > 0).

The size gate comes first because it needs only the image's length, which
the bundle's author already knows, so it tells a prober nothing about the
gates behind it, and an oversize image costs no read, hash or signature check.

Verification and locking happen inside one serialized entry point, so the
TOCTOU window between "checked" and "locked" is closed by construction. The
interposition hooks used by adversarial tests fire outside the region's
critical section, where a real concurrent writer would sit: PRE_VERIFY once
the size gate has passed (so a load rejected at step 1 or 2 fires none),
POST_VERIFY_PRE_LOCK between steps 8 and 9, and POST_LOCK after step 10.
"""

from __future__ import annotations

import os
import threading
import time
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .crypto import CryptoError, Digest, Signature, hash_data, signing_payload, verify
from .mcu import HookPoint, LockEngageError, LockState, McuRegion
from .packaging import (
    FLAG_REQUIRES_LOCK,
    BundleError,
    FirmwarePackage,
    ImageTooLarge,
    Manifest,
    ManifestError,
    canonical_bytes,
    read_bundle,
)
from .state import AuditEvent, AuditRecord, SecureStateStore

TASK_ENVELOPE_MAGIC = b"ENC1"
KNOWN_FLAGS = frozenset({FLAG_REQUIRES_LOCK})  # a manifest flag outside these rejects the load
MAX_DETAIL_CHARS = 1024  # the longest rejection detail a result or an audit record carries
_WRITE_DENIED = AuditEvent.WRITE_DENIED  # read per denied write; see mcu._EL1


class MonitorError(Exception):
    pass


class ReplayError(Exception):
    """An audit log violates the protocol's replay invariants."""


class _Refused(Exception):
    """Raised out of the reader by _load's check when the manifest fails a
    gate, so that the image is never read; carries (reason, detail) and the
    manifest's version."""

    def __init__(self, rejection: tuple[RejectionReason, str], version: int):
        self.rejection = rejection
        self.version = version


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
        self.store.append_audit(_WRITE_DENIED, detail=detail)

    # -- the load protocol -----------------------------------------------------

    def verify_and_lock(self, package: FirmwarePackage) -> VerifyResult:
        """Run the load protocol on an in-memory package. An image that fits
        the region is frozen into bytes (a no-op for bytes) before its length
        is gated, and only that object is hashed, written and locked; an
        oversize image is rejected from its length and never copied."""

        def read(*, max_firmware: int, check: Callable[[Manifest, Signature], None]):
            firmware = package.firmware
            if len(firmware) <= max_firmware:
                firmware = bytes(firmware)
            if len(firmware) > max_firmware:
                raise ImageTooLarge(len(firmware), max_firmware, package.manifest)
            check(package.manifest, package.signature)
            return package._replace(firmware=firmware)

        return self._load(read)

    def verify_bundle(self, path: str | Path) -> VerifyResult:
        """Read a bundle from disk and run the load protocol on it."""
        return self._load(partial(read_bundle, path))

    def _load(self, read: Callable[..., FirmwarePackage]) -> VerifyResult:
        """The load protocol over read(max_firmware=, check=), which keeps
        read_bundle's contract: ImageTooLarge for an image over max_firmware,
        else check(manifest, signature) and, if check returns, the package
        with its image read."""
        t_total = time.perf_counter()
        t_verify = None

        def check(manifest: Manifest, signature: Signature) -> None:
            nonlocal t_verify
            self.region.fire(HookPoint.PRE_VERIFY)
            t_verify = time.perf_counter()
            rejection = self._authenticate(manifest, signature)
            if rejection is not None:
                raise _Refused(rejection, manifest.version)

        with self._serial:
            rejection = version = None
            try:
                package = read(max_firmware=self.region.capacity, check=check)
            except _Refused as exc:
                rejection, version = exc.rejection, exc.version
            except (BundleError, ManifestError, CryptoError) as exc:
                rejection = RejectionReason.MALFORMED_BUNDLE, str(exc)
            except ImageTooLarge as exc:
                detail = f"{exc.size} bytes exceeds region capacity {self.region.capacity}"
                rejection, version = (RejectionReason.OVERSIZE, detail), exc.manifest.version
            if rejection is not None:
                verify_ms = 0.0 if t_verify is None else _ms_since(t_verify)
                return self._reject(*rejection, version, t_total, verify_ms)

            firmware, manifest = package.firmware, package.manifest
            version = manifest.version
            digest = hash_data(firmware)
            verify_ms = _ms_since(t_verify)
            if digest != manifest.firmware_hash:
                return self._reject(
                    RejectionReason.HASH_MISMATCH,
                    f"firmware hashes to {digest.hex}, manifest says {manifest.firmware_hash.hex}",
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
            self._token = AuthToken(os.urandom(16).hex(), version, digest.hex)
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

    def _authenticate(
        self, manifest: Manifest, signature: Signature
    ) -> tuple[RejectionReason, str] | None:
        """Steps 3-6, which need the manifest and the signature alone, in
        protocol order: the first that fails, as (reason, detail), or None
        when the image may be read and checked against the manifest's hash."""
        payload = signing_payload(manifest.firmware_hash, canonical_bytes(manifest))
        if not verify(self.store.anchor, payload, signature):
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
        self, reason: RejectionReason, detail: str, version: int | None, t_total: float,
        verify_ms: float = 0.0, lock_ms: float = 0.0,
    ) -> VerifyResult:
        """Record VERIFY_REJECT and build the rejected result; the caller holds
        _serial and has changed neither the counter nor the region. A detail
        over MAX_DETAIL_CHARS keeps its start and its length, in both."""
        if len(detail) > MAX_DETAIL_CHARS:
            suffix = f"... ({len(detail)} characters)"
            detail = detail[:MAX_DETAIL_CHARS - len(suffix)] + suffix
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
    accepted versions are ints (not bools) and strictly increase, a LOCK and
    the next accept of the same version name the same digest, and every task
    admission names the latest accepted digest. Returns the number of
    records and the last accepted version (0 when there is none).

    A load writes the same version into its LOCK and its accept, so a LOCK
    pairs only with an accept of its own version: a LOCK left by a load that
    crashed before its accept is followed by a later load's accept of
    another version, or by none. One case stays ambiguous: a load that
    crashed after LOCK(v, d1), then a reload and an unlocked accept of a
    second signed image of the same version, ACCEPT(v, d2), reads exactly as
    one load whose lock and accept disagree, and is reported as such."""
    count = 0
    last_version = 0
    current_digest: str | None = None
    pending_lock: AuditRecord | None = None
    for count, record in enumerate(records, start=1):
        if record.event is AuditEvent.LOCK:
            pending_lock = record
        elif record.event is AuditEvent.VERIFY_ACCEPT:
            if type(record.version) is not int or record.version <= last_version:
                raise ReplayError(
                    f"record {record.seq}: accepted version {record.version} "
                    f"is not above {last_version}"
                )
            if (
                pending_lock is not None
                and pending_lock.version == record.version
                and pending_lock.digest != record.digest
            ):
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

