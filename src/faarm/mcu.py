"""Emulated MCU firmware memory: a bounded byte region with a write lock and
an EL1-facing write channel.

Two lock flavors are modeled. Under hardware write-protect a locked region is
fully immutable (even the out-of-band test hook is refused); under a software
lock, EL1 writes are denied but the test hook can still tamper, which session
rechecks must catch. The region mutex doubles as the critical section the
secure loader uses to make verify-write-lock atomic against concurrent EL1
writers; interposition hooks for adversarial schedules are fired by callers
outside that critical section.

The region's image is always one immutable bytes object: secure_write and
restore keep the caller's object without copying, and every in-place write (EL1
or the test hook) goes through one gate that builds a new image rather than
mutating the old one, so a snapshot shares the image and never copies it.
lock() records the digest its EL3 caller computed over exactly the bytes it
wrote inside exclusive(); without one it hashes the content itself.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterator, NamedTuple

from .crypto import Digest, hash_data

DEFAULT_CAPACITY = 4 * 1024 * 1024
# nominal MCU firmware initialisation time that bench overheads are quoted against
DEFAULT_NOMINAL_INIT_MS = 100.0


class RegionError(Exception):
    pass


class LockEngageError(RegionError):
    """The lock did not engage (fault-injection path)."""


class LockMode(Enum):
    HARDWARE_WP = "hardware-wp"
    SOFTWARE_LOCK = "software-lock"


class LockState(Enum):
    UNLOCKED = "unlocked"
    LOCKED = "locked"


class WriteOrigin(Enum):
    # members are singletons that compare by identity, so the identity hash
    # agrees with equality; Enum's own __hash__ runs in Python, and the
    # attempts Counter hashes an origin and an outcome on every write
    __hash__ = object.__hash__

    EL1 = "el1"
    EL3_SECURE_LOADER = "el3-secure-loader"
    TEST_HOOK = "test-hook"


class WriteOutcome(Enum):
    __hash__ = object.__hash__  # as WriteOrigin's

    APPLIED = "applied"
    DENIED = "denied"


class HookPoint(Enum):
    """Deterministic interposition points around the load protocol."""

    PRE_VERIFY = "pre-verify"
    POST_VERIFY_PRE_LOCK = "post-verify-pre-lock"
    POST_LOCK = "post-lock"


# the write path reads its members here: in Python 3.11 an Enum class attribute
# goes through EnumType.__getattr__, four times a plain lookup, on every write
_EL1, _APPLIED, _DENIED = WriteOrigin.EL1, WriteOutcome.APPLIED, WriteOutcome.DENIED
_LOCKED, _HARDWARE_WP = LockState.LOCKED, LockMode.HARDWARE_WP


class RegionSnapshot(NamedTuple):
    content: bytes
    lock_state: LockState
    running_digest: Digest | None


class McuRegion:
    """The firmware region: one immutable bytes image at all times, written in
    place only through the one gate that el1_write and tamper_test_hook call.
    audit_sink, when set, is called with a one-line detail string for every
    denied EL1 write; the monitor wires it to WRITE_DENIED audit records.
    attempts counts every write by (origin, outcome), so its size stays
    bounded however many writes an attacker issues.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        lock_mode: LockMode = LockMode.HARDWARE_WP,
        audit_sink: Callable[[str], None] | None = None,
    ):
        if capacity < 1:
            raise RegionError("capacity must be positive")
        self.capacity = capacity
        self.lock_mode = lock_mode
        self.lock_state = LockState.UNLOCKED
        self.running_digest: Digest | None = None
        self.audit_sink = audit_sink
        self.fail_next_lock = False
        self.attempts: Counter[tuple[WriteOrigin, WriteOutcome]] = Counter()
        self._content: bytes = b""
        self._mutex = threading.RLock()
        self._hooks: dict[HookPoint, list[Callable[[], None]]] = {p: [] for p in HookPoint}

    # -- critical section ----------------------------------------------------

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """The region mutex, shared with the EL1 write channel; the secure
        loader holds it across write+lock so no interleaving is possible."""
        with self._mutex:
            yield

    # -- write channels --------------------------------------------------------

    def el1_write(self, offset: int, data: bytes) -> WriteOutcome:
        """Normal-world write: applied only while unlocked and in range."""
        return self._write(_EL1, offset, data)

    def secure_write(self, firmware: bytes) -> None:
        """EL3 loader path: replaces the entire image, keeping a bytes argument
        as is rather than copying it. Callers pair this with lock() inside a
        single exclusive() section. The lock and the length are checked
        before anything is copied, and the copy's length again after, as
        _write does, since the caller's buffer may have grown since."""
        with self._mutex:
            if self.lock_state is LockState.LOCKED:
                raise RegionError("secure write into a locked region")
            size = len(firmware)
            if size <= self.capacity:
                firmware = bytes(firmware)
                size = len(firmware)
            if size > self.capacity:
                raise RegionError(f"firmware of {size} bytes exceeds capacity {self.capacity}")
            self._content = firmware
            self.attempts[WriteOrigin.EL3_SECURE_LOADER, WriteOutcome.APPLIED] += 1

    def tamper_test_hook(self, offset: int, data: bytes) -> WriteOutcome:
        """Out-of-band mutation modeling tampering that a software lock cannot
        stop; refused while hardware write-protect is engaged."""
        return self._write(WriteOrigin.TEST_HOOK, offset, data)

    # -- lock ----------------------------------------------------------------

    def lock(self, digest: Digest | None = None) -> bool:
        """Engage the lock and record the content digest it covers.

        digest, when given, must come from the EL3 caller that wrote exactly
        these immutable bytes with secure_write inside the same exclusive()
        section, and is recorded without re-hashing; otherwise the content is
        hashed here. Returns False for an already-locked no-op; raises
        LockEngageError when fault injection is armed.
        """
        with self._mutex:
            if self.lock_state is LockState.LOCKED:
                return False
            if self.fail_next_lock:
                self.fail_next_lock = False
                raise LockEngageError("region lock did not engage")
            self.lock_state = LockState.LOCKED
            if digest is None:
                digest = hash_data(self._content)
            self.running_digest = digest
            return True

    def unlock_for_update(self) -> None:
        """Monitor-private transition used at the start of an update cycle;
        only meaningful inside an exclusive() section."""
        with self._mutex:
            self.lock_state = LockState.UNLOCKED
            self.running_digest = None

    def recheck(self) -> bool:
        """True iff the locked content still hashes to the digest recorded at
        lock time. Requires a locked region."""
        with self._mutex:
            if self.lock_state is not LockState.LOCKED:
                raise RegionError("recheck requires a locked region")
            return hash_data(self._content) == self.running_digest

    # -- observation -----------------------------------------------------------

    def read(self, offset: int = 0, size: int | None = None) -> bytes:
        with self._mutex:
            if size is None:
                return self._content[offset:]
            return self._content[offset : offset + size]

    def digest(self) -> Digest:
        with self._mutex:
            return hash_data(self._content)

    def size(self) -> int:
        with self._mutex:
            return len(self._content)

    def dump(self) -> dict:
        with self._mutex:
            return {
                "capacity": self.capacity,
                "lock_mode": self.lock_mode.value,
                "lock_state": self.lock_state.value,
                "size": len(self._content),
                "digest": hash_data(self._content).hex,
                "running_digest": self.running_digest.hex if self.running_digest else None,
                "attempts": self.attempts.total(),
            }

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> RegionSnapshot:
        with self._mutex:
            return RegionSnapshot(self._content, self.lock_state, self.running_digest)

    def restore(self, snap: RegionSnapshot) -> None:
        with self._mutex:
            self._content = snap.content
            self.lock_state = snap.lock_state
            self.running_digest = snap.running_digest

    # -- interposition hooks -------------------------------------------------------

    def add_hook(self, point: HookPoint, fn: Callable[[], None]) -> None:
        self._hooks[point].append(fn)

    def clear_hooks(self) -> None:
        for hooks in self._hooks.values():
            hooks.clear()

    def fire(self, point: HookPoint) -> None:
        """Run the hooks registered at point. Callers must not hold the region
        mutex here: hooks model adversarial writers racing the protocol."""
        for fn in list(self._hooks[point]):
            fn()

    # -- internals ------------------------------------------------------------------

    def _write(self, origin: WriteOrigin, offset: int, data: bytes) -> WriteOutcome:
        """The one gate for in-place writes: range, then lock, decided from
        len(data), so a refused write is never copied. A locked region refuses
        EL1 in either lock mode, the test hook only under hardware
        write-protect. Only an applied write copies data, and it gates the
        copy's length again, since the caller's buffer may have grown since."""
        el1 = origin is _EL1
        with self._mutex:
            if offset < 0 or offset + len(data) > self.capacity:
                cause = "range"
            elif self.lock_state is _LOCKED and (el1 or self.lock_mode is _HARDWARE_WP):
                cause = "locked"
            else:
                data = bytes(data)
                end = offset + len(data)
                if end <= self.capacity:
                    content = self._content
                    self._content = content[:offset].ljust(offset, b"\x00") + data + content[end:]
                    self.attempts[origin, _APPLIED] += 1
                    return _APPLIED
                cause = "range"
            self.attempts[origin, _DENIED] += 1
            if el1 and self.audit_sink is not None:
                self.audit_sink(f"el1 write denied ({cause}) offset={offset} len={len(data)}")
            return _DENIED
