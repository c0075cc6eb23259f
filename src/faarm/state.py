"""Persistent trusted state: the public-key anchor, the monotonic version
counter, and a hash-chained append-only audit log.

Layout inside a state directory:

  state.json   {"anchor": "<hex of tag+key>", "nv_counter": N}, replaced
               atomically on every counter commit
  audit.log    one JSON record per line; each record carries the SHA-256 of
               the previous raw line (64 zeros for the first), so any edit,
               reorder, or truncation-in-the-middle breaks the chain
  lock         advisory exclusive lock held by the single writer

Ordering discipline: audit records are flushed before the operation that
produced them reports completion, and the VERIFY_ACCEPT record is written
before the counter commit, so a crash at any boundary leaves the counter at
the last committed accept while the log still shows the attempt. load()
redoes what such a crash cut short: it commits a last VERIFY_ACCEPT that is
above the counter, and cuts off a torn last line, appending a RECOVER record
for each repair.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import threading
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from .crypto import PublicKey

STATE_NAME = "state.json"
AUDIT_NAME = "audit.log"
LOCK_NAME = "lock"
GENESIS_HASH = "0" * 64
_TAIL_BLOCK = 64 * 1024  # bytes read per step when looking for the last audit line


class StateError(Exception):
    pass


class StateLockError(StateError):
    pass


class AlreadyProvisionedError(StateError):
    pass


class NotProvisionedError(StateError):
    pass


class AuditChainError(StateError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"audit.log line {line_no}: {message}")


class AuditEvent(Enum):
    PROVISION = "PROVISION"
    VERIFY_ACCEPT = "VERIFY_ACCEPT"
    VERIFY_REJECT = "VERIFY_REJECT"
    LOCK = "LOCK"
    WRITE_DENIED = "WRITE_DENIED"
    SESSION_RECHECK = "SESSION_RECHECK"
    TASK_ADMIT = "TASK_ADMIT"
    TASK_DENY = "TASK_DENY"
    RECOVER = "RECOVER"


_RECORD_KEYS = ("seq", "time", "event", "version", "reason", "digest", "detail", "prev")


class AuditRecord(NamedTuple):
    seq: int
    time: str
    event: AuditEvent
    version: int | None = None
    reason: str | None = None
    digest: str | None = None
    detail: str | None = None
    prev: str = GENESIS_HASH

    def to_line(self) -> bytes:
        obj: dict = {"seq": self.seq, "time": self.time, "event": self.event.value}
        for key in ("version", "reason", "digest", "detail"):
            value = getattr(self, key)
            if value is not None:
                obj[key] = value
        obj["prev"] = self.prev
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")

    @classmethod
    def from_line(cls, line: bytes) -> "AuditRecord":
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StateError(f"unparseable audit record ({exc})") from None
        if not isinstance(obj, dict) or not set(obj) <= set(_RECORD_KEYS):
            raise StateError("audit record has unexpected shape")
        try:
            return cls(
                seq=obj["seq"],
                time=obj["time"],
                event=AuditEvent(obj["event"]),
                version=obj.get("version"),
                reason=obj.get("reason"),
                digest=obj.get("digest"),
                detail=obj.get("detail"),
                prev=obj["prev"],
            )
        except (KeyError, ValueError) as exc:
            raise StateError(f"invalid audit record ({exc})") from None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds").replace("+00:00", "Z")


def _line_hash(line: bytes) -> str:
    return hashlib.sha256(line).hexdigest()


class SecureStateStore:
    """Single-writer persistent store; open via provision() or load().

    Readers never take the writer lock: use the module-level read_state /
    read_audit / check_audit_chain functions for concurrent inspection.

    crash_hook, when set, is called with a boundary name immediately before
    and after every audit append and counter commit; tests raise from it to
    simulate a crash at that exact point.
    """

    def __init__(self, *, _path: Path, _anchor: PublicKey, _nv: int, _last_seq: int,
                 _last_hash: str, _lock_fd: int, _audit_fh, _durable: bool):
        self._path = _path
        self._anchor = _anchor
        self._nv = _nv
        self._last_seq = _last_seq
        self._last_hash = _last_hash
        self._lock_fd = _lock_fd
        self._audit_fh = _audit_fh
        self._durable = _durable
        self._mutex = threading.Lock()
        self._closed = False
        self.crash_hook: Callable[[str], None] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def provision(
        cls,
        anchor: PublicKey,
        path: str | Path,
        *,
        reset: bool = False,
        durable: bool = True,
        crash_hook: Callable[[str], None] | None = None,
    ) -> "SecureStateStore":
        """Install the trust anchor with the counter at zero.

        Re-provisioning an existing state directory requires reset=True, which
        archives (never deletes) the previous state and audit log. crash_hook,
        when given, is installed before the first audit record is written so
        fault injection can reach the provisioning boundaries too.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        lock_fd = _acquire_lock(path)
        try:
            state_path = path / STATE_NAME
            if state_path.exists():
                if not reset:
                    raise AlreadyProvisionedError(
                        f"{path} is already provisioned; pass reset to archive and start over"
                    )
                _archive_existing(path)
            _write_state_atomic(path, anchor, 0, durable)
            audit_path = path / AUDIT_NAME
            if audit_path.exists():  # pragma: no cover - archived above
                audit_path.unlink()
            audit_fh = open(audit_path, "ab")
        except BaseException:
            _release_lock(lock_fd)
            raise
        store = cls(
            _path=path, _anchor=anchor, _nv=0, _last_seq=0, _last_hash=GENESIS_HASH,
            _lock_fd=lock_fd, _audit_fh=audit_fh, _durable=durable,
        )
        store.crash_hook = crash_hook
        try:
            store.append_audit(AuditEvent.PROVISION, detail=f"anchor={anchor.scheme.value}")
        except BaseException:
            store.close()  # the on-disk artifacts stay; in-process resources must not leak
            raise
        return store

    @classmethod
    def load(cls, path: str | Path, *, durable: bool = True) -> "SecureStateStore":
        path = Path(path)
        if not (path / STATE_NAME).exists():
            raise NotProvisionedError(f"{path} holds no provisioned state")
        lock_fd = _acquire_lock(path)
        try:
            anchor, nv = read_state(path)
            last, last_hash, torn = _scan_audit_tail(path / AUDIT_NAME)
            audit_fh = open(path / AUDIT_NAME, "ab")
        except BaseException:
            _release_lock(lock_fd)
            raise
        store = cls(
            _path=path, _anchor=anchor, _nv=nv, _last_seq=last.seq if last is not None else 0,
            _last_hash=last_hash, _lock_fd=lock_fd, _audit_fh=audit_fh, _durable=durable,
        )
        try:
            store._recover(last, torn)
        except BaseException:
            store.close()
            raise
        return store

    @staticmethod
    def is_provisioned(path: str | Path) -> bool:
        return (Path(path) / STATE_NAME).exists()

    # -- properties --------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def anchor(self) -> PublicKey:
        return self._anchor

    @property
    def nv_counter(self) -> int:
        return self._nv

    # -- the two-phase counter ---------------------------------------------

    def check_version(self, candidate: int) -> bool:
        """Anti-rollback gate: candidate is acceptable iff strictly above the
        committed counter. Never mutates."""
        return isinstance(candidate, int) and candidate > self._nv

    def commit_version(self, version: int) -> None:
        """Atomically persist the counter at version (temp file + rename)."""
        with self._mutex:
            self._assert_open()
            if not self.check_version(version):
                raise StateError(
                    f"refusing non-monotonic counter commit: {version} <= {self._nv}"
                )
            self._fire("commit:pre")
            _write_state_atomic(self._path, self._anchor, version, self._durable)
            self._nv = version
            self._fire("commit:post")

    # -- audit log ----------------------------------------------------------

    def append_audit(
        self,
        event: AuditEvent,
        *,
        version: int | None = None,
        reason: str | None = None,
        digest: str | None = None,
        detail: str | None = None,
    ) -> AuditRecord:
        """Append one record to the hash chain and flush it to the OS before
        returning (write-ahead: callers report completion only afterwards)."""
        with self._mutex:
            self._assert_open()
            record = AuditRecord(
                seq=self._last_seq + 1,
                time=_now(),
                event=event,
                version=version,
                reason=reason,
                digest=digest,
                detail=detail,
                prev=self._last_hash,
            )
            line = record.to_line()
            self._fire(f"audit:pre:{event.value}")
            self._audit_fh.write(line + b"\n")
            self._audit_fh.flush()
            if self._durable:
                os.fsync(self._audit_fh.fileno())
            self._last_seq = record.seq
            self._last_hash = _line_hash(line)
            self._fire(f"audit:post:{event.value}")
            return record

    def read_records(self) -> list[AuditRecord]:
        self._audit_fh.flush()
        return read_audit(self._path)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._audit_fh.flush()
        except Exception:
            pass
        self._audit_fh.close()
        _release_lock(self._lock_fd)

    def __enter__(self) -> "SecureStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _assert_open(self) -> None:
        if self._closed:
            raise StateError("store is closed")

    def _fire(self, boundary: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(boundary)

    def _recover(self, last: AuditRecord | None, torn: int) -> None:
        """Repair what a crash left, given the last whole record and the
        length of the unterminated bytes after it. Torn bytes (a write that
        died before its line end, so its operation never completed) are cut
        off. A last VERIFY_ACCEPT above the counter (a crash before its
        commit) is committed, since the log is write-ahead and that version
        passed every gate. The commit comes before the RECOVER records, so a
        crash in here cannot leave the log ahead of the counter either."""
        if torn:
            self._audit_fh.truncate(self._audit_fh.seek(0, os.SEEK_END) - torn)
        counter = self._nv
        roll_forward = (
            last is not None
            and last.event is AuditEvent.VERIFY_ACCEPT
            and self.check_version(last.version)
        )
        if roll_forward:
            self.commit_version(last.version)
        if torn:
            self.append_audit(
                AuditEvent.RECOVER, detail=f"truncated a torn last line of {torn} bytes"
            )
        if roll_forward:
            self.append_audit(
                AuditEvent.RECOVER, version=last.version, digest=last.digest,
                detail=f"committed the logged accept of version {last.version} "
                f"over counter {counter}",
            )


# -- reader-side helpers (no writer lock required) ---------------------------


def read_state(path: str | Path) -> tuple[PublicKey, int]:
    state_path = Path(path) / STATE_NAME
    if not state_path.exists():
        raise NotProvisionedError(f"{path} holds no provisioned state")
    try:
        obj = json.loads(state_path.read_text("utf-8"))
        anchor = PublicKey.from_file_bytes(bytes.fromhex(obj["anchor"]))
        nv = obj["nv_counter"]
    except (ValueError, KeyError, TypeError) as exc:
        raise StateError(f"corrupt {STATE_NAME}: {exc}") from None
    if isinstance(nv, bool) or not isinstance(nv, int) or nv < 0:
        raise StateError(f"corrupt {STATE_NAME}: bad counter {nv!r}")
    return anchor, nv


def read_audit(path: str | Path) -> list[AuditRecord]:
    audit_path = Path(path) / AUDIT_NAME
    if not audit_path.exists():
        return []
    records = []
    for line in audit_path.read_bytes().splitlines():
        if line:
            records.append(AuditRecord.from_line(line))
    return records


def read_audit_tail(path: str | Path, n: int) -> list[AuditRecord]:
    """The last n records of the audit log, oldest first, without reading the
    rest of it; equal to read_audit(path)[-n:] for n >= 1 on a well-formed log."""
    return [AuditRecord.from_line(line) for line in _tail_lines(Path(path) / AUDIT_NAME, n)]


def check_audit_chain(path: str | Path) -> int:
    """Walk the full hash chain; returns the record count, raises
    AuditChainError at the first broken link, gap, or malformed line."""
    audit_path = Path(path) / AUDIT_NAME
    if not audit_path.exists():
        return 0
    prev_hash = GENESIS_HASH
    count = 0
    for line_no, line in enumerate(audit_path.read_bytes().splitlines(), start=1):
        if not line:
            raise AuditChainError(line_no, "blank line inside the log")
        try:
            record = AuditRecord.from_line(line)
        except StateError as exc:
            raise AuditChainError(line_no, str(exc)) from None
        if record.prev != prev_hash:
            raise AuditChainError(line_no, "hash chain broken")
        if record.seq != line_no:
            raise AuditChainError(line_no, f"sequence gap: expected {line_no}, got {record.seq}")
        prev_hash = _line_hash(line)
        count += 1
    return count


# -- internals ----------------------------------------------------------------


def _acquire_lock(path: Path) -> int:
    fd = os.open(path / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        os.close(fd)
        raise StateLockError(f"another writer holds {path / LOCK_NAME}") from None
    return fd


def _release_lock(fd: int) -> None:
    try:
        fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _write_state_atomic(path: Path, anchor: PublicKey, nv: int, durable: bool) -> None:
    payload = json.dumps(
        {"anchor": anchor.to_file_bytes().hex(), "nv_counter": nv},
        separators=(",", ":"),
    ).encode("utf-8")
    tmp = path / f".{STATE_NAME}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload + b"\n")
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path / STATE_NAME)
    if durable:
        dir_fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def _scan_audit_tail(audit_path: Path) -> tuple[AuditRecord | None, str, int]:
    """The last whole record of the audit log with its line hash, or (None,
    GENESIS_HASH) when there is none, and the length of the unterminated
    bytes after it (0 when the log ends in a line end or is missing)."""
    lines, torn = _tail(audit_path, 1)
    if not lines:
        return None, GENESIS_HASH, len(torn)
    return AuditRecord.from_line(lines[0]), _line_hash(lines[0]), len(torn)


def _tail_lines(audit_path: Path, n: int) -> list[bytes]:
    """The last n non-empty lines of the audit log, oldest first, an
    unterminated last line included."""
    if n <= 0:
        return []
    lines, torn = _tail(audit_path, n)
    return (lines + [torn] if torn else lines)[-n:]


def _tail(audit_path: Path, n: int) -> tuple[list[bytes], bytes]:
    """The last n >= 1 non-empty lines of the audit log that end in a line
    end, oldest first, and the unterminated bytes after the last line end
    (b"" when the log ends in one). Reads backwards from the end in blocks
    until n such lines are in hand, so the cost grows with n, not with the
    log. Lines end at LF or CR, as with bytes.splitlines(); a CRLF split
    across two blocks only yields an empty line, which is skipped like any
    other."""
    if not audit_path.exists():
        return [], b""
    groups: list[list[bytes]] = []  # whole lines per block, newest block first
    found = 0
    torn: bytes | None = None  # set at the first block holding a line end
    with open(audit_path, "rb") as fh:
        pos = fh.seek(0, os.SEEK_END)
        pending = b""  # bytes before the first line end seen so far
        while pos > 0 and found < n:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            buf = fh.read(step) + pending
            ends = [i for i in (buf.find(b"\n"), buf.find(b"\r")) if i >= 0]
            if not ends:
                pending = buf
                continue
            if torn is None:
                last_end = max(buf.rfind(b"\n"), buf.rfind(b"\r")) + 1
                torn, buf = buf[last_end:], buf[:last_end]
            cut = min(ends)
            pending, whole = buf[:cut], buf[cut:]
            lines = [line for line in whole.splitlines() if line]
            groups.append(lines)
            found += len(lines)
        if torn is None:  # no line end anywhere: the whole log is one torn line
            return [], pending
        if pos == 0 and pending:
            groups.append([pending])
    return [line for lines in reversed(groups) for line in lines][-n:], torn


def _archive_existing(path: Path) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    n = 0
    while True:
        target = path / f"archive-{stamp}-{n}"
        if not target.exists():
            break
        n += 1
    target.mkdir()
    for name in (STATE_NAME, AUDIT_NAME):
        source = path / name
        if source.exists():
            os.replace(source, target / name)
    return target
