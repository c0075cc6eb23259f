"""Persistent trusted state: the public-key anchor, the monotonic version
counter, and a hash-chained append-only audit log.

Layout inside a state directory:

  state.json   {"anchor": "<hex of tag+key>"}, written once at provisioning
  counter      the monotonic version counter: two fixed 64-byte slots, each
               "<counter as 20 digits> <check>\n", where the check is the
               first 42 hex digits of SHA-256(digits || anchor file bytes).
               The counter is the highest slot whose check verifies. A commit
               overwrites the other slot in place and creates or renames
               nothing, so a torn write spoils only a slot that holds no
               committed value
  audit.log    one JSON record per line, built by _record_line, the one
               line builder, as compact json.dumps writes it; each record
               carries the SHA-256 of the previous raw line (64 zeros for
               the first), so any edit, reorder, or truncation-in-the-middle
               breaks the chain
  lock         advisory exclusive lock held by the single writer

Ordering discipline: each audit record is written with one write(2) (and
fsynced when durable) before the operation that produced it reports
completion, and the VERIFY_ACCEPT record is written before the counter
commit, so a crash at any boundary leaves the counter at the last committed
accept while the log still shows the attempt. load() redoes what such a
crash cut short: it commits a last VERIFY_ACCEPT that is above the counter,
and cuts off a torn last line, appending a RECOVER record for each repair.
A failed write or fsync closes the store for good, since what reached the
disk is then unknown: only a new load() repairs the files and writes again.
The read-only readers never write: they leave a torn last line out, which
audit_forwards, audit_backwards and walk_audit_chain measure. Only
_open_audit finds that tail, by a scan back from the end that holds one
block; every reader, load() included, reads the whole lines below it
through _lines_forwards or _lines_backwards, which refuse a line over
_LINE_LIMIT before building it.
A state file that is not a regular file (a FIFO, say) is refused with
StateError, never waited on.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import io
import json
import os
import stat
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from enum import Enum
from json.encoder import encode_basestring as _quote  # json's own C string quoting
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple

from .crypto import PublicKey

STATE_NAME = "state.json"
COUNTER_NAME = "counter"
AUDIT_NAME = "audit.log"
LOCK_NAME = "lock"
GENESIS_HASH = "0" * 64
_TAIL_BLOCK = 64 * 1024  # bytes per step when reading the audit log, either way
_SCAN_CAP = 256 * 1024  # the largest step a read of the audit log doubles up to
_LINE_LIMIT = 384 * 1024  # the longest audit line read, its line end included
_STATE_LIMIT = 4096  # bytes of state.json read; its one anchor takes under 100
_SLOT_SIZE = 64  # bytes per counter slot; the counter file holds two
_SLOT_DIGITS = 20
_CHECK_HEX = _SLOT_SIZE - _SLOT_DIGITS - 2  # what the space and the line end leave
MAX_COUNTER = 10**_SLOT_DIGITS - 1


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
        """The record as one line without its line end, from _record_line,
        the one builder of audit lines."""
        return _record_line(*self)

    @classmethod
    def from_line(cls, line: bytes) -> "AuditRecord":
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StateError(f"unparseable audit record ({exc})") from None
        if not isinstance(obj, dict) or not set(obj) <= set(_RECORD_KEYS):
            raise StateError("audit record has unexpected shape")
        try:
            record = cls(
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
        # the next append adds 1 to seq; a bool is an int that JSON writes as true
        if type(record.seq) is not int or record.seq < 1:
            raise StateError(f"invalid audit record (seq {record.seq!r} is not a positive integer)")
        if type(record.time) is not str or type(record.prev) is not str:
            raise StateError("invalid audit record (time and prev must be strings)")
        return record


def _record_line(seq, time_, event, version, reason, digest, detail, prev) -> bytes:
    """The audit line of a record with these fields, without its line end:
    the bytes of json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    encoded as UTF-8, where obj holds seq, time and event, then each of
    version, reason, digest and detail that is not None, then prev.
    Assembled directly, since json.dumps builds a new encoder on every call;
    an int or str field is written here and only others go through _json.
    append_audit writes its line from its arguments through this, and
    AuditRecord.to_line gives a record's line through it."""
    # an event's value is a plain name that JSON quotes as it is; _value_ is
    # what Enum's value property returns, read without that call
    line = (f'{{"seq":{seq if type(seq) is int else _json(seq)},"time":'
            f'{_quote(time_) if type(time_) is str else _json(time_)},"event":"{event._value_}"')
    if version is not None:
        line += f',"version":{version if type(version) is int else _json(version)}'
    if reason is not None:
        line += f',"reason":{_quote(reason) if type(reason) is str else _json(reason)}'
    if digest is not None:
        line += f',"digest":{_quote(digest) if type(digest) is str else _json(digest)}'
    if detail is not None:
        line += f',"detail":{_quote(detail) if type(detail) is str else _json(detail)}'
    prev = _quote(prev) if type(prev) is str else _json(prev)
    return f'{line},"prev":{prev}}}'.encode("utf-8")


def _json(value) -> str:
    """value as json.dumps(value, ensure_ascii=False) writes it inside a
    compact object, for a field that is not an int or str: a bool, or
    whatever load() copied from a hand-edited line."""
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


# formatting is most of the cost of a timestamp; a flood of appends stamps
# many records within one millisecond, and more within one second
@functools.lru_cache(maxsize=1)
def _utc_second(second: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))


@functools.lru_cache(maxsize=1)
def _utc_millisecond(ms: int) -> str:
    return f"{_utc_second(ms // 1000)}.{ms % 1000:03d}Z"


def _now() -> str:
    """UTC now as YYYY-MM-DDTHH:MM:SS.mmmZ, milliseconds truncated."""
    return _utc_millisecond(time.time_ns() // 1_000_000)


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

    # -- construction ------------------------------------------------------

    def __init__(self, path: Path, *, durable: bool,
                 crash_hook: Callable[[str], None] | None = None,
                 _install: Callable[[], None] | None = None):
        """Take the writer lock, run _install under it, then open the files.
        The first write follows: PROVISION after an install, else whatever
        repair the log's tail calls for. A failure closes what was opened."""
        self._path = path
        self._durable = durable
        self.crash_hook = crash_hook
        self._mutex = threading.Lock()
        self._closed: str | None = None  # why calls are refused, once they are
        self._counter_fd = self._audit_fd = -1
        self._lock_fd = _acquire_lock(path)
        try:
            if _install is not None:
                _install()
            self._anchor = _read_anchor(path)
            self._anchor_bytes = self._anchor.to_file_bytes()
            self._counter_fd = _open_counter(path, os.O_RDWR)
            self._nv, self._slot = _highest_slot(self._counter_fd, self._anchor_bytes)
            last, self._last_hash, torn = _scan_audit_tail(path / AUDIT_NAME)
            self._last_seq = last.seq if last is not None else 0
            self._audit_fd = os.open(
                path / AUDIT_NAME, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            if _install is not None:
                scheme = self._anchor.scheme.value
                self.append_audit(AuditEvent.PROVISION, detail=f"anchor={scheme}")
            else:
                self._recover(last, torn)
        except BaseException:
            self._shut("store failed to open")
            raise

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
        archives (never deletes) the previous state and audit log. A counter
        or log left in a directory without state.json is archived too, since
        that directory is not provisioned. crash_hook, when given, is
        installed before the first audit record is written so fault
        injection can reach the provisioning boundaries too.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)

        def install() -> None:
            if (path / STATE_NAME).exists() and not reset:
                raise AlreadyProvisionedError(
                    f"{path} is already provisioned; pass reset to archive and start over"
                )
            if any((path / name).exists() for name in (STATE_NAME, COUNTER_NAME, AUDIT_NAME)):
                _archive_existing(path)
            # the counter first: state.json is what marks a directory provisioned;
            # slot 0 holds 0 and slot 1 no valid value
            anchor_bytes = anchor.to_file_bytes()
            slots = _counter_slot(0, anchor_bytes) + b" " * (_SLOT_SIZE - 1) + b"\n"
            _write_file_atomic(path, COUNTER_NAME, slots, durable)
            state = json.dumps({"anchor": anchor_bytes.hex()}, separators=(",", ":"))
            _write_file_atomic(path, STATE_NAME, state.encode("utf-8") + b"\n", durable)

        return cls(path, durable=durable, crash_hook=crash_hook, _install=install)

    @classmethod
    def load(cls, path: str | Path, *, durable: bool = True) -> "SecureStateStore":
        path = Path(path)
        if not (path / STATE_NAME).exists():
            raise NotProvisionedError(f"{path} holds no provisioned state")
        return cls(path, durable=durable)

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
        """Anti-rollback gate: candidate is acceptable iff an int, not a bool,
        strictly above the committed counter (and within the MAX_COUNTER a
        slot holds). Never mutates; raises StateError on a closed store, whose
        counter may be behind what the files hold."""
        if self._closed is not None:
            raise StateError(self._closed)
        return type(candidate) is int and self._nv < candidate <= MAX_COUNTER

    def commit_version(self, version: int) -> None:
        """Persist the counter at version in place: one write of the slot
        that does not hold the committed value, then an fsync when durable.
        A crash mid-write leaves that slot torn, which readers skip, so they
        see the old value or the new one; nothing is created, truncated or
        renamed, so no directory fsync is needed either."""
        with self._mutex:
            if not self.check_version(version):
                if isinstance(version, int) and version > MAX_COUNTER:
                    raise StateError(f"refusing counter commit: {version} > {MAX_COUNTER}")
                raise StateError(
                    f"refusing non-monotonic counter commit: {version} <= {self._nv}"
                )
            self._fire("commit:pre")
            slot = 1 - self._slot
            self._write(self._counter_fd, COUNTER_NAME,
                        _counter_slot(version, self._anchor_bytes), slot * _SLOT_SIZE)
            self._slot = slot
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
        """Append one record to the hash chain in one write before returning
        (write-ahead: callers report completion only afterwards). Each
        denied EL1 write calls this, so the closed check and the chain hash
        are inline."""
        with self._mutex:
            if self._closed is not None:
                raise StateError(self._closed)
            seq = self._last_seq + 1
            time_ = _now()
            prev = self._last_hash
            line = _record_line(seq, time_, event, version, reason, digest, detail, prev)
            # the boundary names are built only when a hook will see them
            if self.crash_hook is not None:
                self.crash_hook(f"audit:pre:{event.value}")
            self._write(self._audit_fd, AUDIT_NAME, line + b"\n")
            self._last_seq = seq
            self._last_hash = hashlib.sha256(line).hexdigest()
            if self.crash_hook is not None:
                self.crash_hook(f"audit:post:{event.value}")
            fields = seq, time_, event, version, reason, digest, detail, prev
            return tuple.__new__(AuditRecord, fields)  # AuditRecord._make without its frame

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._shut("store is closed")

    def __enter__(self) -> "SecureStateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _shut(self, why: str) -> None:
        """Close the files without another write and release the writer
        lock, once; every later call raises StateError(why)."""
        if self._closed is not None:
            return
        self._closed = why
        for fd in (self._audit_fd, self._counter_fd):
            if fd >= 0:
                os.close(fd)
        _release_lock(self._lock_fd)

    def _write(self, fd: int, name: str, data: bytes, offset: int | None = None) -> None:
        """Write data to fd in one write(2), or one pwrite(2) at offset, then
        fsync when durable. Any failure closes the store for good: what
        reached the disk is then unknown, and a retry could write twice."""
        try:
            written = os.write(fd, data) if offset is None else os.pwrite(fd, data, offset)
            if written != len(data):
                raise StateError(f"short {name} write: {written} of {len(data)} bytes")
            if self._durable:
                os.fsync(fd)
        except BaseException as exc:
            self._shut(f"store closed after a failed {name} write ({exc!r}); load it again")
            raise

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
            os.ftruncate(self._audit_fd, os.fstat(self._audit_fd).st_size - torn)
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
    """The trust anchor and the committed counter. A slot torn by a commit
    in progress fails its check and is skipped, so a reader racing a commit
    sees the old value or the new one."""
    path = Path(path)
    anchor = _read_anchor(path)
    fd = _open_counter(path, os.O_RDONLY)
    try:
        return anchor, _highest_slot(fd, anchor.to_file_bytes())[0]
    finally:
        os.close(fd)


def read_audit(path: str | Path) -> list[AuditRecord]:
    """Every whole record of the audit log, oldest first (see audit_forwards)."""
    with audit_forwards(path) as (_, records):
        return list(records)


@contextmanager
def audit_forwards(path: str | Path) -> Iterator[tuple[int, Iterator[AuditRecord]]]:
    """The length of the log's torn tail (bytes after its last line end,
    which the next load() cuts off) and its whole records, oldest first and
    read only as far as the caller iterates, from one open of the log, which
    stays open until the with block ends. A line that is malformed or over
    _LINE_LIMIT raises StateError naming it as `audit.log line N`, the
    number walk_audit_chain gives it."""
    fh, end, torn = _open_audit(Path(path) / AUDIT_NAME)
    with fh:
        yield torn, _records(_lines_forwards(fh, end), "")


@contextmanager
def audit_backwards(path: str | Path) -> Iterator[tuple[int, Iterator[AuditRecord]]]:
    """As audit_forwards, but the records come newest first, and a bad line
    is named as `audit.log line N from the end`, the last whole line being 1."""
    fh, end, torn = _open_audit(Path(path) / AUDIT_NAME)
    with fh:
        yield torn, _records(_lines_backwards(fh, end), " from the end")


def _records(lines: Iterator[bytes], where: str) -> Iterator[AuditRecord]:
    """The records of the non-blank lines, in the order they come. Lines are
    counted from 1 as they come, blank ones too, and the StateError of a line
    that is malformed or over _LINE_LIMIT is raised again with its number,
    followed by `where`."""
    number = 1
    try:
        for line in lines:
            if line:
                yield AuditRecord.from_line(line)
            number += 1
    except StateError as exc:
        raise StateError(f"{AUDIT_NAME} line {number}{where}: {exc}") from None


def check_audit_chain(path: str | Path) -> int:
    """Walk the full hash chain of the whole records; returns the record
    count, raises AuditChainError at the first broken link, gap, or
    malformed line. A torn tail is left out, as in audit_forwards."""
    with walk_audit_chain(path) as (_, records):
        return sum(1 for _ in records)


@contextmanager
def walk_audit_chain(path: str | Path) -> Iterator[tuple[int, Iterator[AuditRecord]]]:
    """As audit_forwards, but each record comes once its link to the line
    before checks out; AuditChainError is raised at the first broken link,
    gap, malformed line, or line over _LINE_LIMIT. Each line is read and
    parsed once, so a caller can check records as they come."""
    fh, end, torn = _open_audit(Path(path) / AUDIT_NAME)
    with fh:
        yield torn, _chain(_lines_forwards(fh, end))


def _chain(lines: Iterator[bytes]) -> Iterator[AuditRecord]:
    """walk_audit_chain's records, from the log's lines."""
    prev_hash = GENESIS_HASH
    line_no = 1
    try:
        for line in lines:
            if not line:
                raise AuditChainError(line_no, "blank line inside the log")
            record = AuditRecord.from_line(line)
            if record.prev != prev_hash:
                raise AuditChainError(line_no, "hash chain broken")
            if record.seq != line_no:
                raise AuditChainError(line_no, f"sequence gap: expected {line_no}, got {record.seq}")
            prev_hash = _line_hash(line)
            line_no += 1
            yield record
    except AuditChainError:
        raise
    except StateError as exc:  # line line_no is malformed, or over _LINE_LIMIT
        raise AuditChainError(line_no, str(exc)) from None


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


def _open_regular(file: Path, flags: int) -> int:
    """A descriptor of file opened with flags and O_NONBLOCK, so that a FIFO
    opens at once; anything but a regular file is closed and refused."""
    try:
        fd = os.open(file, flags | os.O_NONBLOCK)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            return fd
        os.close(fd)
    except IsADirectoryError:  # how a writable open refuses a directory
        pass
    raise StateError(f"{file} is not a regular file")


def _read_anchor(path: Path) -> PublicKey:
    try:
        fd = _open_regular(path / STATE_NAME, os.O_RDONLY)
    except (FileNotFoundError, NotADirectoryError):
        raise NotProvisionedError(f"{path} holds no provisioned state") from None
    try:
        raw = os.read(fd, _STATE_LIMIT + 1)
    finally:
        os.close(fd)
    try:
        if len(raw) > _STATE_LIMIT:
            raise ValueError(f"longer than {_STATE_LIMIT} bytes")
        obj = json.loads(raw.decode("utf-8"))
        return PublicKey.from_file_bytes(bytes.fromhex(obj["anchor"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise StateError(f"corrupt {STATE_NAME}: {exc}") from None


def _counter_slot(nv: int, anchor_bytes: bytes) -> bytes:
    digits = b"%020d" % nv
    check = hashlib.sha256(digits + anchor_bytes).hexdigest()[:_CHECK_HEX]
    return b"%s %s\n" % (digits, check.encode("ascii"))


def _open_counter(path: Path, flags: int) -> int:
    try:
        return _open_regular(path / COUNTER_NAME, flags)
    except FileNotFoundError:
        raise StateError(
            f"{path} has no {COUNTER_NAME} file; a state directory whose counter is "
            f"in {STATE_NAME} must be provisioned again with --reset"
        ) from None


def _highest_slot(fd: int, anchor_bytes: bytes) -> tuple[int, int]:
    """(counter, slot) of the highest slot of the counter file open at fd
    whose check verifies."""
    data = os.pread(fd, 2 * _SLOT_SIZE, 0)
    valid = []
    for slot in (0, 1):
        raw = data[slot * _SLOT_SIZE:(slot + 1) * _SLOT_SIZE]
        digits = raw[:_SLOT_DIGITS]
        if digits.isdigit() and raw == _counter_slot(int(digits), anchor_bytes):
            valid.append((int(digits), slot))
    if not valid:
        raise StateError(f"corrupt {COUNTER_NAME}: no slot holds a valid counter")
    return max(valid)


def _write_file_atomic(path: Path, name: str, payload: bytes, durable: bool) -> None:
    """Create or replace path/name holding payload (temp file, fsync, rename,
    directory fsync), so a crash leaves the old file or the new one."""
    tmp = path / f".{name}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, payload)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path / name)
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
    fh, end, torn = _open_audit(audit_path)
    with fh:
        line = next(filter(None, _lines_backwards(fh, end)), None)
    if line is None:
        return None, GENESIS_HASH, torn
    return AuditRecord.from_line(line), _line_hash(line), torn


def _open_audit(audit_path: Path) -> tuple[BinaryIO, int, int]:
    """The audit log open for reading (empty when missing), the offset past
    its last line end, and the torn tail's length after it: the one place
    that finds where the whole lines end. The scan steps back from the end,
    doubling up to _SCAN_CAP, and holds one block however long the tail."""
    try:
        fh = open(_open_regular(audit_path, os.O_RDONLY), "rb")
    except (FileNotFoundError, NotADirectoryError):
        fh = io.BytesIO()
    try:
        size = pos = fh.seek(0, os.SEEK_END)
        step = _TAIL_BLOCK
        while pos > 0:
            step = min(step, pos)
            pos -= step
            fh.seek(pos)
            block = fh.read(step)
            end = pos + max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            if end > pos:
                return fh, end, size - end
            step = min(2 * step, _SCAN_CAP)
        return fh, 0, size
    except BaseException:
        fh.close()
        raise


def _lines_forwards(fh: BinaryIO, end: int) -> Iterator[bytes]:
    """The lines of bytes.splitlines() over the log open at fh up to end,
    read forwards a block at a time. Each block is split alone, and its
    last line is carried into the next, where it grows in place while it
    goes on; splitlines also decides where a carried CR meets its LF.

    A line over _LINE_LIMIT raises StateError once more than that much of
    it is held. No faarm wrote a line near it: the longest quoted an
    unauthenticated 64 KiB manifest at up to five bytes per manifest byte
    in a rejection's detail, before the monitor cut the detail."""
    fh.seek(0)
    pos, step, carry = 0, _TAIL_BLOCK, bytearray()
    while pos < end and (block := fh.read(min(step, end - pos))):
        pos += len(block)
        lines = block.splitlines(keepends=True)
        # the block's first line goes on the carried one unless a line ends between them
        if len((carry[-1:] + lines[0][:1]).splitlines()) == 1:
            _check_line(len(carry) + len(lines[0]))
            carry += lines.pop(0)
        if not lines:  # all one line so far: doubling keeps the reads few
            step = min(2 * step, _SCAN_CAP)
            continue
        yield from map(_whole, [bytes(carry), *lines[:-1]])
        carry = bytearray(lines[-1])
    if carry:
        yield _whole(bytes(carry))


def _lines_backwards(fh: BinaryIO, end: int) -> Iterator[bytes]:
    """The lines of _lines_forwards in reverse, read backwards from end a
    block at a time, only as far as the caller iterates, under the same
    _LINE_LIMIT. A block's first line may begin in the block before, so it
    is carried into that one."""
    pos, step, carry = end, _TAIL_BLOCK, bytearray()
    while pos > 0:
        step = min(step, pos)
        pos -= step
        fh.seek(pos)
        lines = fh.read(step).splitlines(keepends=True)
        # the carried line begins on the block's last one unless a line ends between them
        if lines and len((lines[-1][-1:] + carry[:1]).splitlines()) == 1:
            _check_line(len(lines[-1]) + len(carry))
            carry[:0] = lines.pop()
        if not lines:  # all one line so far: doubling keeps the reads few
            step = min(2 * step, _SCAN_CAP)
            continue
        yield from map(_whole, [bytes(carry), *reversed(lines[1:])])
        carry = bytearray(lines[0])
    if carry:
        yield _whole(bytes(carry))


def _whole(line: bytes) -> bytes:
    """A whole line without its line end, refused if over _LINE_LIMIT."""
    _check_line(len(line))
    return line.rstrip(b"\r\n")


def _check_line(length: int) -> None:
    """Refuse a line, or the part of one read so far, over _LINE_LIMIT."""
    if length > _LINE_LIMIT:
        raise StateError(f"audit line longer than {_LINE_LIMIT} bytes")


def _archive_existing(path: Path) -> None:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    n = 0
    while True:
        target = path / f"archive-{stamp}-{n}"
        if not target.exists():
            break
        n += 1
    target.mkdir()
    for name in (STATE_NAME, COUNTER_NAME, AUDIT_NAME):
        source = path / name
        if source.exists():
            os.replace(source, target / name)
