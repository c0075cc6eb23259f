import hashlib
import io
import json
import os
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faarm import state
from faarm.state import (
    AlreadyProvisionedError,
    AuditChainError,
    AuditEvent,
    AuditRecord,
    NotProvisionedError,
    SecureStateStore,
    StateError,
    StateLockError,
    check_audit_chain,
    read_audit,
    read_audit_tail,
    read_state,
)


class Boom(RuntimeError):
    """Stands in for a crash at a kill point."""


def counter_slot(digits: bytes, anchor) -> bytes:
    """A slot of the counter file, built from its format: the digits, a
    space, the first 42 hex digits of SHA-256(digits || anchor file bytes)
    and a line end."""
    check = hashlib.sha256(digits + anchor.to_file_bytes()).hexdigest()[:42]
    return digits + b" " + check.encode() + b"\n"


@pytest.fixture
def store(tmp_path, ed25519_key):
    s = SecureStateStore.provision(ed25519_key.public, tmp_path / "state", durable=False)
    yield s
    s.close()


class TestProvision:
    def test_fresh_provision_counter_zero(self, store, ed25519_key):
        assert store.nv_counter == 0
        assert store.anchor == ed25519_key.public

    def test_provision_writes_audit_genesis(self, store):
        records = read_audit(store.path)
        assert len(records) == 1
        assert records[0].event is AuditEvent.PROVISION
        assert records[0].seq == 1
        assert records[0].prev == "0" * 64

    def test_double_provision_refused(self, tmp_path, ed25519_key, store):
        store.close()
        with pytest.raises(AlreadyProvisionedError):
            SecureStateStore.provision(ed25519_key.public, tmp_path / "state")

    def test_reset_archives_not_deletes(self, tmp_path, ed25519_key, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="ab" * 32)
        store.commit_version(1)
        store.close()
        s2 = SecureStateStore.provision(
            ed25519_key.public, tmp_path / "state", reset=True, durable=False
        )
        try:
            assert s2.nv_counter == 0
            archives = list((tmp_path / "state").glob("archive-*"))
            assert len(archives) == 1
            assert read_state(archives[0])[1] == 1
            assert (archives[0] / "audit.log").exists()
        finally:
            s2.close()

    def test_a_leftover_counter_and_log_without_state_are_archived(
        self, tmp_path, ed25519_key, store
    ):
        # without state.json the directory is not provisioned, so no reset is
        # needed, and the old chain is kept rather than appended to
        for _ in range(3):
            store.append_audit(AuditEvent.TASK_DENY, reason="x")
        store.close()
        old = {name: (store.path / name).read_bytes() for name in ("counter", "audit.log")}
        (store.path / "state.json").unlink()
        SecureStateStore.provision(ed25519_key.public, store.path, durable=False).close()
        (archive,) = store.path.glob("archive-*")
        assert {name: (archive / name).read_bytes() for name in old} == old
        assert [(r.seq, r.event) for r in read_audit(store.path)] == [(1, AuditEvent.PROVISION)]

    def test_load_unprovisioned_fails(self, tmp_path):
        with pytest.raises(NotProvisionedError):
            SecureStateStore.load(tmp_path / "nothing")

    def test_is_provisioned(self, tmp_path, store):
        assert SecureStateStore.is_provisioned(store.path)
        assert not SecureStateStore.is_provisioned(tmp_path / "elsewhere")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestFailedOpen:
    """A provision or load that fails closes what it opened and releases the
    writer lock, so the next load in the same process succeeds."""

    def test_a_held_writer_lock(self, store, ed25519_key):
        before = open_fds()
        with pytest.raises(StateLockError):
            SecureStateStore.load(store.path, durable=False)
        with pytest.raises(StateLockError):
            SecureStateStore.provision(ed25519_key.public, store.path, reset=True)
        assert open_fds() == before
        store.close()
        SecureStateStore.load(store.path, durable=False).close()

    @pytest.mark.parametrize("damage", [
        lambda path: (path / "state.json").write_text("{broken"),
        lambda path: (path / "counter").unlink(),
        lambda path: (path / "counter").write_bytes(b"x" * 128),
        lambda path: (path / "audit.log").write_bytes(
            (path / "audit.log").read_bytes() + b"not json\n"
        ),
    ], ids=["corrupt-state-json", "missing-counter", "no-valid-slot", "corrupt-last-line"])
    def test_a_damaged_file(self, store, damage):
        store.close()
        saved = {name: (store.path / name).read_bytes()
                 for name in ("state.json", "counter", "audit.log")}
        damage(store.path)
        before = open_fds()
        with pytest.raises(StateError):
            SecureStateStore.load(store.path, durable=False)
        assert open_fds() == before
        for name, data in saved.items():
            (store.path / name).write_bytes(data)
        SecureStateStore.load(store.path, durable=False).close()

    def test_a_crash_at_the_provision_record(self, tmp_path, ed25519_key):
        def crash(boundary):
            raise Boom(boundary)

        before = open_fds()
        with pytest.raises(Boom, match="audit:pre:PROVISION"):
            SecureStateStore.provision(
                ed25519_key.public, tmp_path / "s", durable=False, crash_hook=crash
            )
        assert open_fds() == before
        SecureStateStore.load(tmp_path / "s", durable=False).close()


class TestCounter:
    def test_check_version_is_strict_inequality(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=3)
        store.commit_version(3)
        assert store.check_version(4)
        assert not store.check_version(3)
        assert not store.check_version(2)

    def test_check_version_never_mutates(self, store):
        store.check_version(100)
        assert store.nv_counter == 0

    def test_commit_persists_across_reload(self, tmp_path, store):
        store.commit_version(7)
        store.close()
        s2 = SecureStateStore.load(store.path, durable=False)
        try:
            assert s2.nv_counter == 7
        finally:
            s2.close()

    def test_non_monotonic_commit_refused(self, store):
        store.commit_version(5)
        with pytest.raises(StateError, match="non-monotonic"):
            store.commit_version(5)
        with pytest.raises(StateError, match="non-monotonic"):
            store.commit_version(4)
        assert store.nv_counter == 5

    def test_state_file_survives_reload_bit_exactly(self, store):
        store.commit_version(2)
        raw = {name: (store.path / name).read_bytes() for name in ("state.json", "counter")}
        store.close()
        s2 = SecureStateStore.load(store.path, durable=False)
        s2.close()
        assert {name: (store.path / name).read_bytes() for name in raw} == raw

    def test_a_version_wider_than_a_slot_is_refused(self, store):
        assert not store.check_version(state.MAX_COUNTER + 1)
        with pytest.raises(StateError, match="refusing counter commit"):
            store.commit_version(state.MAX_COUNTER + 1)
        store.commit_version(state.MAX_COUNTER)
        assert read_state(store.path)[1] == state.MAX_COUNTER

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=25))
    def test_counter_tracks_maximum_of_accepted(self, ed25519_key, versions):
        import tempfile

        with tempfile.TemporaryDirectory(prefix="faarm-hyp-") as tmp:
            s = SecureStateStore.provision(ed25519_key.public, tmp, reset=True, durable=False)
            try:
                committed = 0
                for v in versions:
                    if s.check_version(v):
                        s.commit_version(v)
                        committed = v
                    assert s.nv_counter == committed
                assert s.nv_counter == max(versions)
            finally:
                s.close()


class TestAuditChain:
    def test_seq_is_gapless(self, store):
        for i in range(5):
            store.append_audit(AuditEvent.VERIFY_REJECT, reason="rollback")
        seqs = [r.seq for r in read_audit(store.path)]
        assert seqs == list(range(1, 7))  # provision + 5

    def test_chain_verifies_clean(self, store):
        store.append_audit(AuditEvent.LOCK, version=1, digest="cd" * 32)
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="cd" * 32)
        assert check_audit_chain(store.path) == 3

    def test_edited_line_breaks_chain(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1)
        store.append_audit(AuditEvent.TASK_ADMIT, digest="ab" * 32)
        log = store.path / "audit.log"
        lines = log.read_bytes().splitlines()
        lines[1] = lines[1].replace(b'"version":1', b'"version":9')
        log.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(AuditChainError, match="chain broken"):
            check_audit_chain(store.path)

    def test_deleted_line_breaks_chain(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1)
        store.append_audit(AuditEvent.TASK_ADMIT, digest="ab" * 32)
        log = store.path / "audit.log"
        lines = log.read_bytes().splitlines()
        del lines[1]
        log.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(AuditChainError):
            check_audit_chain(store.path)

    def test_truncated_tail_still_verifies_as_prefix(self, store):
        # losing the newest records is detectable only by length, not by the
        # chain itself; the chain must still be internally consistent
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1)
        store.append_audit(AuditEvent.TASK_ADMIT, digest="ab" * 32)
        log = store.path / "audit.log"
        lines = log.read_bytes().splitlines()
        log.write_bytes(b"\n".join(lines[:-1]) + b"\n")
        assert check_audit_chain(store.path) == 2

    def test_garbage_line_is_flagged(self, store):
        log = store.path / "audit.log"
        with open(log, "ab") as fh:
            fh.write(b"not json\n")
        with pytest.raises(AuditChainError):
            check_audit_chain(store.path)

    def test_record_line_roundtrip(self):
        rec = AuditRecord(
            seq=9, time="2025-01-01T00:00:00.000Z", event=AuditEvent.WRITE_DENIED,
            detail="el1 write denied (locked) offset=0 len=4", prev="ab" * 32,
        )
        assert AuditRecord.from_line(rec.to_line()) == rec

    @pytest.mark.parametrize("field, value, message", [
        ("seq", "1", "seq '1' is not a positive integer"),
        ("seq", True, "seq True is not a positive integer"),
        ("seq", 0, "seq 0 is not a positive integer"),
        ("seq", 1.0, "seq 1.0 is not a positive integer"),
        ("seq", None, "seq None is not a positive integer"),
        ("time", 5, "time and prev must be strings"),
        ("prev", None, "time and prev must be strings"),
        ("prev", ["ab"], "time and prev must be strings"),
        ("seq", ..., "'seq'"),  # ... deletes the key
        ("prev", ..., "'prev'"),
    ])
    def test_wrong_typed_or_missing_fields_are_refused(self, field, value, message):
        obj = {"seq": 1, "time": "2025-01-01T00:00:00.000Z", "event": "PROVISION",
               "prev": "ab" * 32}
        obj[field] = value
        if value is ...:
            del obj[field]
        with pytest.raises(StateError) as excinfo:
            AuditRecord.from_line(json.dumps(obj).encode())
        assert str(excinfo.value) == f"invalid audit record ({message})"

    def test_a_last_record_with_a_string_seq_fails_the_load(self, store):
        store.close()
        log = store.path / "audit.log"
        log.write_bytes(log.read_bytes().replace(b'{"seq":1,', b'{"seq":"1",'))
        with pytest.raises(StateError, match="seq '1' is not a positive integer"):
            SecureStateStore.load(store.path, durable=False)

    def test_reader_functions_work_while_writer_open(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1)
        anchor, nv = read_state(store.path)
        assert nv == 0
        assert len(read_audit(store.path)) == 2


class TestSingleWriter:
    def test_second_writer_refused(self, store):
        with pytest.raises(StateLockError):
            SecureStateStore.load(store.path)

    def test_lock_released_on_close(self, store):
        store.close()
        s2 = SecureStateStore.load(store.path, durable=False)
        s2.close()

    def test_closed_store_refuses_writes(self, store):
        store.close()
        with pytest.raises(StateError, match="closed"):
            store.append_audit(AuditEvent.TASK_DENY, reason="x")


class TestCrashWindows:
    def crash_at(self, store, boundary_substr, nth=1):
        seen = {"n": 0}

        def hook(boundary):
            if boundary_substr in boundary:
                seen["n"] += 1
                if seen["n"] == nth:
                    raise Boom(boundary)

        store.crash_hook = hook

    def test_crash_between_accept_append_and_commit(self, tmp_path, ed25519_key):
        # the write-ahead example: audit shows the accept, counter behind it;
        # load commits the logged accept and records that it did
        store = SecureStateStore.provision(
            ed25519_key.public, tmp_path / "s", durable=False
        )
        self.crash_at(store, "commit:pre")
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="aa" * 32)
        with pytest.raises(Boom):
            store.commit_version(1)
        store.close()
        assert read_state(tmp_path / "s")[1] == 0

        reloaded = SecureStateStore.load(tmp_path / "s", durable=False)
        try:
            assert reloaded.nv_counter == 1
            records = read_audit(reloaded.path)
            assert [r.event for r in records] == [
                AuditEvent.PROVISION, AuditEvent.VERIFY_ACCEPT, AuditEvent.RECOVER
            ]
            assert (records[-1].version, records[-1].digest) == (1, "aa" * 32)
            assert check_audit_chain(tmp_path / "s") == 3
        finally:
            reloaded.close()
        assert read_state(tmp_path / "s")[1] == 1
        # a second load finds nothing left to repair
        SecureStateStore.load(tmp_path / "s", durable=False).close()
        assert check_audit_chain(tmp_path / "s") == 3

    def test_crash_before_audit_write_loses_only_that_record(self, tmp_path, ed25519_key):
        store = SecureStateStore.provision(
            ed25519_key.public, tmp_path / "s", durable=False
        )
        self.crash_at(store, "audit:pre:VERIFY_REJECT")
        with pytest.raises(Boom):
            store.append_audit(AuditEvent.VERIFY_REJECT, reason="bad-signature")
        store.close()
        records = read_audit(tmp_path / "s")
        assert [r.event for r in records] == [AuditEvent.PROVISION]
        assert check_audit_chain(tmp_path / "s") == 1

    def test_crash_after_audit_write_keeps_record(self, tmp_path, ed25519_key):
        store = SecureStateStore.provision(
            ed25519_key.public, tmp_path / "s", durable=False
        )
        self.crash_at(store, "audit:post:VERIFY_REJECT")
        with pytest.raises(Boom):
            store.append_audit(AuditEvent.VERIFY_REJECT, reason="bad-signature")
        store.close()
        records = read_audit(tmp_path / "s")
        assert records[-1].event is AuditEvent.VERIFY_REJECT
        assert check_audit_chain(tmp_path / "s") == 2

    def test_reload_after_crash_can_continue_the_chain(self, tmp_path, ed25519_key):
        store = SecureStateStore.provision(
            ed25519_key.public, tmp_path / "s", durable=False
        )
        self.crash_at(store, "commit:pre")
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="aa" * 32)
        with pytest.raises(Boom):
            store.commit_version(1)
        store.close()

        reloaded = SecureStateStore.load(tmp_path / "s", durable=False)
        try:
            # load committed the logged accept, so retrying it is a rollback
            assert reloaded.nv_counter == 1
            assert not reloaded.check_version(1)
            reloaded.append_audit(AuditEvent.VERIFY_ACCEPT, version=2, digest="bb" * 32)
            reloaded.commit_version(2)
            assert reloaded.nv_counter == 2
        finally:
            reloaded.close()
        assert check_audit_chain(tmp_path / "s") == 4


class TestTornLastLine:
    TORN = b'{"seq":99,"ti'

    def test_is_cut_off_and_recorded(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="aa" * 32)
        store.commit_version(1)
        store.append_audit(AuditEvent.TASK_DENY, reason="x")
        before = read_audit(store.path)
        store.close()
        with open(store.path / "audit.log", "ab") as fh:
            fh.write(self.TORN)
        reloaded = SecureStateStore.load(store.path, durable=False)
        try:
            assert reloaded.nv_counter == 1
            records = read_audit(reloaded.path)
        finally:
            reloaded.close()
        assert records[:-1] == before
        assert records[-1].event is AuditEvent.RECOVER
        assert records[-1].detail == f"truncated a torn last line of {len(self.TORN)} bytes"
        assert check_audit_chain(store.path) == len(before) + 1

    def test_a_log_that_is_one_torn_line_restarts_the_chain(self, store):
        store.close()
        (store.path / "audit.log").write_bytes(self.TORN)
        SecureStateStore.load(store.path, durable=False).close()
        records = read_audit(store.path)
        assert [(r.seq, r.event, r.prev) for r in records] == [
            (1, AuditEvent.RECOVER, "0" * 64)
        ]

    def test_torn_line_after_an_uncommitted_accept_is_cut_and_the_accept_committed(
        self, store
    ):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=3, digest="cc" * 32)
        store.close()
        with open(store.path / "audit.log", "ab") as fh:
            fh.write(self.TORN)
        SecureStateStore.load(store.path, durable=False).close()
        assert read_state(store.path)[1] == 3
        recovered = read_audit(store.path)[-2:]
        assert [(r.event, r.version) for r in recovered] == [
            (AuditEvent.RECOVER, None), (AuditEvent.RECOVER, 3)
        ]
        assert check_audit_chain(store.path) == 4

    @pytest.mark.parametrize(
        "tail", [b"not json\n", b"not json\n" + TORN], ids=["whole", "whole+torn"]
    )
    def test_a_corrupt_whole_last_line_stays_fatal(self, store, tail):
        store.close()
        log = store.path / "audit.log"
        with open(log, "ab") as fh:
            fh.write(tail)
        raw = log.read_bytes()
        with pytest.raises(StateError):
            SecureStateStore.load(store.path, durable=False)
        assert log.read_bytes() == raw

    def test_load_reads_only_the_tail(self, store, monkeypatch):
        for i in range(600):
            store.append_audit(AuditEvent.WRITE_DENIED, detail=f"el1 write denied offset={i}")
        store.close()
        log = store.path / "audit.log"
        with open(log, "ab") as fh:
            fh.write(self.TORN)
        block = 256
        assert log.stat().st_size > 100 * block
        read = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                read.append(len(data))
                return data

        real_open = open
        monkeypatch.setattr(state, "_TAIL_BLOCK", block)
        monkeypatch.setattr(
            state, "open",
            lambda path, mode="r": CountingFile(path) if mode == "rb" else real_open(path, mode),
            raising=False,
        )
        SecureStateStore.load(store.path, durable=False).close()
        assert 0 < sum(read) <= 3 * block
        assert read_audit(store.path)[-1].event is AuditEvent.RECOVER


class TestStateFileCorruption:
    def test_corrupt_state_json_is_reported(self, tmp_path, ed25519_key):
        store = SecureStateStore.provision(ed25519_key.public, tmp_path / "s", durable=False)
        store.close()
        (tmp_path / "s" / "state.json").write_text("{broken")
        with pytest.raises(StateError, match="corrupt"):
            read_state(tmp_path / "s")

    def test_negative_counter_is_reported(self, tmp_path, ed25519_key):
        # both slots hold -1 with a check that matches it: no slot is valid
        store = SecureStateStore.provision(ed25519_key.public, tmp_path / "s", durable=False)
        store.close()
        negative = counter_slot(b"-%019d" % 1, ed25519_key.public)
        (tmp_path / "s" / "counter").write_bytes(2 * negative)
        with pytest.raises(StateError, match="counter"):
            read_state(tmp_path / "s")
        with pytest.raises(StateError, match="counter"):
            SecureStateStore.load(tmp_path / "s", durable=False)

    def test_a_directory_without_a_counter_file_must_be_reset(self, tmp_path, ed25519_key):
        # the layout before the counter file: the counter was a key of state.json
        path = tmp_path / "s"
        SecureStateStore.provision(ed25519_key.public, path, durable=False).close()
        (path / "counter").unlink()
        anchor = ed25519_key.public.to_file_bytes().hex()
        (path / "state.json").write_text(json.dumps({"anchor": anchor, "nv_counter": 3}))
        for open_it in (read_state, SecureStateStore.load):
            with pytest.raises(StateError, match="no counter file.*--reset"):
                open_it(path)
        SecureStateStore.provision(ed25519_key.public, path, reset=True, durable=False).close()
        assert read_state(path)[1] == 0


class TestCounterSlots:
    """The counter file: two 64-byte slots, overwritten in place by turns."""

    @staticmethod
    def slot(store, nv):
        return counter_slot(b"%020d" % nv, store.anchor)

    def test_the_file_is_two_text_slots_written_by_turns(self, store):
        counter = store.path / "counter"
        assert counter.read_bytes() == self.slot(store, 0) + b" " * 63 + b"\n"
        store.commit_version(12)
        assert counter.read_bytes() == self.slot(store, 0) + self.slot(store, 12)
        store.commit_version(40)
        assert counter.read_bytes() == self.slot(store, 40) + self.slot(store, 12)

    @pytest.mark.parametrize("committed", [0, 7])
    def test_every_torn_write_of_a_slot_reads_old_or_new(self, store, committed):
        if committed:
            store.commit_version(committed)
        store.close()
        counter = store.path / "counter"
        before = counter.read_bytes()
        assert len(before) == 128
        other = 64 - before.index(self.slot(store, committed))  # where the next commit writes
        new = self.slot(store, committed + 2)
        for k in range(65):
            torn = before[:other] + new[:k] + before[other + k:]
            counter.write_bytes(torn)
            # new once the slot is whole: its last byte, the line end, was already there
            whole = torn[other:other + 64] == new
            assert read_state(store.path)[1] == (committed + 2 if whole else committed), k
        # the store resumes from the new value and writes over the older slot
        with SecureStateStore.load(store.path, durable=False) as reloaded:
            reloaded.commit_version(committed + 3)
        assert counter.read_bytes()[other:other + 64] == new
        assert read_state(store.path)[1] == committed + 3

    def test_garbage_in_the_slot_a_commit_writes_is_skipped(self, store):
        store.commit_version(5)  # slot 1 holds 5, so slot 0 is the one the next commit writes
        store.close()
        counter = store.path / "counter"
        current = counter.read_bytes()[64:]

        @settings(max_examples=200, deadline=None)
        @given(st.binary(min_size=64, max_size=64) | st.builds(
            lambda nv, rest: b"%020d " % nv + rest,
            st.integers(0, state.MAX_COUNTER), st.binary(min_size=43, max_size=43),
        ))
        def check(garbage):
            counter.write_bytes(garbage + current)
            assert read_state(store.path)[1] == 5

        check()

    def test_a_commit_writes_one_slot_in_place_and_fsyncs_once(
        self, tmp_path, ed25519_key, monkeypatch
    ):
        store = SecureStateStore.provision(ed25519_key.public, tmp_path / "s", durable=True)
        counter_ino = (tmp_path / "s" / "counter").stat().st_ino
        real_fsync = state.os.fsync
        fsynced = []

        def counting_fsync(fd):
            fsynced.append(state.os.fstat(fd).st_ino)
            real_fsync(fd)

        def refuse(*args, **kwargs):
            raise AssertionError("a counter commit must create, truncate or rename nothing")

        with monkeypatch.context() as patch:
            for name in ("open", "replace", "rename", "truncate", "ftruncate"):
                patch.setattr(state.os, name, refuse)
            patch.setattr(state.os, "fsync", counting_fsync)
            store.commit_version(3)
            store.commit_version(4)
        store.close()
        assert fsynced == [counter_ino, counter_ino]  # one per commit, never the directory
        assert read_state(tmp_path / "s")[1] == 4


def full_scan_tail(audit_path: Path) -> tuple:
    """Reference: the whole log read at once; the last record that ends in a
    line end, its line hash, and the length of the bytes after the last line
    end."""
    content = audit_path.read_bytes() if audit_path.exists() else b""
    end = max(content.rfind(b"\n"), content.rfind(b"\r")) + 1
    lines = [line for line in content[:end].splitlines() if line]
    if not lines:
        return None, "0" * 64, len(content) - end
    last_line = lines[-1]
    return (
        AuditRecord.from_line(last_line),
        hashlib.sha256(last_line).hexdigest(),
        len(content) - end,
    )


def last(items: list, n: int) -> list:
    """The last n items; none for n == 0 (unlike items[-0:])."""
    return items[max(len(items) - n, 0) :]


def outcome(scan, audit_path: Path):
    try:
        return scan(audit_path)
    except StateError as exc:
        return f"StateError: {exc}"


class TestAuditTail:
    def test_missing_and_empty_log_are_genesis(self, tmp_path):
        log = tmp_path / "audit.log"
        assert state._scan_audit_tail(log) == (None, "0" * 64, 0)
        log.write_bytes(b"")
        assert state._scan_audit_tail(log) == (None, "0" * 64, 0)
        log.write_bytes(b"\n\r\n\n" * 40_000)
        assert state._scan_audit_tail(log) == (None, "0" * 64, 0)

    @pytest.mark.parametrize("last_detail", [10, 3 * state._TAIL_BLOCK], ids=["short", "long"])
    def test_matches_full_scan_on_a_log_larger_than_one_block(self, store, last_detail):
        for i in range(600):
            store.append_audit(AuditEvent.WRITE_DENIED, detail=f"el1 write denied offset={i}")
        record = store.append_audit(AuditEvent.TASK_DENY, detail="d" * last_detail)
        log = store.path / "audit.log"
        assert log.stat().st_size > state._TAIL_BLOCK
        expected = full_scan_tail(log)
        assert expected[:2] == (record, hashlib.sha256(record.to_line()).hexdigest())
        assert state._scan_audit_tail(log) == expected
        records = read_audit(store.path)
        for n in (0, 1, 5, len(records) + 3):
            assert read_audit_tail(store.path, n) == last(records, n)
        store.close()
        reloaded = SecureStateStore.load(store.path, durable=False)
        try:
            reloaded.append_audit(AuditEvent.TASK_DENY, reason="x")
        finally:
            reloaded.close()
        assert check_audit_chain(store.path) == record.seq + 1

    def test_unparseable_last_line_raises_the_same_error(self, store):
        log = store.path / "audit.log"
        with open(log, "ab") as fh:
            fh.write(b"x" * (state._TAIL_BLOCK + 5) + b"\n")
        expected = outcome(full_scan_tail, log)
        assert expected.startswith("StateError: ")
        assert outcome(state._scan_audit_tail, log) == expected

    log_parts = st.lists(
        st.tuples(
            st.one_of(st.integers(0, 200), st.binary(max_size=40)),
            st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\r\n"]),
        ),
        max_size=8,
    )

    @staticmethod
    def log_content(parts, ends_with_newline: bool) -> bytes:
        """Audit records (int: detail length) or raw garbage, joined by the
        given line ends."""
        content = b""
        for seq, (body, sep) in enumerate(parts, start=1):
            if isinstance(body, int):
                body = AuditRecord(
                    seq=seq, time="2025-01-01T00:00:00.000Z",
                    event=AuditEvent.TASK_DENY, detail="d" * body,
                ).to_line()
            content += body + sep
        if content and not ends_with_newline:
            content = content.rstrip(b"\r\n")
        return content

    @given(log_parts, st.booleans(), st.integers(1, 64))
    def test_matches_full_scan_at_any_block_size(self, parts, ends_with_newline, block):
        content = self.log_content(parts, ends_with_newline)
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "audit.log"
            log.write_bytes(content)
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                assert outcome(state._scan_audit_tail, log) == outcome(full_scan_tail, log)

    @given(log_parts, st.booleans(), st.integers(1, 64))
    def test_last_n_records_match_a_full_read_at_any_block_size(
        self, parts, ends_with_newline, block
    ):
        content = self.log_content(parts, ends_with_newline)
        end = max(content.rfind(b"\n"), content.rfind(b"\r")) + 1
        lines = [line for line in content[:end].splitlines() if line]
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "audit.log").write_bytes(content)
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                for n in (0, 1, 5, len(lines) + 1):
                    expected = outcome(
                        lambda tail: [AuditRecord.from_line(line) for line in tail],
                        last(lines, n),
                    )
                    assert outcome(lambda path: read_audit_tail(path, n), tmp) == expected


def reference_chain(content: bytes) -> int:
    """Reference: the chain walk over the whole log split at once, up to its
    last line end."""
    end = max(content.rfind(b"\n"), content.rfind(b"\r")) + 1
    lines = content[:end].splitlines()
    prev = "0" * 64
    for line_no, line in enumerate(lines, start=1):
        if not line:
            raise AuditChainError(line_no, "blank line inside the log")
        try:
            record = AuditRecord.from_line(line)
        except StateError as exc:
            raise AuditChainError(line_no, str(exc)) from None
        if record.prev != prev:
            raise AuditChainError(line_no, "hash chain broken")
        if record.seq != line_no:
            raise AuditChainError(line_no, f"sequence gap: expected {line_no}, got {record.seq}")
        prev = hashlib.sha256(line).hexdigest()
    return len(lines)


def chain_outcome(check, arg):
    try:
        return check(arg)
    except AuditChainError as exc:
        return exc.line_no, str(exc)


class TestChainWalk:
    records = st.lists(
        st.tuples(st.integers(0, 200), st.sampled_from([b"\n", b"\r\n", b"\r"])), max_size=10
    )
    # at most one extra part, at any index: garbage, or a record followed by
    # a blank line, breaks the chain where it stands
    fault = st.none() | st.tuples(
        st.integers(0, 10),
        st.tuples(
            st.binary(max_size=40) | st.integers(0, 200),
            st.sampled_from([b"\n\n", b"\r\r\n", b"\n"]),
        ),
    )

    @staticmethod
    def chained_content(parts, ends_with_newline: bool) -> bytes:
        """Records linked to the line before them, with the line number as
        their seq, or raw garbage, joined by the given line ends."""
        content = b""
        for body, sep in parts:
            if isinstance(body, int):
                lines = content.splitlines()
                body = AuditRecord(
                    seq=len(lines) + 1, time="2025-01-01T00:00:00.000Z",
                    event=AuditEvent.TASK_DENY, detail="d" * body,
                    prev=hashlib.sha256(lines[-1]).hexdigest() if lines else "0" * 64,
                ).to_line()
            content += body + sep
        if content and not ends_with_newline:
            content = content.rstrip(b"\r\n")
        return content

    @given(records, fault, st.booleans(), st.integers(1, 64))
    def test_matches_a_full_split_at_any_block_size(self, parts, fault, ends_with_newline, block):
        if fault is not None:
            parts.insert(fault[0], fault[1])
        content = self.chained_content(parts, ends_with_newline)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "audit.log").write_bytes(content)
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                assert chain_outcome(check_audit_chain, tmp) == chain_outcome(
                    reference_chain, content
                )


def reference_line(record: AuditRecord) -> bytes:
    """The record line as json.dumps writes it; AuditRecord.to_line must
    produce the same bytes."""
    obj = {"seq": record.seq, "time": record.time, "event": record.event.value}
    for key in ("version", "reason", "digest", "detail"):
        value = getattr(record, key)
        if value is not None:
            obj[key] = value
    obj["prev"] = record.prev
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def line_outcome(line_of, record: AuditRecord):
    try:
        return line_of(record)
    except (UnicodeEncodeError, ValueError) as exc:
        return type(exc)


tricky_text = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(
        ['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\u2028", "\u2029",
         "\U0001f512", "é", "\ud800", "a", " "]
    )),
)
# what a hand-edited last line can hand load(), which copies it into RECOVER
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | tricky_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(tricky_text, inner, max_size=3),
    max_leaves=6,
)


class TestRecordLine:
    @settings(max_examples=500)
    @given(
        seq=st.integers(min_value=0) | json_value,
        time=tricky_text,
        event=st.sampled_from(AuditEvent),
        version=st.none() | st.integers() | st.booleans() | json_value,
        reason=st.none() | tricky_text,
        digest=st.none() | tricky_text | json_value,
        detail=st.none() | tricky_text,
        prev=tricky_text | json_value,
    )
    def test_matches_json_dumps(self, seq, time, event, version, reason, digest, detail, prev):
        record = AuditRecord(seq, time, event, version, reason, digest, detail, prev)
        assert line_outcome(AuditRecord.to_line, record) == line_outcome(reference_line, record)

    @settings(max_examples=200)
    @given(
        event=st.sampled_from(AuditEvent),
        version=st.none() | st.integers() | st.booleans() | json_value,
        reason=st.none() | tricky_text,
        digest=st.none() | tricky_text | json_value,
        detail=st.none() | tricky_text,
    )
    def test_appended_lines_match_json_dumps(
        self, ed25519_key, event, version, reason, digest, detail
    ):
        fields = dict(version=version, reason=reason, digest=digest, detail=detail)
        with tempfile.TemporaryDirectory() as tmp:
            store = SecureStateStore.provision(ed25519_key.public, tmp, durable=False)
            try:
                log = Path(tmp) / "audit.log"
                before = log.read_bytes()
                try:
                    record = store.append_audit(event, **fields)
                except (UnicodeEncodeError, ValueError) as exc:
                    # json.dumps cannot write the fields either, and nothing is written
                    unwritable = AuditRecord(2, "t", event, **fields)
                    assert line_outcome(reference_line, unwritable) is type(exc)
                    assert log.read_bytes() == before
                    records = 1
                else:
                    line = log.read_bytes()[len(before):]
                    assert line == record.to_line() + b"\n" == reference_line(record) + b"\n"
                    assert (record.seq, record.event) == (2, event)
                    records = 2
                assert check_audit_chain(tmp) == records
            finally:
                store.close()

    def test_written_lines_match_json_dumps(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=True, digest=["x", 1.5])
        store.append_audit(AuditEvent.VERIFY_REJECT, version=2**70, reason='q"\\',
                           detail="\u2028\x01\U0001f512")
        for line in (store.path / "audit.log").read_bytes().splitlines():
            record = AuditRecord.from_line(line)
            assert record.to_line() == reference_line(record) == line

    def test_time_is_utc_with_milliseconds(self):
        before = datetime.now(timezone.utc)
        stamp = state._now()
        after = datetime.now(timezone.utc)
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z", stamp)
        parsed = datetime.fromisoformat(stamp[:-1] + "+00:00")
        assert before - timedelta(milliseconds=1) < parsed <= after


class TestTornTailReaders:
    TORN = TestTornLastLine.TORN

    def test_readers_leave_a_torn_tail_out_and_never_write(self, store):
        store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="aa" * 32)
        store.append_audit(AuditEvent.TASK_DENY, reason="x")
        records = read_audit(store.path)
        assert state.torn_tail_bytes(store.path) == 0
        log = store.path / "audit.log"
        with open(log, "ab") as fh:
            fh.write(self.TORN)
        raw = log.read_bytes()
        assert read_audit(store.path) == records
        assert read_audit_tail(store.path, 1) == records[-1:]
        assert read_audit_tail(store.path, 9) == records
        assert list(state.iter_audit_backwards(store.path)) == records[::-1]
        assert check_audit_chain(store.path) == len(records)
        assert state.torn_tail_bytes(store.path) == len(self.TORN)
        assert log.read_bytes() == raw

    def test_a_line_longer_than_a_block_is_read_in_doubling_steps(self, tmp_path, monkeypatch):
        # re-splitting the carried line once per fixed-size block would make
        # a long line cost quadratic time
        (tmp_path / "audit.log").write_bytes(b"x" * 10_000 + b"\n" + b"y" * 100_000)
        reads = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

        monkeypatch.setattr(state, "_TAIL_BLOCK", 16)
        monkeypatch.setattr(state, "open", lambda path, mode: CountingFile(path), raising=False)
        assert state.torn_tail_bytes(tmp_path) == 100_000
        assert len(reads) <= 14 and sum(reads) <= 2 * 100_000
        reads.clear()
        assert list(state._lines_backwards(tmp_path / "audit.log")) == [b"y" * 100_000, b"x" * 10_000]
        assert len(reads) <= 15 and sum(reads) == 110_001

    def test_missing_log(self, tmp_path):
        assert read_audit(tmp_path) == []
        assert list(state.iter_audit_backwards(tmp_path)) == []
        assert check_audit_chain(tmp_path) == 0
        assert state.torn_tail_bytes(tmp_path) == 0

    @given(TestAuditTail.log_parts, st.booleans(), st.integers(1, 64))
    def test_backwards_reader_matches_a_full_read_at_any_block_size(
        self, parts, ends_with_newline, block
    ):
        content = TestAuditTail.log_content(parts, ends_with_newline)
        end = max(content.rfind(b"\n"), content.rfind(b"\r")) + 1
        whole_lines = [line for line in content[:end].splitlines() if line]
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "audit.log").write_bytes(content)
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                assert state.torn_tail_bytes(tmp) == len(content) - end
                if all(isinstance(body, int) for body, _ in parts):
                    records = read_audit(tmp)
                    assert [r.to_line() for r in records] == whole_lines
                    assert list(state.iter_audit_backwards(tmp)) == records[::-1]
