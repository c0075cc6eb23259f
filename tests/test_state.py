import hashlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
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
        records = store.read_records()
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
            assert (archives[0] / "state.json").exists()
            assert (archives[0] / "audit.log").exists()
        finally:
            s2.close()

    def test_load_unprovisioned_fails(self, tmp_path):
        with pytest.raises(NotProvisionedError):
            SecureStateStore.load(tmp_path / "nothing")

    def test_is_provisioned(self, tmp_path, store):
        assert SecureStateStore.is_provisioned(store.path)
        assert not SecureStateStore.is_provisioned(tmp_path / "elsewhere")


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
        raw = (store.path / "state.json").read_bytes()
        store.close()
        s2 = SecureStateStore.load(store.path, durable=False)
        s2.close()
        assert (store.path / "state.json").read_bytes() == raw

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
        seqs = [r.seq for r in store.read_records()]
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
            records = reloaded.read_records()
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
            records = reloaded.read_records()
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
        store = SecureStateStore.provision(ed25519_key.public, tmp_path / "s", durable=False)
        store.close()
        state_path = tmp_path / "s" / "state.json"
        obj = json.loads(state_path.read_text())
        obj["nv_counter"] = -1
        state_path.write_text(json.dumps(obj))
        with pytest.raises(StateError, match="counter"):
            read_state(tmp_path / "s")


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
        lines = [line for line in content.splitlines() if line]
        all_records = all(isinstance(body, int) for body, _ in parts)
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "audit.log"
            log.write_bytes(content)
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                for n in (0, 1, 5, len(lines) + 1):
                    assert state._tail_lines(log, n) == last(lines, n)
                    if all_records:
                        assert read_audit_tail(tmp, n) == last(read_audit(tmp), n)
