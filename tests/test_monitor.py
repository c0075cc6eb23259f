import errno
import io
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import faarm.mcu
import faarm.monitor
from faarm import packaging, state
from faarm.crypto import Digest, Signature, hash_data, keygen, SignatureScheme
from faarm.mcu import HookPoint, LockMode, LockState, WriteOutcome
from faarm.monitor import (
    EXIT_CODES,
    AuthToken,
    MonitorError,
    MonitorStatus,
    Phase,
    RejectionReason,
    ReplayError,
    derive_status,
    replay_protocol_invariants,
)
from faarm.packaging import FLAG_REQUIRES_LOCK, FirmwarePackage, canonical_bytes, write_bundle
from faarm.state import AuditEvent, SecureStateStore, StateError, check_audit_chain, read_audit

from conftest import traced_peak, write_container

FW = bytes(range(256)) * 8  # 2 KiB
GIB = 1 << 30


def events_of(env):
    return [r.event for r in read_audit(env.store.path)]


def write_sparse_image_bundle(path, image_size, manifest_raw, signature):
    """A bundle (directory, or .pkg by suffix) whose image is image_size zero
    bytes left as a hole: a tampered image that costs no disk."""
    if path.suffix == ".pkg":
        return write_container(path, (image_size, manifest_raw, signature))
    path.mkdir()
    (path / "manifest.json").write_bytes(manifest_raw)
    (path / "firmware.sig").write_bytes(signature)
    (path / "firmware.bin").write_bytes(b"")
    os.truncate(path / "firmware.bin", image_size)
    return path


class TestAcceptPath:
    def test_good_package_is_accepted_and_locked(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        assert result.accepted
        assert result.reason is None
        assert result.exit_code == 0
        assert result.version == 1
        assert result.digest == hash_data(FW)
        assert env.region.read() == FW
        assert env.region.lock_state is LockState.LOCKED
        assert env.store.nv_counter == 1
        assert env.monitor.phase is Phase.LOADED_LOCKED

    def test_token_is_bound_to_version_and_digest(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        assert result.token is not None
        assert result.token.version == 1
        assert result.token.digest_hex == hash_data(FW).hex
        assert len(result.token.token_id) == 32

    def test_audit_shows_lock_then_accept(self, env):
        env.monitor.verify_and_lock(env.package(FW, 1))
        events = events_of(env)
        assert events.index(AuditEvent.LOCK) < events.index(AuditEvent.VERIFY_ACCEPT)

    def test_update_replaces_old_version(self, env):
        env.monitor.verify_and_lock(env.package(FW, 1))
        new_fw = FW[::-1]
        result = env.monitor.verify_and_lock(env.package(new_fw, 2))
        assert result.accepted
        assert env.region.read() == new_fw
        assert env.region.lock_state is LockState.LOCKED
        assert env.store.nv_counter == 2

    def test_new_load_invalidates_old_token(self, env):
        first = env.monitor.verify_and_lock(env.package(FW, 1))
        env.monitor.verify_and_lock(env.package(FW[::-1], 2))
        denied = env.monitor.submit_task(first.token, b"ENC1payload")
        assert not denied.admitted
        assert denied.reason == "invalid-token"

    def test_each_accepted_load_hashes_the_image_once(self, env, monkeypatch):
        hashed = []

        def counting_hash(data):
            hashed.append(len(data))
            return hash_data(data)

        monkeypatch.setattr(faarm.monitor, "hash_data", counting_hash)
        monkeypatch.setattr(faarm.mcu, "hash_data", counting_hash)
        # the second load also covers the update path out of a locked region
        for version, image in ((1, FW), (2, FW[::-1])):
            hashed.clear()
            assert env.monitor.verify_and_lock(env.package(image, version)).accepted
            assert hashed == [len(image)]


class TestRejections:
    def assert_nothing_committed(self, env, before_digest, before_nv, before_phase):
        assert env.store.nv_counter == before_nv
        assert env.region.digest() == before_digest
        assert env.monitor.phase is before_phase

    def test_tampered_firmware_is_hash_mismatch(self, env):
        pkg = env.package(FW, 1)
        flipped = bytes([FW[0] ^ 0x01]) + FW[1:]
        evil = FirmwarePackage(flipped, pkg.manifest, pkg.signature)
        before = env.region.digest()
        result = env.monitor.verify_and_lock(evil)
        assert not result.accepted
        assert result.reason is RejectionReason.HASH_MISMATCH
        assert result.exit_code == 11
        self.assert_nothing_committed(env, before, 0, Phase.IDLE)

    def test_forged_signature_is_bad_signature(self, env):
        pkg = env.package(FW, 1)
        evil = FirmwarePackage(pkg.firmware, pkg.manifest, Signature(bytes(64)))
        result = env.monitor.verify_and_lock(evil)
        assert result.reason is RejectionReason.BAD_SIGNATURE
        assert result.exit_code == 10

    def test_wrong_vendor_key_is_bad_signature(self, env):
        intruder = keygen(SignatureScheme.ED25519, seed=666, allow_seeded=True)
        from faarm.packaging import build_package

        evil = build_package(
            FW, version=1, mcu_id=env.monitor.mcu_id, key=intruder,
            timestamp="2025-10-10T12:00:00Z",
        )
        result = env.monitor.verify_and_lock(evil)
        assert result.reason is RejectionReason.BAD_SIGNATURE

    def test_replayed_version_is_rollback(self, env):
        env.monitor.verify_and_lock(env.package(FW, 3))
        before = env.region.digest()
        result = env.monitor.verify_and_lock(env.package(FW[::-1], 3))
        assert result.reason is RejectionReason.ROLLBACK
        assert result.exit_code == 12
        self.assert_nothing_committed(env, before, 3, Phase.LOADED_LOCKED)

    def test_older_version_is_rollback(self, env):
        env.monitor.verify_and_lock(env.package(FW, 3))
        result = env.monitor.verify_and_lock(env.package(FW[::-1], 2))
        assert result.reason is RejectionReason.ROLLBACK

    def test_unknown_flag_is_rejected(self, env):
        pkg = env.package(FW, 1, flags=("requires_lock", "debug_unlock"))
        result = env.monitor.verify_and_lock(pkg)
        assert result.reason is RejectionReason.UNKNOWN_FLAG
        assert result.exit_code == 13

    def test_wrong_mcu_id_is_malformed_bundle(self, env):
        pkg = env.package(FW, 1, mcu_id="SOME-OTHER-MCU")
        result = env.monitor.verify_and_lock(pkg)
        assert result.reason is RejectionReason.MALFORMED_BUNDLE
        assert result.exit_code == 15

    @pytest.mark.parametrize("source", ["memory", "memory-bytearray", "bundle", "bundle.pkg"])
    def test_oversize_firmware_is_rejected(self, make_env, tmp_path, source):
        # from disk: a sparse 1 GiB tampered image, rejected without being read;
        # in memory: a 64 MiB bytearray, rejected without being copied
        env = make_env(capacity=1024)
        if source.startswith("memory"):
            size = 2048 if source == "memory" else 64 << 20
            package = env.package(bytes(2048), 1)
            if source == "memory-bytearray":
                package = package._replace(firmware=bytearray(size))
            result, peak = traced_peak(lambda: env.monitor.verify_and_lock(package))
        else:
            size = GIB
            package = env.package(FW, 1)
            path = write_sparse_image_bundle(
                tmp_path / source, size, canonical_bytes(package.manifest),
                package.signature.data,
            )
            result, peak = traced_peak(lambda: env.monitor.verify_bundle(path))
        assert result.reason is RejectionReason.OVERSIZE
        assert result.exit_code == 16
        assert result.detail == f"{size} bytes exceeds region capacity 1024"
        assert result.version == 1
        assert peak < 1 << 20
        assert env.region.size() == 0
        assert env.store.nv_counter == 0
        rejects = [r for r in read_audit(env.store.path) if r.event is AuditEvent.VERIFY_REJECT]
        assert [(r.reason, r.version, r.detail) for r in rejects] == [
            ("oversize", 1, result.detail)
        ]

    def test_lock_fault_with_requires_lock_rejects_and_restores(self, env):
        env.monitor.verify_and_lock(env.package(FW, 1))
        env.region.fail_next_lock = True
        result = env.monitor.verify_and_lock(env.package(FW[::-1], 2))
        assert result.reason is RejectionReason.LOCK_FAILED
        assert result.exit_code == 14
        # old image, still locked, counter untouched
        assert env.region.read() == FW
        assert env.region.lock_state is LockState.LOCKED
        assert env.store.nv_counter == 1

    def test_lock_fault_without_requires_lock_is_tolerated(self, env):
        env.region.fail_next_lock = True
        result = env.monitor.verify_and_lock(env.package(FW, 1, flags=()))
        assert result.accepted
        assert env.region.lock_state is LockState.UNLOCKED
        assert env.region.read() == FW
        # the monitor still answers sessions via direct digest comparison
        assert env.monitor.session_start() is True

    def test_every_rejection_appends_exactly_one_reject_record(self, env):
        pkg = env.package(FW, 1)
        evil = FirmwarePackage(pkg.firmware, pkg.manifest, Signature(bytes(64)))
        env.monitor.verify_and_lock(evil)
        records = read_audit(env.store.path)
        rejects = [r for r in records if r.event is AuditEvent.VERIFY_REJECT]
        assert len(rejects) == 1
        assert rejects[0].reason == "bad-signature"
        assert AuditEvent.LOCK not in [r.event for r in records]

    def test_hash_checked_before_signature(self, env):
        # both hash and signature are wrong; hash-mismatch must win the order
        pkg = env.package(FW, 1)
        flipped = bytes([FW[0] ^ 0x01]) + FW[1:]
        evil = FirmwarePackage(flipped, pkg.manifest, Signature(bytes(64)))
        result = env.monitor.verify_and_lock(evil)
        assert result.reason is RejectionReason.HASH_MISMATCH

    def test_signature_checked_before_rollback(self, env):
        env.monitor.verify_and_lock(env.package(FW, 5))
        pkg = env.package(FW[::-1], 1)
        evil = FirmwarePackage(pkg.firmware, pkg.manifest, Signature(bytes(64)))
        result = env.monitor.verify_and_lock(evil)
        assert result.reason is RejectionReason.BAD_SIGNATURE

    @pytest.mark.parametrize("entry", ["verify_and_lock", "bundle", "bundle.pkg"])
    @pytest.mark.parametrize("fault, own_reason", [
        ("tampered-image", RejectionReason.HASH_MISMATCH),
        ("zeroed-signature", RejectionReason.BAD_SIGNATURE),
        ("wrong-mcu-id", RejectionReason.MALFORMED_BUNDLE),
        ("old-version", RejectionReason.ROLLBACK),
        ("unknown-flag", RejectionReason.UNKNOWN_FLAG),
    ], ids=lambda v: getattr(v, "value", v))
    def test_size_checked_before_every_other_gate(
        self, make_env, tmp_path, monkeypatch, fault, own_reason, entry
    ):
        env = make_env(capacity=1024)
        assert env.monitor.verify_and_lock(env.package(FW[:1024], 5)).accepted
        image = FW * 2
        kwargs = {
            "wrong-mcu-id": {"mcu_id": "SOME-OTHER-MCU"},
            "unknown-flag": {"flags": (FLAG_REQUIRES_LOCK, "debug_unlock")},
        }.get(fault, {})
        version = 1 if fault == "old-version" else 6
        pkg = env.package(image, version, **kwargs)
        if fault == "tampered-image":
            pkg = pkg._replace(firmware=bytes([image[0] ^ 1]) + image[1:])
        elif fault == "zeroed-signature":
            pkg = pkg._replace(signature=Signature(bytes(64)))
        if entry == "verify_and_lock":
            run = lambda: env.monitor.verify_and_lock(pkg)  # noqa: E731
        else:
            path = write_bundle(pkg, tmp_path / entry)
            run = lambda: env.monitor.verify_bundle(path)  # noqa: E731

        hashed = []
        monkeypatch.setattr(faarm.monitor, "hash_data", hashed.append)
        result = run()
        assert result.reason is RejectionReason.OVERSIZE
        assert result.detail == f"{len(image)} bytes exceeds region capacity 1024"
        assert result.version == version
        assert hashed == []
        assert env.store.nv_counter == 5
        assert env.region.read() == FW[:1024]

        # with room for the image, the same bundle fails on its own fault
        monkeypatch.undo()
        env.region.capacity = len(image)
        assert run().reason is own_reason


TIMING_CASES = {
    # case: (reason, verify_ms > 0, lock_ms > 0)
    "unparsable": (RejectionReason.MALFORMED_BUNDLE, False, False),
    "oversize": (RejectionReason.OVERSIZE, False, False),
    "tampered-image": (RejectionReason.HASH_MISMATCH, True, False),
    "zeroed-signature": (RejectionReason.BAD_SIGNATURE, True, False),
    "wrong-mcu-id": (RejectionReason.MALFORMED_BUNDLE, True, False),
    "old-version": (RejectionReason.ROLLBACK, True, False),
    "unknown-flag": (RejectionReason.UNKNOWN_FLAG, True, False),
    "lock-failed": (RejectionReason.LOCK_FAILED, True, True),
    "accepted": (None, True, True),
}


class TestStageTimings:
    @pytest.mark.parametrize("case, entry", [
        (case, entry)
        for case in TIMING_CASES
        for entry in ("verify_and_lock", "bundle")
        if (case, entry) != ("unparsable", "verify_and_lock")  # only a bundle is parsed
    ])
    def test_a_stage_is_timed_only_when_the_load_reaches_it(
        self, make_env, tmp_path, case, entry
    ):
        reason, verify_ran, lock_ran = TIMING_CASES[case]
        env = make_env(capacity=len(FW))
        assert env.monitor.verify_and_lock(env.package(FW, 5)).accepted
        image = FW * 2 if case == "oversize" else FW[::-1]
        kwargs = {
            "wrong-mcu-id": {"mcu_id": "SOME-OTHER-MCU"},
            "unknown-flag": {"flags": (FLAG_REQUIRES_LOCK, "debug_unlock")},
        }.get(case, {})
        pkg = env.package(image, 1 if case == "old-version" else 6, **kwargs)
        if case == "tampered-image":
            pkg = pkg._replace(firmware=bytes([image[0] ^ 1]) + image[1:])
        elif case == "zeroed-signature":
            pkg = pkg._replace(signature=Signature(bytes(64)))
        elif case == "lock-failed":
            env.region.fail_next_lock = True
        if entry == "verify_and_lock":
            result = env.monitor.verify_and_lock(pkg)
        else:
            path = write_bundle(pkg, tmp_path / "bundle")
            if case == "unparsable":
                (path / "manifest.json").write_bytes(b" " + canonical_bytes(pkg.manifest))
            result = env.monitor.verify_bundle(path)

        assert result.reason is reason
        verify_ms, lock_ms, total_ms = result.timings
        assert (verify_ms > 0, lock_ms > 0) == (verify_ran, lock_ran)
        assert verify_ms >= 0 and lock_ms >= 0
        assert total_ms >= verify_ms + lock_ms

    def test_an_accepted_bundle_total_includes_the_read(self, env, tmp_path, monkeypatch):
        path = write_bundle(env.package(FW, 1), tmp_path / "bundle")
        read_bundle = faarm.monitor.read_bundle

        def slow_read(*args, **kwargs):
            time.sleep(0.03)
            return read_bundle(*args, **kwargs)

        monkeypatch.setattr(faarm.monitor, "read_bundle", slow_read)
        result = env.monitor.verify_bundle(path)
        assert result.accepted
        verify_ms, lock_ms, total_ms = result.timings
        assert total_ms >= 30 and total_ms >= verify_ms + lock_ms


class TestVerifyBundle:
    def test_bundle_roundtrip_through_disk(self, env, tmp_path):
        write_bundle(env.package(FW, 1), tmp_path / "bundle")
        result = env.monitor.verify_bundle(tmp_path / "bundle")
        assert result.accepted

    def test_missing_part_is_malformed_bundle(self, env, tmp_path):
        path = write_bundle(env.package(FW, 1), tmp_path / "bundle")
        (path / "manifest.json").unlink()
        result = env.monitor.verify_bundle(path)
        assert result.reason is RejectionReason.MALFORMED_BUNDLE
        assert "manifest.json" in result.detail

    @pytest.mark.parametrize("kind", ["bundle", "bundle.pkg"])
    def test_malformed_manifest_wins_over_oversize(self, env, tmp_path, kind):
        pkg = env.package(FW, 1)
        path = write_sparse_image_bundle(
            tmp_path / kind, GIB, b" " + canonical_bytes(pkg.manifest), pkg.signature.data
        )
        result = env.monitor.verify_bundle(path)
        assert result.reason is RejectionReason.MALFORMED_BUNDLE
        assert result.detail == "manifest: not in canonical serialization"
        assert result.version is None

    def test_an_image_that_grows_after_the_fstat_is_still_oversize(
        self, make_env, tmp_path, monkeypatch
    ):
        env = make_env(capacity=1024)
        path = write_bundle(env.package(FW, 1), tmp_path / "bundle")
        image = (path / "firmware.bin").stat().st_ino
        read = []
        real_fstat, real_read = os.fstat, os.read

        def counting_read(fd, n):
            data = real_read(fd, n)
            if real_fstat(fd).st_ino == image:
                read.append(len(data))
            return data

        def under_reporting_fstat(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], 0, *st[7:]))

        monkeypatch.setattr(packaging.os, "fstat", under_reporting_fstat)
        monkeypatch.setattr(packaging.os, "read", counting_read)
        result = env.monitor.verify_bundle(path)
        assert result.reason is RejectionReason.OVERSIZE
        assert result.detail == "1025 bytes exceeds region capacity 1024"
        assert 0 < sum(read) <= 1025
        # a far bound reads the grown file to its end in steps, not in one huge read
        assert packaging.read_bundle(path, max_firmware=1 << 62).firmware == FW

    def test_malformed_manifest_is_rejected_with_audit(self, env, tmp_path):
        path = write_bundle(env.package(FW, 1), tmp_path / "bundle")
        raw = (path / "manifest.json").read_bytes()
        (path / "manifest.json").write_bytes(b" " + raw)
        result = env.monitor.verify_bundle(path)
        assert result.reason is RejectionReason.MALFORMED_BUNDLE
        assert AuditEvent.VERIFY_REJECT in events_of(env)


class TestToctouClosure:
    @pytest.mark.parametrize("point", list(HookPoint), ids=lambda p: p.value)
    def test_interposed_overwrite_never_survives(self, env, point):
        overwrite = b"\x66" * 64
        env.region.add_hook(point, lambda: env.region.el1_write(0, overwrite))
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        assert result.accepted
        assert env.region.digest() == result.digest
        assert env.region.read() == FW
        assert env.monitor.session_start() is True

    def test_mutating_the_package_after_verify_cannot_change_the_lock(self, env):
        pkg = env.package(FW, 1)
        firmware = bytearray(pkg.firmware)
        pkg = FirmwarePackage(firmware, pkg.manifest, pkg.signature)

        def overwrite_verified_image():
            firmware[:64] = b"\x66" * 64

        env.region.add_hook(HookPoint.POST_VERIFY_PRE_LOCK, overwrite_verified_image)
        result = env.monitor.verify_and_lock(pkg)
        assert result.accepted
        assert firmware[:64] == b"\x66" * 64
        assert env.region.read() == FW
        assert env.region.digest() == result.digest
        assert env.region.running_digest == result.digest
        assert env.monitor.session_start() is True

    def test_denied_overwrites_are_audited(self, env):
        env.region.add_hook(
            HookPoint.POST_LOCK, lambda: env.region.el1_write(0, b"\x66" * 16)
        )
        env.monitor.verify_and_lock(env.package(FW, 1))
        denied = [r for r in read_audit(env.store.path) if r.event is AuditEvent.WRITE_DENIED]
        assert len(denied) == 1

    def test_a_region_given_to_a_second_monitor_audits_to_its_store(
        self, env, ed25519_key, tmp_path
    ):
        assert env.monitor.verify_and_lock(env.package(FW, 1)).accepted
        env.store.close()
        with SecureStateStore.provision(ed25519_key.public, tmp_path / "second",
                                        durable=False) as store:
            faarm.monitor.Monitor(store, env.region, mcu_id=env.monitor.mcu_id)
            assert env.region.el1_write(0, b"\x66") is WriteOutcome.DENIED
            assert [r.event for r in read_audit(store.path)] == [
                AuditEvent.PROVISION, AuditEvent.WRITE_DENIED
            ]


class TestSessionsAndTasks:
    def test_session_before_any_load_raises(self, env):
        with pytest.raises(MonitorError, match="no verified firmware"):
            env.monitor.session_start()

    def test_clean_session_recheck(self, env):
        env.monitor.verify_and_lock(env.package(FW, 1))
        assert env.monitor.session_start() is True
        recheck = [r for r in read_audit(env.store.path) if r.event is AuditEvent.SESSION_RECHECK]
        assert recheck[-1].detail == "clean"

    def test_tamper_quarantines_until_next_good_load(self, make_env):
        env = make_env(lock_mode=LockMode.SOFTWARE_LOCK)
        env.monitor.verify_and_lock(env.package(FW, 1))
        env.region.tamper_test_hook(0, b"\xff\xff\xff")
        assert env.monitor.session_start() is False
        assert env.monitor.phase is Phase.QUARANTINED
        # stuck: repeated session starts stay quarantined
        assert env.monitor.session_start() is False
        # only a successful new load exits quarantine
        result = env.monitor.verify_and_lock(env.package(FW[::-1], 2))
        assert result.accepted
        assert env.monitor.phase is Phase.LOADED_LOCKED
        assert env.monitor.session_start() is True

    def test_post_lock_hook_failure_keeps_committed_load(self, env):
        def fail():
            raise RuntimeError("post-lock hook failed")

        env.region.add_hook(HookPoint.POST_LOCK, fail)
        with pytest.raises(RuntimeError, match="post-lock"):
            env.monitor.verify_and_lock(env.package(FW, 1))
        assert env.store.nv_counter == 1
        assert env.monitor.status().current_version == 1
        assert env.monitor.phase is Phase.LOADED_LOCKED
        env.region.clear_hooks()
        assert env.monitor.session_start() is True

    def test_rejected_load_does_not_exit_quarantine(self, make_env):
        env = make_env(lock_mode=LockMode.SOFTWARE_LOCK)
        env.monitor.verify_and_lock(env.package(FW, 1))
        env.region.tamper_test_hook(0, b"\xff")
        env.monitor.session_start()
        pkg = env.package(FW, 1)  # rollback: version replay
        result = env.monitor.verify_and_lock(pkg)
        assert not result.accepted
        assert env.monitor.phase is Phase.QUARANTINED

    def test_task_admitted_with_valid_token(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        task = env.monitor.submit_task(result.token, b"ENC1" + b"task data")
        assert task.admitted
        assert task.digest_hex == result.digest.hex
        admits = [r for r in read_audit(env.store.path) if r.event is AuditEvent.TASK_ADMIT]
        assert len(admits) == 1
        assert admits[0].digest == result.digest.hex

    def test_forged_token_denied(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        forged = AuthToken("00" * 16, result.version, result.digest.hex)
        task = env.monitor.submit_task(forged, b"ENC1data")
        assert not task.admitted
        assert task.reason == "invalid-token"

    def test_missing_token_denied(self, env):
        env.monitor.verify_and_lock(env.package(FW, 1))
        assert not env.monitor.submit_task(None, b"ENC1data").admitted

    def test_bad_envelope_denied(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        task = env.monitor.submit_task(result.token, b"RAW?payload")
        assert not task.admitted
        assert task.reason == "bad-envelope"
        task = env.monitor.submit_task(result.token, b"ENC1")
        assert not task.admitted

    def test_task_before_any_load_denied(self, env):
        task = env.monitor.submit_task(None, b"ENC1data")
        assert not task.admitted
        assert task.reason == "no-verified-firmware"

    def test_task_in_quarantine_denied(self, make_env):
        env = make_env(lock_mode=LockMode.SOFTWARE_LOCK)
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        env.region.tamper_test_hook(0, b"\xff")
        task = env.monitor.submit_task(result.token, b"ENC1data")
        assert not task.admitted
        assert task.reason == "quarantined"
        denies = [r for r in read_audit(env.store.path) if r.event is AuditEvent.TASK_DENY]
        assert denies


class TestStatus:
    def test_status_progression(self, env):
        s = env.monitor.status()
        assert s.phase is Phase.IDLE
        assert s.current_version is None
        env.monitor.verify_and_lock(env.package(FW, 1))
        s = env.monitor.status()
        assert s.phase is Phase.LOADED_LOCKED
        assert s.current_version == 1
        assert s.current_digest == hash_data(FW)

    def test_status_does_not_mutate(self, env):
        before = events_of(env)
        env.monitor.status()
        env.monitor.status()
        assert events_of(env) == before

    def test_derive_status_from_disk(self, env, tmp_path):
        assert derive_status(tmp_path / "missing").phase is Phase.UNPROVISIONED
        assert derive_status(env.store.path).phase is Phase.IDLE
        env.monitor.verify_and_lock(env.package(FW, 1))
        status = derive_status(env.store.path)
        assert status.phase is Phase.LOADED_LOCKED
        assert status.current_version == 1
        assert status.current_digest == hash_data(FW)

    def test_derive_status_sees_quarantine(self, make_env):
        env = make_env(lock_mode=LockMode.SOFTWARE_LOCK)
        env.monitor.verify_and_lock(env.package(FW, 1))
        env.region.tamper_test_hook(0, b"\xff")
        env.monitor.session_start()
        assert derive_status(env.store.path).phase is Phase.QUARANTINED


def forward_status(state_dir) -> MonitorStatus:
    """Reference for derive_status: replay the whole log from the start."""
    phase = Phase.IDLE
    version = digest = None
    for record in read_audit(state_dir):
        if record.event is AuditEvent.VERIFY_ACCEPT:
            phase = Phase.LOADED_LOCKED
            version = record.version
            digest = Digest.from_hex(record.digest) if record.digest else None
        elif record.event is AuditEvent.SESSION_RECHECK and record.detail == "tampered":
            phase = Phase.QUARANTINED
    return MonitorStatus(phase, version, digest)


audit_step = st.one_of(
    st.tuples(st.just(AuditEvent.VERIFY_ACCEPT), st.integers(1, 99),
              st.none() | st.sampled_from(["ab" * 32, "cd" * 32])),
    st.tuples(st.just(AuditEvent.SESSION_RECHECK), st.sampled_from(["tampered", "clean"])),
    st.sampled_from([
        (AuditEvent.WRITE_DENIED,), (AuditEvent.VERIFY_REJECT,), (AuditEvent.LOCK,),
        (AuditEvent.TASK_ADMIT,), (AuditEvent.TASK_DENY,), (AuditEvent.RECOVER,),
    ]),
)


class TestStatusFromTheTail:
    @given(st.lists(audit_step, max_size=12), st.booleans(), st.integers(1, 256))
    def test_matches_a_forward_replay(self, ed25519_key, steps, torn, block):
        with tempfile.TemporaryDirectory() as tmp:
            store = SecureStateStore.provision(ed25519_key.public, tmp, durable=False)
            try:
                for event, *rest in steps:
                    if event is AuditEvent.VERIFY_ACCEPT:
                        store.append_audit(event, version=rest[0], digest=rest[1])
                    elif event is AuditEvent.SESSION_RECHECK:
                        store.append_audit(event, detail=rest[0])
                    else:
                        store.append_audit(event, detail="x")
            finally:
                store.close()
            if torn:
                with open(Path(tmp) / "audit.log", "ab") as fh:
                    fh.write(b'{"seq":99,"event":"VERIFY_ACC')
            with mock.patch.object(state, "_TAIL_BLOCK", block):
                assert derive_status(tmp) == forward_status(tmp)

    def test_reads_back_only_to_the_last_accept(self, env, monkeypatch):
        for i in range(600):
            env.store.append_audit(AuditEvent.WRITE_DENIED, detail=f"el1 write denied offset={i}")
        env.monitor.verify_and_lock(env.package(FW, 1))
        env.store.append_audit(AuditEvent.WRITE_DENIED, detail="el1 write denied offset=0")
        block = 256
        assert (env.store.path / "audit.log").stat().st_size > 100 * block
        read = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                read.append(len(data))
                return data

        monkeypatch.setattr(state, "_TAIL_BLOCK", block)
        monkeypatch.setattr(state, "open", lambda path, mode: CountingFile(path), raising=False)
        status = derive_status(env.store.path)
        assert status == MonitorStatus(Phase.LOADED_LOCKED, 1, hash_data(FW))
        assert 0 < sum(read) <= 8 * block


class FaultyOs:
    """Stands in for the os global of faarm.state, recording each write,
    pwrite and fsync, and failing the nth call of one of them: it raises EIO,
    or, when short, writes half of its bytes and returns that count."""

    def __init__(self, fail: str | None = None, nth: int = 0, short: bool = False):
        self.fail, self.nth, self.short = fail, nth, short
        self.calls: list[str] = []

    def __getattr__(self, name):
        return getattr(os, name)

    def _call(self, name, fd, *args):
        self.calls.append(name)
        if name == self.fail and self.calls.count(name) == self.nth:
            if not self.short:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            args = (args[0][: len(args[0]) // 2], *args[1:])
        return getattr(os, name)(fd, *args)

    def write(self, *args):
        return self._call("write", *args)

    def pwrite(self, *args):
        return self._call("pwrite", *args)

    def fsync(self, *args):
        return self._call("fsync", *args)


def _tampered(env, version):
    pkg = env.package(FW[::-1], version)
    return FirmwarePackage(FW, pkg.manifest, pkg.signature)


# each path runs on a durable store after version 1 was accepted, with the
# syscalls of faarm.state it makes in order
FAULT_PATHS = {
    "accept": (
        lambda env: env.monitor.verify_and_lock(env.package(FW[::-1], 2)),
        ["write", "fsync", "write", "fsync", "pwrite", "fsync"],  # LOCK, ACCEPT, commit
    ),
    "reject": (
        lambda env: env.monitor.verify_and_lock(_tampered(env, 2)),
        ["write", "fsync"],
    ),
    "denied-el1-write": (
        lambda env: env.region.el1_write(0, b"\x66" * 16),
        ["write", "fsync"],
    ),
    "session-start": (
        lambda env: env.monitor.session_start(),
        ["write", "fsync"],
    ),
}


class TestFailStop:
    """A failed write or fsync closes the store: retrying in the same process
    could write a record or a commit twice, and only a load repairs it."""

    @pytest.mark.parametrize("path_name", FAULT_PATHS)
    def test_a_failed_write_stops_the_store_until_a_load_repairs_it(
        self, make_env, monkeypatch, tmp_path, path_name
    ):
        op, syscalls = FAULT_PATHS[path_name]
        faults = []
        for i, name in enumerate(syscalls):
            nth = syscalls[: i + 1].count(name)
            faults.append((name, nth, False))
            if name != "fsync":
                faults.append((name, nth, True))

        for fail, nth, short in [(None, 0, False), *faults]:
            env = make_env(durable=True)
            first = env.monitor.verify_and_lock(env.package(FW, 1))
            assert first.accepted
            faulty = FaultyOs(fail, nth, short)
            with monkeypatch.context() as patch:
                patch.setattr(state, "os", faulty)
                if fail is None:
                    op(env)
                    assert faulty.calls == syscalls
                    continue
                with pytest.raises((OSError, StateError)):
                    op(env)
            case = (fail, nth, short)
            # status() describes the image the region holds, accepted or not
            assert env.region.digest() == env.monitor.status().current_digest, case

            # every mutating entry point now refuses, and none touches the region
            region = env.region.snapshot()
            retries = (
                lambda: op(env),
                lambda: env.monitor.verify_and_lock(env.package(FW[::-1], 3)),
                lambda: env.monitor.verify_bundle(tmp_path / "no-such-bundle"),
                lambda: env.monitor.session_start(),
                lambda: env.monitor.submit_task(first.token, b"ENC1go"),
                lambda: env.region.el1_write(0, b"\x66"),
            )
            for retry in retries:
                with pytest.raises(StateError, match="failed .* write.*load it again"):
                    retry()
            assert env.region.snapshot() == region, case

            store = SecureStateStore.load(env.store.path, durable=True)
            try:
                check_audit_chain(store.path)
                _, last_accept = replay_protocol_invariants(read_audit(store.path))
                assert store.nv_counter == last_accept, case
                monitor = faarm.monitor.Monitor(
                    store, faarm.mcu.McuRegion(capacity=len(FW)), mcu_id=env.monitor.mcu_id
                )
                image = FW if last_accept == 1 else FW[::-1]
                replay = monitor.verify_and_lock(env.package(image, last_accept))
                assert replay.reason is RejectionReason.ROLLBACK, case
            finally:
                store.close()


class TestExitCodes:
    def test_exit_code_table(self):
        assert EXIT_CODES[RejectionReason.BAD_SIGNATURE] == 10
        assert EXIT_CODES[RejectionReason.HASH_MISMATCH] == 11
        assert EXIT_CODES[RejectionReason.ROLLBACK] == 12
        assert EXIT_CODES[RejectionReason.UNKNOWN_FLAG] == 13
        assert EXIT_CODES[RejectionReason.LOCK_FAILED] == 14
        assert EXIT_CODES[RejectionReason.MALFORMED_BUNDLE] == 15
        assert EXIT_CODES[RejectionReason.OVERSIZE] == 16


class TestReplayValidator:
    def test_honest_log_passes(self, env):
        result = env.monitor.verify_and_lock(env.package(FW, 1))
        env.monitor.submit_task(result.token, b"ENC1data")
        env.monitor.verify_and_lock(env.package(FW[::-1], 2))
        replay_protocol_invariants(read_audit(env.store.path))

    def test_non_increasing_accepts_fail(self, env):
        env.store.append_audit(AuditEvent.VERIFY_ACCEPT, version=2, digest="ab" * 32)
        env.store.append_audit(AuditEvent.VERIFY_ACCEPT, version=2, digest="ab" * 32)
        with pytest.raises(ReplayError, match="not above"):
            replay_protocol_invariants(read_audit(env.store.path))

    def test_task_admit_against_wrong_digest_fails(self, env):
        env.store.append_audit(AuditEvent.VERIFY_ACCEPT, version=1, digest="ab" * 32)
        env.store.append_audit(AuditEvent.TASK_ADMIT, digest="cd" * 32)
        with pytest.raises(ReplayError, match="task admitted"):
            replay_protocol_invariants(read_audit(env.store.path))

    def test_task_admit_before_any_accept_fails(self, env):
        env.store.append_audit(AuditEvent.TASK_ADMIT, digest="ab" * 32)
        with pytest.raises(ReplayError, match="before any accept"):
            replay_protocol_invariants(read_audit(env.store.path))
