import random
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faarm.crypto import hash_data
from faarm.mcu import (
    HookPoint,
    LockEngageError,
    LockMode,
    LockState,
    McuRegion,
    RegionError,
    WriteOrigin,
    WriteOutcome,
)

from conftest import traced_peak


@pytest.fixture
def region():
    return McuRegion(capacity=4096)


class TestEl1Writes:
    def test_write_before_lock_applies(self, region):
        assert region.el1_write(0, b"hello") is WriteOutcome.APPLIED
        assert region.read(0, 5) == b"hello"

    def test_write_after_lock_denied(self, region):
        region.el1_write(0, b"hello")
        region.lock()
        assert region.el1_write(0, b"x") is WriteOutcome.DENIED
        assert region.read(0, 5) == b"hello"

    def test_out_of_range_denied(self, region):
        assert region.el1_write(4090, b"toolong") is WriteOutcome.DENIED
        assert region.el1_write(-1, b"x") is WriteOutcome.DENIED

    def test_every_attempt_is_observable(self, region):
        region.el1_write(0, b"a")
        region.lock()
        region.el1_write(0, b"b")
        assert region.attempts[WriteOrigin.EL1, WriteOutcome.APPLIED] == 1
        assert region.attempts[WriteOrigin.EL1, WriteOutcome.DENIED] == 1

    def test_denied_writes_hit_audit_sink_exactly_once_each(self):
        calls = []
        region = McuRegion(capacity=128, audit_sink=calls.append)
        region.lock()
        for i in range(9_999):
            region.el1_write(i % 128, b"z")
        region.el1_write(1000, b"way out of range")
        denied = region.attempts[WriteOrigin.EL1, WriteOutcome.DENIED]
        assert len(calls) == denied == region.dump()["attempts"] == 10_000
        # the history is counted, not kept: its size does not grow with the writes
        assert len(region.attempts) <= 6

    @pytest.mark.parametrize("cause", ["locked", "range"])
    def test_a_denied_write_is_not_copied(self, cause):
        data = bytearray(64 << 20)
        calls = []
        region = McuRegion(capacity=len(data) if cause == "locked" else 1024,
                           audit_sink=calls.append)
        if cause == "locked":
            region.lock()
        outcome, peak = traced_peak(lambda: region.el1_write(0, data))
        assert outcome is WriteOutcome.DENIED
        assert calls == [f"el1 write denied ({cause}) offset=0 len={len(data)}"]
        assert peak < 1 << 20

    def test_an_applied_write_keeps_its_own_copy(self, region):
        data = bytearray(b"hello")
        assert region.el1_write(0, data) is WriteOutcome.APPLIED
        data[:] = b"HELLO, world"
        assert region.read() == b"hello"

    def test_an_applied_write_gates_the_length_of_its_copy(self):
        class Understated(bytearray):  # as a buffer that grows after len() is taken
            def __len__(self):
                return 1

        calls = []
        region = McuRegion(capacity=8, audit_sink=calls.append)
        assert region.el1_write(0, Understated(16)) is WriteOutcome.DENIED
        assert calls == ["el1 write denied (range) offset=0 len=16"]
        assert region.read() == b""

    @given(st.integers(min_value=0, max_value=120), st.binary(min_size=1, max_size=16))
    def test_applied_write_is_readable_back(self, offset, data):
        region = McuRegion(capacity=128)
        outcome = region.el1_write(offset, data)
        if offset + len(data) <= 128:
            assert outcome is WriteOutcome.APPLIED
            assert region.read(offset, len(data)) == data
        else:
            assert outcome is WriteOutcome.DENIED


class TestSecureWriteAndLock:
    def test_secure_write_replaces_whole_image(self, region):
        region.el1_write(0, b"old junk here")
        region.secure_write(b"new image")
        assert region.read() == b"new image"

    def test_secure_write_into_locked_region_raises(self, region):
        region.lock()
        with pytest.raises(RegionError, match="locked"):
            region.secure_write(b"fw")

    def test_oversized_secure_write_raises(self, region):
        with pytest.raises(RegionError, match="capacity"):
            region.secure_write(b"\x00" * 4097)

    def test_lock_records_digest_of_content(self, region):
        region.secure_write(b"fw bytes")
        assert region.lock() is True
        assert region.lock_state is LockState.LOCKED
        assert region.running_digest == hash_data(b"fw bytes")

    def test_lock_hashes_content_written_in_place(self, region):
        region.el1_write(0, b"fw bytes")
        assert region.lock() is True
        assert region.running_digest == hash_data(b"fw bytes")

    def test_lock_records_the_supplied_digest(self, region):
        region.secure_write(b"fw bytes")
        claimed = hash_data(b"some other image")
        assert region.lock(claimed) is True
        assert region.running_digest is claimed
        # recheck still hashes the real content, so a wrong claim cannot pass it
        assert region.recheck() is False

    def test_double_lock_is_a_noop(self, region):
        region.secure_write(b"fw")
        assert region.lock() is True
        digest = region.running_digest
        assert region.lock() is False
        assert region.running_digest == digest

    def test_fault_injected_lock_raises(self, region):
        region.fail_next_lock = True
        with pytest.raises(LockEngageError):
            region.lock()
        assert region.lock_state is LockState.UNLOCKED
        assert region.lock() is True  # one-shot fault

    def test_unlock_for_update_reopens_writes(self, region):
        region.secure_write(b"v1")
        region.lock()
        region.unlock_for_update()
        assert region.lock_state is LockState.UNLOCKED
        region.secure_write(b"v2")
        assert region.read() == b"v2"


class TestRecheck:
    def test_recheck_clean(self, region):
        region.secure_write(b"fw")
        region.lock()
        assert region.recheck() is True

    def test_recheck_requires_lock(self, region):
        with pytest.raises(RegionError, match="locked"):
            region.recheck()

    def test_hardware_wp_blocks_test_hook(self):
        region = McuRegion(capacity=128, lock_mode=LockMode.HARDWARE_WP)
        region.secure_write(b"fw image")
        region.lock()
        assert region.tamper_test_hook(0, b"X") is WriteOutcome.DENIED
        assert region.recheck() is True

    def test_software_lock_tamper_is_caught_by_recheck(self):
        region = McuRegion(capacity=128, lock_mode=LockMode.SOFTWARE_LOCK)
        region.secure_write(b"fw image")
        region.lock()
        assert region.el1_write(0, b"X") is WriteOutcome.DENIED
        assert region.tamper_test_hook(0, b"X") is WriteOutcome.APPLIED
        assert region.recheck() is False

    def test_test_hook_applies_when_unlocked(self, region):
        region.secure_write(b"fw image")
        assert region.tamper_test_hook(0, b"Y") is WriteOutcome.APPLIED
        assert region.read(0, 1) == b"Y"


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self, region):
        region.secure_write(b"original")
        region.lock()
        snap = region.snapshot()
        region.unlock_for_update()
        region.secure_write(b"scribbled")
        region.restore(snap)
        assert region.read() == b"original"
        assert region.lock_state is LockState.LOCKED
        assert region.running_digest == hash_data(b"original")

    def test_snapshot_survives_in_place_writes(self, region):
        region.secure_write(b"original")
        snap = region.snapshot()
        assert region.el1_write(0, b"XX") is WriteOutcome.APPLIED
        later = region.snapshot()
        assert region.tamper_test_hook(2, b"YY") is WriteOutcome.APPLIED
        assert region.read() == b"XXYYinal"
        region.restore(later)
        assert region.read() == b"XXiginal"
        region.restore(snap)
        assert region.read() == b"original"
        assert snap.content == b"original"


class TestHooks:
    def test_hooks_fire_in_registration_order(self, region):
        order = []
        region.add_hook(HookPoint.PRE_VERIFY, lambda: order.append("a"))
        region.add_hook(HookPoint.PRE_VERIFY, lambda: order.append("b"))
        region.fire(HookPoint.PRE_VERIFY)
        assert order == ["a", "b"]

    def test_clear_hooks(self, region):
        region.add_hook(HookPoint.POST_LOCK, lambda: (_ for _ in ()).throw(AssertionError))
        region.clear_hooks()
        region.fire(HookPoint.POST_LOCK)


class TestAtomicityUnderConcurrency:
    def test_exclusive_write_lock_beats_hammering_writer_1000_trials(self):
        # Region-level statement of the TOCTOU closure: a free-running EL1
        # writer can never make the locked content differ from what the
        # loader wrote, because write+lock happen inside one mutex hold.
        failures = 0
        for trial in range(1000):
            rng = random.Random(trial)
            region = McuRegion(capacity=512)
            fw = rng.randbytes(256)
            stop = threading.Event()

            def adversary():
                adv = random.Random(trial + 10_000)
                while not stop.is_set():
                    region.el1_write(adv.randrange(256), adv.randbytes(8))

            thread = threading.Thread(target=adversary)
            thread.start()
            try:
                with region.exclusive():
                    region.secure_write(fw)
                    region.lock()
            finally:
                stop.set()
                thread.join(timeout=5)
            if region.digest() != hash_data(fw) or not region.recheck():
                failures += 1
        assert failures == 0
