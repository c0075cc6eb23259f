import os
import struct
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from faarm import crypto, packaging
from faarm.crypto import KeyPair, Signature, SignatureScheme, keygen
from faarm.mcu import LockMode, LockState, McuRegion
from faarm.monitor import Monitor, RejectionReason
from faarm.packaging import FLAG_REQUIRES_LOCK, PKG_MAGIC, FirmwarePackage, build_package
from faarm.state import SecureStateStore

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

TEST_MCU_ID = "MALI-MCU-XYZ"
TEST_TIMESTAMP = "2025-10-10T12:00:00Z"
FW = bytes(range(256)) * 8  # 2 KiB


def write_container(path: Path, sections) -> Path:
    """Write a .pkg container from its three sections. A section given as an
    int is that many zero bytes, left as a hole so the file stays sparse."""
    with open(path, "wb") as fh:
        fh.write(PKG_MAGIC)
        for section in sections:
            if isinstance(section, int):
                fh.write(struct.pack("<Q", section))
                fh.seek(section, os.SEEK_CUR)
            else:
                fh.write(struct.pack("<Q", len(section)) + section)
        fh.truncate()
    return path


def traced_peak(call):
    """call()'s result and the peak of the memory Python allocated during it."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def verify_calls(monkeypatch) -> list:
    """Records each call the monitor makes to crypto.verify, the library
    check, as (key, payload, signature)."""
    calls = []

    def counting(key, payload, sig):
        calls.append((key, payload, sig))
        return crypto.verify(key, payload, sig)

    monkeypatch.setattr("faarm.monitor.verify", counting)
    return calls


@pytest.fixture(autouse=True)
def manifest_memo():
    """Empties read_bundle's manifest memo before each test, so that no test
    is answered from a parse another made; returns the memo's table."""
    packaging._manifest_memo.clear()
    return packaging._manifest_memo


class LoadCrash(RuntimeError):
    """Stands in for a crash inside a load."""


def crash_after_lock_then_accept_unlocked(state: Path, key: KeyPair) -> None:
    """Write a legitimate history into a provisioned state directory: a load
    of version 1 crashes right after its LOCK record, the store is loaded
    again, and version 2 is accepted while its lock fails to engage, which
    its manifest tolerates since it does not require the lock."""

    def crash(boundary: str) -> None:
        if boundary == "audit:post:LOCK":
            raise LoadCrash(boundary)

    with SecureStateStore.load(state, durable=False) as store:
        store.crash_hook = crash
        monitor = Monitor(store, McuRegion(capacity=4096), mcu_id=TEST_MCU_ID)
        with pytest.raises(LoadCrash):
            monitor.verify_and_lock(build_package(
                b"\x01" * 1024, version=1, mcu_id=TEST_MCU_ID, key=key,
                timestamp=TEST_TIMESTAMP))
    with SecureStateStore.load(state, durable=False) as store:
        region = McuRegion(capacity=4096)
        region.fail_next_lock = True
        result = Monitor(store, region, mcu_id=TEST_MCU_ID).verify_and_lock(build_package(
            b"\x02" * 1024, version=2, mcu_id=TEST_MCU_ID, key=key,
            timestamp=TEST_TIMESTAMP, flags=()))
        assert result.accepted and region.lock_state is LockState.UNLOCKED


@pytest.fixture(scope="session")
def ed25519_key() -> KeyPair:
    return keygen(SignatureScheme.ED25519, seed=7, allow_seeded=True)


@pytest.fixture(scope="session")
def p256_key() -> KeyPair:
    return keygen(SignatureScheme.ECDSA_P256, seed=7, allow_seeded=True)


@dataclass
class Env:
    key: KeyPair
    store: SecureStateStore
    region: McuRegion
    monitor: Monitor

    def package(self, firmware: bytes, version: int, **kwargs) -> FirmwarePackage:
        kwargs.setdefault("mcu_id", TEST_MCU_ID)
        kwargs.setdefault("timestamp", TEST_TIMESTAMP)
        return build_package(firmware, version=version, key=self.key, **kwargs)


@pytest.fixture
def make_env(tmp_path, ed25519_key):
    """Factory for a provisioned store + region + monitor in a tmp dir."""
    stores = []
    counter = 0

    def factory(
        *,
        key: KeyPair | None = None,
        capacity: int = 1024 * 1024,
        lock_mode: LockMode = LockMode.HARDWARE_WP,
        mcu_id: str = TEST_MCU_ID,
        durable: bool = False,
    ) -> Env:
        nonlocal counter
        counter += 1
        key = key or ed25519_key
        store = SecureStateStore.provision(
            key.public, tmp_path / f"state-{counter}", durable=durable
        )
        stores.append(store)
        region = McuRegion(capacity=capacity, lock_mode=lock_mode)
        monitor = Monitor(store, region, mcu_id=mcu_id)
        return Env(key, store, region, monitor)

    yield factory
    for store in stores:
        store.close()


@pytest.fixture
def env(make_env) -> Env:
    return make_env()


# The faults a bundle can carry, in the order the monitor's gates find them.
# A bundle with several faults rejects at the earliest.
GATE_ORDER = (
    ("oversize", RejectionReason.OVERSIZE),
    ("zeroed-signature", RejectionReason.BAD_SIGNATURE),
    ("wrong-mcu-id", RejectionReason.MALFORMED_BUNDLE),
    ("old-version", RejectionReason.ROLLBACK),
    ("unknown-flag", RejectionReason.UNKNOWN_FLAG),
    ("tampered-image", RejectionReason.HASH_MISMATCH),
)


def faulty_package(env, faults):
    """A package for a region of capacity len(FW) that holds version 5:
    version 6 of FW[::-1], signed by env's key, with each fault that
    `faults`, a set of GATE_ORDER's names, holds; an empty set gives a
    bundle that loads."""
    image = FW * 2 if "oversize" in faults else FW[::-1]
    kwargs = {}
    if "wrong-mcu-id" in faults:
        kwargs["mcu_id"] = "SOME-OTHER-MCU"
    if "unknown-flag" in faults:
        kwargs["flags"] = (FLAG_REQUIRES_LOCK, "debug_unlock")
    pkg = env.package(image, 1 if "old-version" in faults else 6, **kwargs)
    if "tampered-image" in faults:
        pkg = pkg._replace(firmware=bytes([image[0] ^ 1]) + image[1:])
    if "zeroed-signature" in faults:
        pkg = pkg._replace(signature=Signature(bytes(64)))
    return pkg
