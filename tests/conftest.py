import os
import struct
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from faarm.crypto import KeyPair, SignatureScheme, keygen
from faarm.mcu import LockMode, McuRegion
from faarm.monitor import Monitor
from faarm.packaging import PKG_MAGIC, FirmwarePackage, build_package
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
