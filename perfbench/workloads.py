"""The three benchmark workloads and the closed loop that measures them.

Every workload is one caller in one process, sending its next op only after
the previous one completed. Inputs come from the seed alone; the faarm
package sees only the generated bundles. All workloads use ECDSA P-256,
hardware write-protect and mcu_id MALI-MCU-XYZ.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    ACCEPT,
    check_cli_accept,
    check_region,
    check_result,
    check_state_dir,
    sha256_hex,
)
from faarm.crypto import Digest, SignatureScheme, keygen, sign, signing_payload
from faarm.mcu import LockMode, McuRegion
from faarm.monitor import Monitor
from faarm.packaging import (
    FIRMWARE_NAME,
    FLAG_REQUIRES_LOCK,
    MANIFEST_NAME,
    SIGNATURE_NAME,
    FirmwarePackage,
    Manifest,
    build_package,
    canonical_bytes,
    write_bundle,
)
from faarm.state import AuditEvent, SecureStateStore

KIB = 1024
MIB = 1024 * KIB
MCU_ID = "MALI-MCU-XYZ"
SCHEME = SignatureScheme.ECDSA_P256
LOCK_MODE = LockMode.HARDWARE_WP
TIMESTAMP = "2025-10-10T12:00:00Z"
# Traced and untraced ops alternate in blocks of this many ops. It equals the
# number of reject kinds, so each block of reject-flood holds every kind once.
TRACE_BLOCK = 6
CHILD_TIMEOUT_S = 60
# Shared hosts alternate, over seconds, between full speed and states in which
# the same Python code runs 1.4 to 2 times slower, and, independently, copying
# memory runs up to 1.45 times slower. A short reference probe of both, run
# between ops this often (and before every op that starts a process) and
# never inside a timed op, tells how fast the machine ran while each op ran.
PROBE_INTERVAL_NS = 50_000_000
_PROBE_BUFFER = bytes(range(256)) * 4096
BOOT_CHILD = Path(__file__).resolve().parent / "boot_child.py"


@dataclass
class Op:
    index: int
    bundle: Path
    expect: str
    version: int
    digest: str | None = None
    image_bytes: int = 0
    writes: tuple = ()
    traced: bool = False


@dataclass
class Measurement:
    op_ids: list[int] = field(default_factory=list)
    walls_ns: list[int] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    warmup_failures: list[str] = field(default_factory=list)
    image_bytes: list[int] = field(default_factory=list)
    audit_bytes: list[int] = field(default_factory=list)
    attempts_retained: int = 0
    peak_rss_kb: int = 0
    probes: list[tuple[int, int]] = field(default_factory=list)

    def op_probes_ns(self) -> list[float]:
        """For each measured op, the mean of the two reference probes around
        it."""
        states = []
        for (k, before), (k_next, after) in zip(self.probes, self.probes[1:]):
            states += [(before + after) / 2] * (k_next - k)
        return states


def reference_probe_ns() -> int:
    """Best of three runs of a fixed pure-Python loop plus best of three
    copies of 1 MiB; about 0.1 ms at full speed."""
    loop = copy = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(500):
            acc += len(str(i))
        t1 = time.perf_counter_ns()
        bytearray(_PROBE_BUFFER)
        t2 = time.perf_counter_ns()
        loop = t1 - t0 if loop is None else min(loop, t1 - t0)
        copy = t2 - t1 if copy is None else min(copy, t2 - t1)
    return loop + copy


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{label}:{seed}")


class Vendor:
    """A seeded vendor signing key that signs manifests for known digests, so
    bundles of pool images are made without hashing the image again."""

    def __init__(self, seed: int, label: str = "vendor"):
        self.key = keygen(SCHEME, seed=f"{label}:{seed}".encode(), allow_seeded=True)

    def signed_manifest(self, digest_hex: str, version: int) -> tuple[bytes, bytes]:
        manifest = Manifest(
            version=version, mcu_id=MCU_ID, timestamp=TIMESTAMP,
            firmware_hash=Digest.from_hex(digest_hex), flags=(FLAG_REQUIRES_LOCK,),
        )
        raw = canonical_bytes(manifest)
        return raw, sign(self.key, signing_payload(manifest.firmware_hash, raw)).data

    def package(self, firmware: bytes, version: int, **kwargs) -> FirmwarePackage:
        return build_package(firmware, version=version, mcu_id=MCU_ID, key=self.key,
                             timestamp=TIMESTAMP, **kwargs)


class ImagePool:
    """A few seeded images on disk; bundles hard-link them instead of
    writing a fresh image per op, which keeps disk use bounded."""

    def __init__(self, directory: Path, rng: random.Random, count: int, size: int):
        directory.mkdir(parents=True)
        self.paths = []
        self.digests = []
        for i in range(count):
            data = rng.randbytes(size)
            path = directory / f"image{i}.bin"
            path.write_bytes(data)
            self.paths.append(path)
            self.digests.append(sha256_hex(data))


class Workload:
    name = ""
    in_process = True
    warmup_ops = 12
    # setup_s is the median of this many set-ups in one run
    setup_repeats = 5

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.recorder = None
        self.workdir: Path | None = None
        self._setups = 0

    def set_up(self) -> tuple[float, float]:
        """Run a fresh set-up, replacing any earlier one; returns its seconds
        and the mean of the reference probes before and after it."""
        if self.workdir is not None:
            self.close()
            shutil.rmtree(self.workdir)
        self.workdir = self.scratch / f"setup{self._setups}"
        self._setups += 1
        before = reference_probe_ns()
        t0 = time.perf_counter()
        self.setup(self.workdir)
        elapsed = time.perf_counter() - t0
        return elapsed, (before + reference_probe_ns()) / 2

    def rusage_who(self) -> int:
        return resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN

    # Subclasses implement: setup, config, next_op, run, check, finish,
    # audit_size and attempts_retained.

    def after(self, op: Op) -> None:
        shutil.rmtree(op.bundle)

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()


class _StreamOfVersions(Workload):
    """Accepted loads of 1 MiB bundles with strictly increasing versions."""

    IMAGE = 1 * MIB
    POOL = 4

    def _setup_stream(self, workdir: Path) -> None:
        self.rng = _rng(self.seed, self.name)
        self.vendor = Vendor(self.seed)
        self.pool = ImagePool(workdir / "images", self.rng, self.POOL, self.IMAGE)
        self.bundles = workdir / "bundles"
        self.bundles.mkdir()
        self.state_dir = workdir / "state"
        self.version = 0
        self.loads = 0

    def next_op(self, index: int) -> Op:
        self.version += 1 + self.rng.randrange(3)
        image = self.rng.randrange(self.POOL)
        digest = self.pool.digests[image]
        raw, sig = self.vendor.signed_manifest(digest, self.version)
        path = self.bundles / f"v{self.version}"
        path.mkdir()
        os.link(self.pool.paths[image], path / FIRMWARE_NAME)
        (path / MANIFEST_NAME).write_bytes(raw)
        (path / SIGNATURE_NAME).write_bytes(sig)
        self.loads += 1
        return Op(index, path, ACCEPT, self.version, digest, self.IMAGE)

    def audit_size(self) -> int:
        return (self.state_dir / "audit.log").stat().st_size

    def _check_state(self, pregrown: int = 0) -> list[str]:
        events = Counter({"PROVISION": 1, "LOCK": self.loads, "VERIFY_ACCEPT": self.loads})
        if pregrown:
            events["WRITE_DENIED"] = pregrown
        return check_state_dir(self.state_dir, counter=self.version, events=events)


class UpdateStream(_StreamOfVersions):
    name = "update-stream"

    def setup(self, workdir: Path) -> None:
        self._setup_stream(workdir)
        self.store = SecureStateStore.provision(self.vendor.key.public, self.state_dir,
                                                durable=False)
        self.region = McuRegion(lock_mode=LOCK_MODE)
        self.monitor = Monitor(self.store, self.region, mcu_id=MCU_ID)

    def config(self) -> dict:
        return {"op": "one accepted load via Monitor.verify_bundle(path)",
                "image_bytes": self.IMAGE, "image_pool": self.POOL,
                "region_capacity": self.region.capacity, "durable": False,
                "audit_pregrowth_records": 0}

    def run(self, op: Op):
        return self.monitor.verify_bundle(op.bundle)

    def check(self, op: Op, result) -> str | None:
        return (check_result(result, ACCEPT, digest=op.digest)
                or check_region(self.region, op.digest))

    def attempts_retained(self) -> int:
        return len(self.region.attempts)

    def finish(self) -> list[str]:
        self.close()
        return self._check_state()


class BootCold(_StreamOfVersions):
    name = "boot-cold"
    in_process = False
    warmup_ops = 0
    setup_repeats = 3
    PREGROWTH = 65536

    def setup(self, workdir: Path) -> None:
        self._setup_stream(workdir)
        store = SecureStateStore.provision(self.vendor.key.public, self.state_dir,
                                           durable=False)
        try:
            for _ in range(self.PREGROWTH):
                store.append_audit(
                    AuditEvent.WRITE_DENIED,
                    detail=f"el1 write denied (locked) "
                           f"offset={self.rng.randrange(self.IMAGE)} len=32",
                )
        finally:
            store.close()
        src = Path(sys.modules["faarm"].__file__).resolve().parent.parent
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.spans_file = workdir / "child-spans.json"
        self.child_attempts = 0

    def config(self) -> dict:
        return {"op": "one `python -m faarm verify --json` process, wall clock",
                "image_bytes": self.IMAGE, "image_pool": self.POOL,
                "region_capacity": "cli default", "durable": True,
                "audit_pregrowth_records": self.PREGROWTH,
                "audit_pregrowth_bytes": self.audit_size()}

    def run(self, op: Op):
        args = ["verify", "--json", "--state", str(self.state_dir), str(op.bundle)]
        if op.traced:
            cmd = [sys.executable, str(BOOT_CHILD), str(self.spans_file), *args]
        else:
            cmd = [sys.executable, "-m", "faarm", *args]
        return subprocess.run(cmd, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)

    def check(self, op: Op, proc) -> str | None:
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            return f"exit {proc.returncode}, no JSON: {proc.stderr[-300:]!r}"
        self.child_attempts = (payload.get("region") or {}).get("attempts", 0)
        return check_cli_accept(proc.returncode, payload, op.digest)

    def after(self, op: Op) -> None:
        super().after(op)
        if op.traced and self.spans_file.exists():
            self.recorder.merge(op.index, json.loads(self.spans_file.read_text()))
            self.spans_file.unlink()

    def attempts_retained(self) -> int:
        return self.child_attempts

    def finish(self) -> list[str]:
        return self._check_state(pregrown=self.PREGROWTH)


REJECT_KINDS = ("hash-mismatch", "bad-signature", "rollback", "unknown-flag",
                "malformed-bundle", "oversize")


class RejectFlood(Workload):
    """An EL1 attacker against a device that holds a locked 64 KiB image.

    A device absorbs EPOCH_ROUNDS rounds, 65,536 denied writes, the same
    audit volume as boot-cold's pre-growth, and is then replaced by a fresh
    one. This bounds the memory the retained write history can take in one
    run; retired devices are checked after the measured loop.
    """

    name = "reject-flood"
    IMAGE = 64 * KIB
    CAPACITY = 256 * KIB
    OVERSIZE = 320 * KIB
    BURST = 16
    WRITE = 32
    EPOCH_ROUNDS = 4096

    def setup(self, workdir: Path) -> None:
        rng = self.rng = _rng(self.seed, self.name)
        vendor = Vendor(self.seed)
        foreign = Vendor(self.seed, "foreign")
        self.anchor = vendor.key.public
        bundles = workdir / "bundles"
        self.image = rng.randbytes(self.IMAGE)
        self.digest = sha256_hex(self.image)
        self.version = 50 + rng.randrange(50)
        self.legit = write_bundle(vendor.package(self.image, self.version), bundles / "legit")

        newer = self.version + 1
        other = rng.randbytes(self.IMAGE)
        signed = vendor.package(other, newer)
        tampered = bytearray(other)
        tampered[rng.randrange(self.IMAGE)] ^= 1 + rng.randrange(255)
        packages = {
            "hash-mismatch": FirmwarePackage(bytes(tampered), signed.manifest, signed.signature),
            "bad-signature": foreign.package(other, newer),
            "rollback": vendor.package(other, rng.randint(1, self.version - 1)),
            "unknown-flag": vendor.package(other, newer,
                                           flags=(FLAG_REQUIRES_LOCK, "debug-unlock")),
            "oversize": vendor.package(rng.randbytes(self.OVERSIZE), newer),
        }
        self.bad = {kind: write_bundle(pkg, bundles / kind) for kind, pkg in packages.items()}
        self.image_bytes = {kind: len(pkg.firmware) for kind, pkg in packages.items()}
        container = write_bundle(signed, bundles / "truncated.pkg")
        blob = container.read_bytes()
        container.write_bytes(blob[: 12 + rng.randrange(self.IMAGE)])
        self.bad["malformed-bundle"] = container
        self.image_bytes["malformed-bundle"] = 0

        self.order: list[str] = []
        self.devices: list[tuple[Path, int]] = []
        self._new_device()

    def _new_device(self) -> None:
        self.device_dir = self.workdir / f"device{len(self.devices)}"
        self.store = SecureStateStore.provision(self.anchor, self.device_dir, durable=False)
        self.region = McuRegion(capacity=self.CAPACITY, lock_mode=LOCK_MODE)
        self.monitor = Monitor(self.store, self.region, mcu_id=MCU_ID)
        problem = check_result(self.monitor.verify_bundle(self.legit), ACCEPT, digest=self.digest)
        if problem:
            raise RuntimeError(f"legitimate image was not loaded: {problem}")
        self.rounds = 0

    def config(self) -> dict:
        return {"op": "16 EL1 writes to the locked region, then one bad bundle via "
                      "Monitor.verify_bundle(path)",
                "image_bytes": self.IMAGE, "oversize_bytes": self.OVERSIZE,
                "region_capacity": self.CAPACITY, "el1_write_bytes": self.WRITE,
                "rounds_per_device": self.EPOCH_ROUNDS, "durable": False,
                "audit_pregrowth_records": 0}

    def next_op(self, index: int) -> Op:
        if not self.order:
            self.order = list(REJECT_KINDS)
            self.rng.shuffle(self.order)
        kind = self.order.pop()
        rng = self.rng
        writes = tuple(
            (rng.randrange(self.IMAGE - self.WRITE), rng.randbytes(self.WRITE))
            for _ in range(self.BURST)
        )
        return Op(index, self.bad[kind], kind, self.version,
                  image_bytes=self.image_bytes[kind], writes=writes)

    def run(self, op: Op):
        outcomes = [self.region.el1_write(offset, data) for offset, data in op.writes]
        return outcomes, self.monitor.verify_bundle(op.bundle)

    def check(self, op: Op, outcome) -> str | None:
        writes, result = outcome
        applied = sum(w.value != "denied" for w in writes)
        if applied:
            return f"{applied} EL1 writes to the locked region were not denied"
        return check_result(result, op.expect) or check_region(self.region, self.digest)

    def after(self, op: Op) -> None:
        self.rounds += 1
        if self.rounds == self.EPOCH_ROUNDS:
            self.store.close()
            self.devices.append((self.device_dir, self.rounds))
            self._new_device()

    def audit_size(self) -> int:
        return (self.device_dir / "audit.log").stat().st_size

    def attempts_retained(self) -> int:
        return len(self.region.attempts)

    def finish(self) -> list[str]:
        self.close()
        self.devices.append((self.device_dir, self.rounds))
        problems = []
        for device_dir, rounds in self.devices:
            events = Counter({"PROVISION": 1, "LOCK": 1, "VERIFY_ACCEPT": 1,
                              "WRITE_DENIED": self.BURST * rounds, "VERIFY_REJECT": rounds})
            problems += check_state_dir(device_dir, counter=self.version, events=events)
        return problems


WORKLOADS = {w.name: w for w in (UpdateStream, RejectFlood, BootCold)}


def measure(w: Workload, seconds: float, recorder=None) -> Measurement:
    """Run warm-up ops, then ops for `seconds` of wall time. Only the call
    into the program is timed; generating and checking an op and the
    reference probes are not. With a recorder, blocks of TRACE_BLOCK ops
    alternate between traced and untraced."""
    m = Measurement()
    w.recorder = recorder
    index = 0

    def one(traced: bool) -> tuple[Op, int, int, str | None]:
        nonlocal index
        op = w.next_op(index)
        op.traced = traced
        index += 1
        in_process_trace = traced and w.in_process
        audit_before = w.audit_size() if traced else 0
        if in_process_trace:
            recorder.install(op.index)
        t0 = time.perf_counter_ns()
        try:
            outcome = w.run(op)
        except Exception as exc:  # a raising op is a failed op
            outcome = exc
        t1 = time.perf_counter_ns()
        if in_process_trace:
            recorder.uninstall()
        if isinstance(outcome, Exception):
            problem = f"raised {outcome!r}"
        else:
            problem = w.check(op, outcome)
        audit_bytes = 0
        if traced:
            audit_bytes = w.audit_size() - audit_before
            m.attempts_retained = max(m.attempts_retained, w.attempts_retained())
        w.after(op)
        if problem:
            problem = f"op {op.index} ({op.expect}, v{op.version}): {problem}"
        return op, t1 - t0, audit_bytes, problem

    for _ in range(w.warmup_ops):
        *_, problem = one(False)
        if problem:
            m.warmup_failures.append(problem)

    deadline = time.perf_counter() + seconds
    k = 0
    last_probe = 0
    while time.perf_counter() < deadline:
        if not w.in_process or time.perf_counter_ns() - last_probe >= PROBE_INTERVAL_NS:
            m.probes.append((k, reference_probe_ns()))
            last_probe = time.perf_counter_ns()
        traced = recorder is not None and (k // TRACE_BLOCK) % 2 == 0
        op, wall, audit_bytes, problem = one(traced)
        m.op_ids.append(op.index)
        m.walls_ns.append(wall)
        m.traced.append(traced)
        m.image_bytes.append(op.image_bytes)
        m.audit_bytes.append(audit_bytes)
        if problem:
            m.failures.append(problem)
        k += 1
    m.probes.append((k, reference_probe_ns()))
    m.peak_rss_kb = resource.getrusage(w.rusage_who()).ru_maxrss
    return m
