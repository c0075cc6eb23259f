"""Adversarial scenario harness and latency benchmark.

Five scenarios run under two loader modes: a vulnerable baseline that copies
firmware into the region with no verification and no lock, and the monitor
path. Attack success means attacker-controlled bytes ended up in the region
while the loader reported the firmware usable; for the TOCTOU scenario it
means a load that was reported verified while the region's final digest
differs from the verified digest.

Every trial runs in a fresh temporary state directory with a MANIFEST-fixed
device identity and a per-trial RNG derived from (seed, scenario, mode,
trial index), so a seed reproduces the exact same byte-level inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

from .crypto import KeyPair, Signature, SignatureScheme, hash_data, keygen
from .mcu import (
    DEFAULT_CAPACITY,
    DEFAULT_NOMINAL_INIT_MS,
    HookPoint,
    LockMode,
    McuRegion,
    WriteOutcome,
)
from .monitor import STAGES, Monitor, ScenarioKind, StageTimings, VerifyResult
from .packaging import (
    DEFAULT_MCU_ID,
    FLAG_REQUIRES_LOCK,
    FirmwarePackage,
    Manifest,
    build_package,
)
from .state import AuditEvent, SecureStateStore, read_audit

HARNESS_TIMESTAMP = "2025-01-01T00:00:00Z"

# Reference prototype timings used for side-by-side comparison in bench
# output; desk measurements are hardware-dependent and are compared only at
# order-of-magnitude level.
REFERENCE_LATENCY_MS = {
    "verify_mean_ms": 1.34,
    "verify_std_ms": 0.05,
    "lock_mean_ms": 0.22,
    "lock_std_ms": 0.03,
    "total_mean_ms": 1.56,
    "total_std_ms": 0.06,
    "runs": 100,
}


class HarnessError(Exception):
    pass


class LoaderMode(Enum):
    BASELINE = "baseline"
    FAARM = "faarm"


ADVERSARIAL_KINDS = (
    ScenarioKind.TAMPER_BEFORE_VERIFY,
    ScenarioKind.TOCTOU_OVERWRITE,
    ScenarioKind.UNSIGNED_LOAD,
    ScenarioKind.ROLLBACK_LOAD,
)
ALL_KINDS = (ScenarioKind.SIGNED_GOOD,) + ADVERSARIAL_KINDS


@dataclass(frozen=True)
class Scenario:
    kind: ScenarioKind
    mode: LoaderMode
    trials: int = 50
    lock_mode: LockMode = LockMode.HARDWARE_WP
    seed: int = 0
    firmware_size: int = 4096
    scheme: SignatureScheme = SignatureScheme.ED25519

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if self.firmware_size < 1:
            raise HarnessError("firmware_size must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    index: int
    attack_success: bool | None
    legitimate_success: bool | None
    reason: str | None
    timings: StageTimings


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    std_ms: float
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls(0.0, 0.0, 0)
        mean = statistics.fmean(samples)
        std = statistics.stdev(samples) if len(samples) > 1 else 0.0
        return cls(mean, std, len(samples))


@dataclass
class ScenarioReport:
    scenario: Scenario
    trials: list[TrialRecord]
    audit_counts: dict[str, int]
    infra_failures: list[str] = field(default_factory=list)

    @property
    def attack_success_count(self) -> int:
        return sum(1 for t in self.trials if t.attack_success)

    @property
    def blocked_count(self) -> int:
        return sum(1 for t in self.trials if t.attack_success is False)

    @property
    def legitimate_success_count(self) -> int:
        return sum(1 for t in self.trials if t.legitimate_success)

    def reason_histogram(self) -> dict[str, int]:
        counts: Counter[str] = Counter(t.reason for t in self.trials if t.reason)
        return dict(sorted(counts.items()))

    def latency_stats(self) -> dict[str, LatencyStats]:
        return {
            stage: LatencyStats.from_samples([t.timings[i] for t in self.trials])
            for i, stage in enumerate(STAGES)
        }

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.kind.value,
            "mode": self.scenario.mode.value,
            "trials": self.scenario.trials,
            "lock_mode": self.scenario.lock_mode.value,
            "seed": self.scenario.seed,
            "firmware_size": self.scenario.firmware_size,
            "scheme": self.scenario.scheme.value,
            "attack_success_count": self.attack_success_count,
            "blocked_count": self.blocked_count,
            "legitimate_success_count": self.legitimate_success_count,
            "reasons": self.reason_histogram(),
            "audit_counts": dict(sorted(self.audit_counts.items())),
            "infra_failures": list(self.infra_failures),
            "latency_ms": {
                stage: {"mean": stats.mean_ms, "std": stats.std_ms, "count": stats.count}
                for stage, stats in self.latency_stats().items()
            },
        }


def _trial_seed(seed: int, kind: ScenarioKind, mode: LoaderMode, index: int) -> int:
    material = f"{seed}:{kind.value}:{mode.value}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _flip_one_byte(data: bytes, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data))
    old = data[pos]
    new = rng.randrange(256)
    while new == old:
        new = rng.randrange(256)
    return data[:pos] + bytes([new]) + data[pos + 1 :]


@dataclass
class _Env:
    key: KeyPair
    store: SecureStateStore
    region: McuRegion
    monitor: Monitor


def _make_env(scenario: Scenario, rng: random.Random, state_dir: Path) -> _Env:
    key = keygen(scenario.scheme, seed=rng.getrandbits(64), allow_seeded=True)
    store = SecureStateStore.provision(key.public, state_dir, durable=False)
    region = McuRegion(capacity=DEFAULT_CAPACITY, lock_mode=scenario.lock_mode)
    monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
    return _Env(key, store, region, monitor)


def _build(env: _Env, fw: bytes, version: int) -> FirmwarePackage:
    return build_package(
        fw, version=version, mcu_id=DEFAULT_MCU_ID, key=env.key,
        timestamp=HARNESS_TIMESTAMP,
    )


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Run all trials of one scenario; each trial gets a fresh state directory
    and a deterministic per-trial RNG."""
    trials: list[TrialRecord] = []
    audit_counts: Counter[str] = Counter()
    infra: list[str] = []
    for index in range(scenario.trials):
        rng = random.Random(_trial_seed(scenario.seed, scenario.kind, scenario.mode, index))
        try:
            with tempfile.TemporaryDirectory(prefix="faarm-trial-") as tmp:
                record, events = _run_trial(scenario, index, rng, Path(tmp) / "state")
            trials.append(record)
            audit_counts.update(events)
        except Exception as exc:  # infrastructure failure, reported separately
            infra.append(f"trial {index}: {type(exc).__name__}: {exc}")
    report = ScenarioReport(scenario, trials, dict(audit_counts), infra)
    _reconcile_with_audit(report)
    return report


def _run_trial(
    scenario: Scenario, index: int, rng: random.Random, state_dir: Path
) -> tuple[TrialRecord, Counter]:
    if scenario.mode is LoaderMode.BASELINE:
        return _run_baseline_trial(scenario, index, rng), Counter()
    env = _make_env(scenario, rng, state_dir)
    try:
        record = _run_faarm_trial(scenario, index, rng, env)
    finally:
        env.store.close()
    events = Counter(r.event.value for r in read_audit(state_dir))
    return record, events


def _run_baseline_trial(scenario: Scenario, index: int, rng: random.Random) -> TrialRecord:
    region = McuRegion(capacity=DEFAULT_CAPACITY, lock_mode=scenario.lock_mode)
    fw = rng.randbytes(scenario.firmware_size)
    kind = scenario.kind

    def load(image: bytes) -> float:
        t0 = time.perf_counter()
        outcome = region.el1_write(0, image)
        if outcome is not WriteOutcome.APPLIED:
            raise HarnessError("baseline load failed to apply")
        return (time.perf_counter() - t0) * 1000.0

    legit = success = None
    if kind is ScenarioKind.SIGNED_GOOD:
        total = load(fw)
        legit = region.digest() == hash_data(fw)
    elif kind is ScenarioKind.TAMPER_BEFORE_VERIFY:
        tampered = _flip_one_byte(fw, rng)
        total = load(tampered)
        success = region.digest() == hash_data(tampered)
    elif kind is ScenarioKind.UNSIGNED_LOAD:
        attacker = rng.randbytes(scenario.firmware_size)
        total = load(attacker)
        success = region.digest() == hash_data(attacker)
    elif kind is ScenarioKind.ROLLBACK_LOAD:
        old = rng.randbytes(scenario.firmware_size)
        load(fw)
        total = load(old)  # the replayed stale image goes straight in
        success = region.digest() == hash_data(old)
    elif kind is ScenarioKind.TOCTOU_OVERWRITE:
        total = load(fw)
        overwrite = rng.randbytes(min(64, scenario.firmware_size))
        outcome = region.el1_write(0, overwrite)
        success = (
            outcome is WriteOutcome.APPLIED and region.digest() != hash_data(fw)
        )
    else:  # pragma: no cover
        raise HarnessError(f"unhandled scenario kind {kind}")
    # the baseline neither verifies nor locks: its whole load is the total
    return TrialRecord(index, success, legit, None, StageTimings(0.0, 0.0, total))


def _run_faarm_trial(
    scenario: Scenario, index: int, rng: random.Random, env: _Env
) -> TrialRecord:
    kind = scenario.kind
    fw = rng.randbytes(scenario.firmware_size)

    if kind is ScenarioKind.SIGNED_GOOD:
        result = env.monitor.verify_and_lock(_build(env, fw, 1))
        ok = (
            result.accepted
            and result.digest is not None
            and env.region.digest() == result.digest
        )
        return _record(index, attack=None, legit=ok, result=result)

    if kind is ScenarioKind.TAMPER_BEFORE_VERIFY:
        package = _build(env, fw, 1)
        tampered = _flip_one_byte(fw, rng)
        adversarial = FirmwarePackage(tampered, package.manifest, package.signature)
        result = env.monitor.verify_and_lock(adversarial)
        success = result.accepted and env.region.digest() == hash_data(tampered)
        return _record(index, attack=success, legit=None, result=result)

    if kind is ScenarioKind.UNSIGNED_LOAD:
        attacker = rng.randbytes(scenario.firmware_size)
        manifest = Manifest(
            version=1, mcu_id=DEFAULT_MCU_ID, timestamp=HARNESS_TIMESTAMP,
            firmware_hash=hash_data(attacker), flags=(FLAG_REQUIRES_LOCK,),
        )
        forged = FirmwarePackage(attacker, manifest, Signature(bytes(64)))
        result = env.monitor.verify_and_lock(forged)
        success = result.accepted and env.region.digest() == hash_data(attacker)
        return _record(index, attack=success, legit=None, result=result)

    if kind is ScenarioKind.ROLLBACK_LOAD:
        stale = rng.randbytes(scenario.firmware_size)
        setup = env.monitor.verify_and_lock(_build(env, fw, 3))
        if not setup.accepted:
            raise HarnessError(f"rollback setup load rejected: {setup.reason}")
        result = env.monitor.verify_and_lock(_build(env, stale, 2))
        success = result.accepted and env.region.digest() == hash_data(stale)
        return _record(index, attack=success, legit=None, result=result)

    if kind is ScenarioKind.TOCTOU_OVERWRITE:
        package = _build(env, fw, 1)
        marker = rng.randbytes(min(64, scenario.firmware_size))
        for point in HookPoint:
            env.region.add_hook(point, lambda m=marker: env.region.el1_write(0, m))
        adv_rng = random.Random(rng.getrandbits(64))
        stop = threading.Event()

        def adversary() -> None:
            while not stop.is_set():
                offset = adv_rng.randrange(scenario.firmware_size)
                env.region.el1_write(offset, adv_rng.randbytes(16))

        thread = threading.Thread(target=adversary, name=f"toctou-adv-{index}")
        thread.start()
        try:
            result = env.monitor.verify_and_lock(package)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        if thread.is_alive():  # pragma: no cover - defensive
            raise HarnessError("adversary thread failed to stop")
        success = (
            result.accepted
            and result.digest is not None
            and env.region.digest() != result.digest
        )
        return _record(index, attack=success, legit=None, result=result)

    raise HarnessError(f"unhandled scenario kind {kind}")  # pragma: no cover


def _record(
    index: int, *, attack: bool | None, legit: bool | None, result: VerifyResult
) -> TrialRecord:
    return TrialRecord(
        index=index,
        attack_success=attack,
        legitimate_success=legit,
        reason=result.reason.value if result.reason else None,
        timings=result.timings,
    )


def _reconcile_with_audit(report: ScenarioReport) -> None:
    """Cross-check report counts against the audit logs the trials produced."""
    if report.scenario.mode is not LoaderMode.FAARM:
        return
    counts = report.audit_counts
    kind = report.scenario.kind
    accepts = counts.get(AuditEvent.VERIFY_ACCEPT.value, 0)
    rejects = counts.get(AuditEvent.VERIFY_REJECT.value, 0)
    if kind is ScenarioKind.SIGNED_GOOD:
        expected_accepts = report.legitimate_success_count
    elif kind is ScenarioKind.TOCTOU_OVERWRITE:
        expected_accepts = sum(1 for t in report.trials if t.reason is None)
    else:
        blocked = report.blocked_count
        if rejects != blocked:
            raise HarnessError(
                f"{kind.value}: audit shows {rejects} rejects, report says {blocked} blocked"
            )
        expected_accepts = report.attack_success_count
        if kind is ScenarioKind.ROLLBACK_LOAD:  # each trial first accepts version 3
            expected_accepts += len(report.trials)
    if accepts != expected_accepts:
        raise HarnessError(
            f"{kind.value}: audit shows {accepts} accepts, report implies {expected_accepts}"
        )


def run_matrix(
    *,
    kinds: Iterable[ScenarioKind] = ALL_KINDS,
    modes: Iterable[LoaderMode] = (LoaderMode.BASELINE, LoaderMode.FAARM),
    trials: int = 50,
    seed: int = 0,
    lock_mode: LockMode = LockMode.HARDWARE_WP,
    firmware_size: int = 4096,
    scheme: SignatureScheme = SignatureScheme.ED25519,
) -> list[ScenarioReport]:
    reports = []
    for kind in kinds:
        for mode in modes:
            scenario = Scenario(
                kind=kind, mode=mode, trials=trials, lock_mode=lock_mode,
                seed=seed, firmware_size=firmware_size, scheme=scheme,
            )
            reports.append(run_scenario(scenario))
    return reports


# -- benchmark -----------------------------------------------------------------


@dataclass
class BenchResult:
    firmware_size: int
    runs: int
    warmup: int
    seed: int
    scheme: SignatureScheme
    lock_mode: LockMode
    nominal_init_ms: float
    samples: dict[str, list[float]]

    def stats(self) -> dict[str, LatencyStats]:
        return {stage: LatencyStats.from_samples(s) for stage, s in self.samples.items()}

    @property
    def overhead_pct(self) -> float:
        return self.stats()["total"].mean_ms / self.nominal_init_ms * 100.0

    @property
    def reference_overhead_pct(self) -> float:
        return REFERENCE_LATENCY_MS["total_mean_ms"] / DEFAULT_NOMINAL_INIT_MS * 100.0

    def to_dict(self) -> dict:
        stats = self.stats()
        return {
            "firmware_size": self.firmware_size,
            "runs": self.runs,
            "warmup_excluded": self.warmup,
            "seed": self.seed,
            "scheme": self.scheme.value,
            "lock_mode": self.lock_mode.value,
            "nominal_init_ms": self.nominal_init_ms,
            "overhead_pct": self.overhead_pct,
            "latency_ms": {
                stage: {"mean": s.mean_ms, "std": s.std_ms, "count": s.count}
                for stage, s in stats.items()
            },
            "reference": dict(REFERENCE_LATENCY_MS),
            "reference_overhead_pct": self.reference_overhead_pct,
        }


def run_bench(
    *,
    firmware_size: int = 1024 * 1024,
    runs: int = 100,
    warmup: int = 10,
    seed: int = 0,
    scheme: SignatureScheme = SignatureScheme.ECDSA_P256,
    lock_mode: LockMode = LockMode.HARDWARE_WP,
    nominal_init_ms: float = DEFAULT_NOMINAL_INIT_MS,
) -> BenchResult:
    """Measure verify/lock/total stage latencies over `runs` accepted loads of
    fresh images, after `warmup` excluded runs; one monitor serves all runs
    with a strictly increasing version number."""
    if runs < 1:
        raise HarnessError("runs must be >= 1")
    rng = random.Random(_trial_seed(seed, ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM, 0))
    samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
    with tempfile.TemporaryDirectory(prefix="faarm-bench-") as tmp:
        state_dir = Path(tmp) / "state"
        key = keygen(scheme, seed=rng.getrandbits(64), allow_seeded=True)
        store = SecureStateStore.provision(key.public, state_dir, durable=False)
        try:
            region = McuRegion(
                capacity=max(DEFAULT_CAPACITY, firmware_size), lock_mode=lock_mode
            )
            monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
            env = _Env(key, store, region, monitor)
            for run in range(warmup + runs):
                fw = rng.randbytes(firmware_size)
                result = monitor.verify_and_lock(_build(env, fw, run + 1))
                if not result.accepted:
                    raise HarnessError(f"bench load rejected: {result.reason}")
                if run >= warmup:
                    for stage, ms in result.timings.by_stage().items():
                        samples[stage].append(ms)
        finally:
            store.close()
    return BenchResult(
        firmware_size=firmware_size, runs=runs, warmup=warmup, seed=seed,
        scheme=scheme, lock_mode=lock_mode, nominal_init_ms=nominal_init_ms,
        samples=samples,
    )


# -- rendering -----------------------------------------------------------------


def reports_to_json(reports: Sequence[ScenarioReport], *, config: dict | None = None) -> str:
    payload = {
        "config": config or {},
        "scenarios": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bench_to_json(result: BenchResult, *, config: dict | None = None) -> str:
    return json.dumps(
        {"config": config or {}, "bench": result.to_dict()}, indent=2, sort_keys=True
    ) + "\n"


def latency_csv(reports: Sequence[ScenarioReport]) -> str:
    out = StringIO()
    out.write(",".join(("scenario", "mode", "trial", *StageTimings._fields)) + "\n")
    for report in reports:
        kind, mode = report.scenario.kind.value, report.scenario.mode.value
        for t in report.trials:
            cells = ",".join(f"{ms:.6f}" for ms in t.timings)
            out.write(f"{kind},{mode},{t.index},{cells}\n")
    return out.getvalue()


def bench_csv(result: BenchResult) -> str:
    out = StringIO()
    out.write(",".join(("run", *StageTimings._fields)) + "\n")
    for i, timings in enumerate(zip(*(result.samples[stage] for stage in STAGES))):
        out.write(f"{i}," + ",".join(f"{ms:.6f}" for ms in timings) + "\n")
    return out.getvalue()


def _matrix_cell(report: ScenarioReport) -> str:
    n = len(report.trials)
    kind = report.scenario.kind
    if report.scenario.mode is LoaderMode.BASELINE:
        if kind is ScenarioKind.SIGNED_GOOD:
            return f"loads, unprotected ({report.legitimate_success_count}/{n})"
        return f"attack succeeds ({report.attack_success_count}/{n})"
    if kind is ScenarioKind.SIGNED_GOOD:
        return f"loads, locked ({report.legitimate_success_count}/{n})"
    if kind is ScenarioKind.TOCTOU_OVERWRITE:
        return f"overwrite defeated ({report.blocked_count}/{n})"
    reasons = report.reason_histogram()
    dominant = max(reasons, key=reasons.get) if reasons else "?"
    return f"blocked: {dominant} ({report.blocked_count}/{n})"


def render_matrix(reports: Sequence[ScenarioReport]) -> str:
    """Two-column outcome matrix plus an attack success-rate summary."""
    by_key = {(r.scenario.kind, r.scenario.mode): r for r in reports}
    kinds = [k for k in ALL_KINDS if any(key[0] is k for key in by_key)]
    rows = []
    for kind in kinds:
        baseline = by_key.get((kind, LoaderMode.BASELINE))
        faarm = by_key.get((kind, LoaderMode.FAARM))
        rows.append(
            (
                kind.value,
                _matrix_cell(baseline) if baseline else "-",
                _matrix_cell(faarm) if faarm else "-",
            )
        )
    widths = [
        max(len("scenario"), *(len(r[0]) for r in rows)),
        max(len("baseline loader"), *(len(r[1]) for r in rows)),
        max(len("faarm monitor"), *(len(r[2]) for r in rows)),
    ]
    out = StringIO()

    def line(cells: tuple[str, str, str]) -> None:
        out.write(
            f"  {cells[0]:<{widths[0]}}  {cells[1]:<{widths[1]}}  {cells[2]:<{widths[2]}}\n"
        )

    out.write("outcome matrix\n")
    line(("scenario", "baseline loader", "faarm monitor"))
    line(tuple("-" * w for w in widths))  # type: ignore[arg-type]
    for row in rows:
        line(row)

    out.write("\nattack success rates\n")
    line(("scenario", "baseline loader", "faarm monitor"))
    line(tuple("-" * w for w in widths))  # type: ignore[arg-type]
    for kind in kinds:
        baseline = by_key.get((kind, LoaderMode.BASELINE))
        faarm = by_key.get((kind, LoaderMode.FAARM))

        def rate(r: ScenarioReport | None) -> str:
            if r is None:
                return "-"
            n = len(r.trials)
            if kind is ScenarioKind.SIGNED_GOOD:
                return f"legit {r.legitimate_success_count}/{n}"
            return f"{r.attack_success_count}/{n} ({100.0 * r.attack_success_count / n:.0f}%)"

        line((kind.value, rate(baseline), rate(faarm)))
    out.write(
        "\nnote: the toctou-overwrite scenario is counted in both tables above;"
        "\nits blocked column reflects overwrites that were denied by the held"
        "\nlock or caught by the post-lock recheck.\n"
    )
    infra = [f for r in reports for f in r.infra_failures]
    if infra:
        out.write("\ninfrastructure failures:\n")
        for item in infra:
            out.write(f"  {item}\n")
    return out.getvalue()


def render_bench(result: BenchResult) -> str:
    stats = result.stats()
    ref = REFERENCE_LATENCY_MS
    out = StringIO()
    out.write(
        f"latency bench: {result.firmware_size} byte image, {result.runs} runs "
        f"({result.warmup} warmup excluded), {result.scheme.value}, "
        f"{result.lock_mode.value}\n\n"
    )
    out.write("  stage    measured mean+/-std         reference mean+/-std\n")
    out.write("  ------   -------------------------   --------------------\n")
    for stage in STAGES:
        s = stats[stage]
        out.write(
            f"  {stage:<6}   {s.mean_ms:7.3f} +/- {s.std_ms:6.3f} ms (n={s.count})"
            f"   {ref[f'{stage}_mean_ms']:5.2f} +/- {ref[f'{stage}_std_ms']:4.2f} ms\n"
        )
    out.write(
        f"\n  overhead vs {result.nominal_init_ms:.0f} ms nominal init: "
        f"{result.overhead_pct:.2f}% measured, "
        f"{result.reference_overhead_pct:.2f}% reference\n"
    )
    return out.getvalue()
