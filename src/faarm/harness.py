"""Adversarial scenario harness and latency benchmark.

Five scenarios run under two loader modes, BaselineLoader (no verification,
no lock) and the monitor, through one trial body per scenario: both loaders
take verify_and_lock(package) and fire the same hook points. Attack success
means attacker-controlled bytes ended up in the region while the loader
reported the firmware usable; for the TOCTOU scenario it means a load that
was reported verified while the region's final digest differs from the
verified digest.

Every trial draws its key and inputs from a per-trial RNG derived from
(seed, scenario, mode, trial index), so a seed reproduces the exact same
byte-level inputs; a monitor trial runs in a fresh temporary state
directory with a MANIFEST-fixed device identity.
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
from .mcu import DEFAULT_CAPACITY, HookPoint, McuRegion, WriteOutcome
from .monitor import STAGES, Monitor, StageTimings, VerifyResult
from .packaging import (
    DEFAULT_MCU_ID,
    FLAG_REQUIRES_LOCK,
    FirmwarePackage,
    Manifest,
    build_package,
)
from .state import AuditEvent, SecureStateStore, read_audit

HARNESS_TIMESTAMP = "2025-01-01T00:00:00Z"
# nominal MCU firmware initialisation time that bench overheads are quoted against
DEFAULT_NOMINAL_INIT_MS = 100.0

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


class ScenarioKind(Enum):
    """The adversarial scenarios run against the load protocol."""

    SIGNED_GOOD = "signed-good"
    TAMPER_BEFORE_VERIFY = "tamper-before-verify"
    TOCTOU_OVERWRITE = "toctou-overwrite"
    UNSIGNED_LOAD = "unsigned-load"
    ROLLBACK_LOAD = "rollback-load"


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
    seed: int = 0
    firmware_size: int = 4096
    scheme: SignatureScheme = SignatureScheme.ED25519

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if not 1 <= self.firmware_size <= DEFAULT_CAPACITY:
            raise HarnessError(
                f"firmware_size must be between 1 and the region capacity {DEFAULT_CAPACITY}"
            )


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


def _stage_stats(timings: Sequence[StageTimings]) -> dict[str, LatencyStats]:
    """Each stage's latency statistics over a run's loads, in stage order."""
    return {stage: LatencyStats.from_samples([t[i] for t in timings])
            for i, stage in enumerate(STAGES)}


def _latency_ms(timings: Sequence[StageTimings]) -> dict:
    """The latency_ms block of a report's JSON."""
    return {stage: {"mean": s.mean_ms, "std": s.std_ms, "count": s.count}
            for stage, s in _stage_stats(timings).items()}


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

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.kind.value,
            "mode": self.scenario.mode.value,
            "trials": self.scenario.trials,
            "seed": self.scenario.seed,
            "firmware_size": self.scenario.firmware_size,
            "scheme": self.scenario.scheme.value,
            "attack_success_count": self.attack_success_count,
            "blocked_count": self.blocked_count,
            "legitimate_success_count": self.legitimate_success_count,
            "reasons": self.reason_histogram(),
            "audit_counts": dict(sorted(self.audit_counts.items())),
            "infra_failures": list(self.infra_failures),
            "latency_ms": _latency_ms([t.timings for t in self.trials]),
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


class BaselineLoader:
    """The vulnerable loader the monitor is measured against, behind the
    monitor's region attribute and verify_and_lock interface: it fires the
    same hook points, copies every image into the region over the EL1
    channel with no verification and no lock, and reports every load
    accepted. The POST_LOCK hooks fire after the write, so a TOCTOU marker
    written there always lands."""

    def __init__(self, region: McuRegion):
        self.region = region

    def verify_and_lock(self, package: FirmwarePackage) -> VerifyResult:
        t_total = time.perf_counter()
        image = bytes(package.firmware)
        self.region.fire(HookPoint.PRE_VERIFY)
        self.region.fire(HookPoint.POST_VERIFY_PRE_LOCK)
        if self.region.el1_write(0, image) is not WriteOutcome.APPLIED:
            raise HarnessError("baseline load failed to apply")
        # it neither verifies nor locks: its whole load is the total
        timings = StageTimings(0.0, 0.0, (time.perf_counter() - t_total) * 1000.0)
        result = VerifyResult(
            accepted=True, reason=None, detail=None, version=package.manifest.version,
            digest=hash_data(image), token=None, timings=timings,
        )
        self.region.fire(HookPoint.POST_LOCK)
        return result


def _build(key: KeyPair, fw: bytes, version: int) -> FirmwarePackage:
    return build_package(
        fw, version=version, mcu_id=DEFAULT_MCU_ID, key=key,
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
    key = keygen(scenario.scheme, seed=rng.getrandbits(64), allow_seeded=True)
    region = McuRegion(capacity=DEFAULT_CAPACITY)
    if scenario.mode is LoaderMode.BASELINE:
        return _attack(scenario, index, rng, key, BaselineLoader(region)), Counter()
    store = SecureStateStore.provision(key.public, state_dir, durable=False)
    try:
        monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
        record = _attack(scenario, index, rng, key, monitor)
    finally:
        store.close()
    events = Counter(r.event.value for r in read_audit(state_dir))
    return record, events


def _attack(
    scenario: Scenario,
    index: int,
    rng: random.Random,
    key: KeyPair,
    loader: BaselineLoader | Monitor,
) -> TrialRecord:
    """One trial of the scenario against either loader: attack is whether
    attacker-controlled bytes ended up in the region of a load the loader
    accepted, legit whether a genuine image loaded intact."""
    kind = scenario.kind
    region = loader.region
    fw = rng.randbytes(scenario.firmware_size)
    attack = legit = None

    if kind is ScenarioKind.SIGNED_GOOD:
        result = loader.verify_and_lock(_build(key, fw, 1))
        legit = (
            result.accepted
            and result.digest is not None
            and region.digest() == result.digest
        )

    elif kind is ScenarioKind.TAMPER_BEFORE_VERIFY:
        package = _build(key, fw, 1)
        tampered = _flip_one_byte(fw, rng)
        adversarial = FirmwarePackage(tampered, package.manifest, package.signature)
        result = loader.verify_and_lock(adversarial)
        attack = result.accepted and region.digest() == hash_data(tampered)

    elif kind is ScenarioKind.UNSIGNED_LOAD:
        attacker = rng.randbytes(scenario.firmware_size)
        manifest = Manifest(
            version=1, mcu_id=DEFAULT_MCU_ID, timestamp=HARNESS_TIMESTAMP,
            firmware_hash=hash_data(attacker), flags=(FLAG_REQUIRES_LOCK,),
        )
        forged = FirmwarePackage(attacker, manifest, Signature(bytes(64)))
        result = loader.verify_and_lock(forged)
        attack = result.accepted and region.digest() == hash_data(attacker)

    elif kind is ScenarioKind.ROLLBACK_LOAD:
        stale = rng.randbytes(scenario.firmware_size)
        setup = loader.verify_and_lock(_build(key, fw, 3))
        if not setup.accepted:
            raise HarnessError(f"rollback setup load rejected: {setup.reason}")
        result = loader.verify_and_lock(_build(key, stale, 2))
        attack = result.accepted and region.digest() == hash_data(stale)

    elif kind is ScenarioKind.TOCTOU_OVERWRITE:
        package = _build(key, fw, 1)
        marker = rng.randbytes(min(64, scenario.firmware_size))
        for point in HookPoint:
            region.add_hook(point, lambda m=marker: region.el1_write(0, m))
        adv_rng = random.Random(rng.getrandbits(64))
        stop = threading.Event()

        def adversary() -> None:
            while not stop.is_set():
                offset = adv_rng.randrange(scenario.firmware_size)
                region.el1_write(offset, adv_rng.randbytes(16))

        thread = threading.Thread(target=adversary, name=f"toctou-adv-{index}")
        thread.start()
        try:
            result = loader.verify_and_lock(package)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        if thread.is_alive():  # pragma: no cover - defensive
            raise HarnessError("adversary thread failed to stop")
        attack = (
            result.accepted
            and result.digest is not None
            and region.digest() != result.digest
        )

    else:  # pragma: no cover
        raise HarnessError(f"unhandled scenario kind {kind}")
    reason = result.reason.value if result.reason else None
    return TrialRecord(index, attack, legit, reason, result.timings)


def _reconcile_with_audit(report: ScenarioReport) -> None:
    """Cross-check report counts against the audit logs the trials produced."""
    if report.scenario.mode is not LoaderMode.FAARM:
        return
    counts = report.audit_counts
    kind = report.scenario.kind
    accepts = counts.get(AuditEvent.VERIFY_ACCEPT.value, 0)
    rejects = counts.get(AuditEvent.VERIFY_REJECT.value, 0)
    rejected = sum(1 for t in report.trials if t.reason is not None)
    if rejects != rejected:
        raise HarnessError(
            f"{kind.value}: audit shows {rejects} rejects, report has {rejected} rejected trials"
        )
    if kind is ScenarioKind.SIGNED_GOOD:
        expected_accepts = report.legitimate_success_count
    elif kind is ScenarioKind.TOCTOU_OVERWRITE:
        expected_accepts = len(report.trials) - rejected
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
    modes: Iterable[LoaderMode] = tuple(LoaderMode),
    **fields,
) -> list[ScenarioReport]:
    """One report per kind and mode, kinds outermost; fields are Scenario's
    other fields, with Scenario's defaults. kinds and modes may be any
    iterables: both are read once, before the first run, and a repeated
    kind or mode runs once, at its first place."""
    kinds, modes = tuple(dict.fromkeys(kinds)), tuple(dict.fromkeys(modes))
    return [run_scenario(Scenario(kind=kind, mode=mode, **fields))
            for kind in kinds for mode in modes]


# -- benchmark -----------------------------------------------------------------


@dataclass
class BenchResult:
    firmware_size: int
    runs: int
    warmup: int
    seed: int
    scheme: SignatureScheme
    timings: list[StageTimings]  # one per measured load, warmup excluded

    def stats(self) -> dict[str, LatencyStats]:
        return _stage_stats(self.timings)

    @property
    def overhead_pct(self) -> float:
        return self.stats()["total"].mean_ms / DEFAULT_NOMINAL_INIT_MS * 100.0

    @property
    def reference_overhead_pct(self) -> float:
        return REFERENCE_LATENCY_MS["total_mean_ms"] / DEFAULT_NOMINAL_INIT_MS * 100.0

    def to_dict(self) -> dict:
        return {
            "firmware_size": self.firmware_size,
            "runs": self.runs,
            "warmup_excluded": self.warmup,
            "seed": self.seed,
            "scheme": self.scheme.value,
            "nominal_init_ms": DEFAULT_NOMINAL_INIT_MS,
            "overhead_pct": self.overhead_pct,
            "latency_ms": _latency_ms(self.timings),
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
) -> BenchResult:
    """Measure verify/lock/total stage latencies over `runs` accepted loads of
    fresh images, after `warmup` excluded runs; one monitor serves all runs
    with a strictly increasing version number. Each load builds a fresh
    Manifest, which carries no signature verdict, so every load pays a full
    signature check, even when an earlier call signed the same statements."""
    if runs < 1:
        raise HarnessError("runs must be >= 1")
    if warmup < 0:
        raise HarnessError("warmup must be >= 0")
    rng = random.Random(_trial_seed(seed, ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM, 0))
    timings: list[StageTimings] = []
    with tempfile.TemporaryDirectory(prefix="faarm-bench-") as tmp:
        state_dir = Path(tmp) / "state"
        key = keygen(scheme, seed=rng.getrandbits(64), allow_seeded=True)
        store = SecureStateStore.provision(key.public, state_dir, durable=False)
        try:
            region = McuRegion(capacity=max(DEFAULT_CAPACITY, firmware_size))
            monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
            for run in range(warmup + runs):
                fw = rng.randbytes(firmware_size)
                result = monitor.verify_and_lock(_build(key, fw, run + 1))
                if not result.accepted:
                    raise HarnessError(f"bench load rejected: {result.reason}")
                if run >= warmup:
                    timings.append(result.timings)
        finally:
            store.close()
    return BenchResult(
        firmware_size=firmware_size, runs=runs, warmup=warmup, seed=seed,
        scheme=scheme, timings=timings,
    )


# -- rendering -----------------------------------------------------------------


def reports_to_json(reports: Sequence[ScenarioReport]) -> str:
    scenarios = [r.to_dict() for r in reports]
    return json.dumps({"scenarios": scenarios}, indent=2, sort_keys=True) + "\n"


def bench_to_json(result: BenchResult) -> str:
    return json.dumps({"bench": result.to_dict()}, indent=2, sort_keys=True) + "\n"


def _timings_csv(key_fields: tuple[str, ...], rows: Iterable[tuple[tuple, StageTimings]]) -> str:
    """One CSV line per load: its key fields, then its stage timings."""
    out = StringIO()
    out.write(",".join((*key_fields, *StageTimings._fields)) + "\n")
    for keys, timings in rows:
        out.write(",".join((*map(str, keys), *(f"{ms:.6f}" for ms in timings))) + "\n")
    return out.getvalue()


def latency_csv(reports: Sequence[ScenarioReport]) -> str:
    return _timings_csv(("scenario", "mode", "trial"), (
        ((r.scenario.kind.value, r.scenario.mode.value, t.index), t.timings)
        for r in reports for t in r.trials
    ))


def bench_csv(result: BenchResult) -> str:
    return _timings_csv(("run",), (((i,), t) for i, t in enumerate(result.timings)))


def _outcome_cell(report: ScenarioReport) -> str:
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


def _rate_cell(report: ScenarioReport) -> str:
    n = len(report.trials)
    if report.scenario.kind is ScenarioKind.SIGNED_GOOD:
        return f"legit {report.legitimate_success_count}/{n}"
    if not n:  # every trial was an infrastructure failure
        return "0/0"
    return f"{report.attack_success_count}/{n} ({100.0 * report.attack_success_count / n:.0f}%)"


_COLUMN_TITLES = {LoaderMode.BASELINE: "baseline loader", LoaderMode.FAARM: "faarm monitor"}


def render_matrix(reports: Sequence[ScenarioReport]) -> str:
    """The outcome matrix and the attack success rates: one row per scenario
    kind and one column per loader mode, both at the outcome table's widths."""
    by_key = {(r.scenario.kind, r.scenario.mode): r for r in reports}
    kinds = [k for k in ALL_KINDS if any(key[0] is k for key in by_key)]
    tables = {
        title: [(k.value, *(cell(by_key[k, m]) if (k, m) in by_key else "-" for m in LoaderMode))
                for k in kinds]
        for title, cell in (("outcome matrix", _outcome_cell), ("attack success rates", _rate_cell))
    }
    header = ("scenario", *(_COLUMN_TITLES[mode] for mode in LoaderMode))
    widths = [max(map(len, column)) for column in zip(header, *tables["outcome matrix"])]
    out = StringIO()
    for title, rows in tables.items():
        out.write(f"{title}\n")
        for row in (header, ["-" * w for w in widths], *rows):
            out.write("".join(f"  {text:<{w}}" for text, w in zip(row, widths)) + "\n")
        out.write("\n")
    out.write(
        "note: the toctou-overwrite scenario is counted in both tables above;"
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
        f"({result.warmup} warmup excluded), {result.scheme.value}\n\n"
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
        f"\n  overhead vs {DEFAULT_NOMINAL_INIT_MS:.0f} ms nominal init: "
        f"{result.overhead_pct:.2f}% measured, "
        f"{result.reference_overhead_pct:.2f}% reference\n"
    )
    return out.getvalue()
