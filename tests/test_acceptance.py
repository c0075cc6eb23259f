"""Acceptance gate: one test per shipping criterion, run at full scale.

Each test prints a single PASS line with its headline numbers (visible with
pytest -s or -rP; under plain -v the per-test PASSED line carries the verdict).
"""

import random
import threading
import time
from pathlib import Path

import pytest

from faarm.crypto import SignatureScheme, keygen
from faarm.harness import (
    ADVERSARIAL_KINDS,
    DEFAULT_MCU_ID,
    DEFAULT_NOMINAL_INIT_MS,
    HARNESS_TIMESTAMP,
    REFERENCE_LATENCY_MS,
    LoaderMode,
    ScenarioKind,
    run_bench,
    run_matrix,
)
from faarm.mcu import HookPoint, LockState, McuRegion, WriteOutcome
from faarm.monitor import (
    Monitor,
    RejectionReason,
    replay_protocol_invariants,
)
from faarm.packaging import FirmwarePackage, build_package, canonical_bytes, write_bundle
from faarm.state import (
    AuditEvent,
    SecureStateStore,
    check_audit_chain,
    read_audit,
    read_state,
)


def _say(line: str) -> None:
    print(f"\n{line}", flush=True)


def _fresh(tmp_path: Path, name: str, *, capacity: int = 1024 * 1024):
    key = keygen(SignatureScheme.ED25519, seed=20_25, allow_seeded=True)
    store = SecureStateStore.provision(key.public, tmp_path / name, durable=False)
    region = McuRegion(capacity=capacity)
    monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
    return key, store, region, monitor


def _pkg(key, fw: bytes, version: int, **kw) -> FirmwarePackage:
    kw.setdefault("mcu_id", DEFAULT_MCU_ID)
    kw.setdefault("timestamp", HARNESS_TIMESTAMP)
    return build_package(fw, version=version, key=key, **kw)


def test_attack_matrix_counts_are_exact():
    """50 trials per scenario: adversaries go 50/50 against the baseline
    loader and 0/50 against the monitor; genuine images load 50/50."""
    started = time.monotonic()
    trials = 50
    reports = run_matrix(trials=trials, seed=1729)
    elapsed = time.monotonic() - started

    by_key = {(r.scenario.kind, r.scenario.mode): r for r in reports}
    for kind in ADVERSARIAL_KINDS:
        baseline = by_key[(kind, LoaderMode.BASELINE)]
        hardened = by_key[(kind, LoaderMode.FAARM)]
        assert baseline.attack_success_count == trials, kind
        assert hardened.attack_success_count == 0, kind
        assert hardened.infra_failures == [], kind
    good = by_key[(ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM)]
    assert good.legitimate_success_count == trials
    assert by_key[(ScenarioKind.SIGNED_GOOD, LoaderMode.BASELINE)].legitimate_success_count == trials

    assert elapsed < 30, f"matrix took {elapsed:.1f}s, budget 30s"
    _say(
        f"PASS attack matrix: baseline {trials}/{trials} compromised, "
        f"hardened 0/{trials} across {len(ADVERSARIAL_KINDS)} attack kinds, "
        f"genuine {trials}/{trials}, in {elapsed:.1f}s"
    )


def test_toctou_window_is_closed(tmp_path):
    """No schedule, deterministic or randomized, ever yields an accepted load
    whose locked region content differs from the verified digest."""
    started = time.monotonic()
    fw_size = 8192
    violations = 0

    # deterministic interposition at each protocol point
    for n, point in enumerate(HookPoint):
        key, store, region, monitor = _fresh(tmp_path, f"det-{point.value}")
        try:
            rng = random.Random(0xDE7 + n)
            fw = rng.randbytes(fw_size)
            region.add_hook(point, lambda: region.el1_write(0, b"\x99" * 256))
            result = monitor.verify_and_lock(_pkg(key, fw, 1))
            assert result.accepted
            if region.digest() != result.digest or not region.recheck():
                violations += 1
        finally:
            store.close()

    # randomized concurrent schedules, fixed seed set, one long-lived monitor
    schedules = 1000
    key, store, region, monitor = _fresh(tmp_path, "rand")
    try:
        for trial in range(schedules):
            rng = random.Random(0x70C70 + trial)
            fw = rng.randbytes(fw_size)
            package = _pkg(key, fw, trial + 1)
            stop = threading.Event()

            def adversary(r=rng, s=stop):
                jitter = r.random
                while not s.is_set():
                    region.el1_write(int(jitter() * fw_size), b"\x99" * (1 + int(jitter() * 64)))
                    if jitter() < 0.25:
                        time.sleep(jitter() * 0.0001)

            thread = threading.Thread(target=adversary, daemon=True)
            thread.start()
            try:
                result = monitor.verify_and_lock(package)
            finally:
                stop.set()
                thread.join()
            assert result.accepted, f"schedule {trial}: {result.reason}"
            if region.digest() != result.digest or region.lock_state is not LockState.LOCKED:
                violations += 1
    finally:
        store.close()

    elapsed = time.monotonic() - started
    assert violations == 0
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    _say(
        f"PASS toctou closure: {len(HookPoint)} deterministic points + "
        f"{schedules} randomized schedules, 0 violations, in {elapsed:.1f}s"
    )


def test_rollback_never_regresses_counter(tmp_path):
    """100 random mixed load sequences of length 100: accepted versions are
    strictly increasing on replay and every rejection leaves the counter."""
    started = time.monotonic()
    sequences, loads = 100, 100
    fw = bytes(512)
    total_rollbacks = 0

    for seq in range(sequences):
        rng = random.Random(0xAB0 + seq)
        key, store, region, monitor = _fresh(tmp_path, f"seq-{seq}", capacity=4096)
        try:
            committed = 0
            for _ in range(loads):
                candidate = rng.randint(1, 40)
                result = monitor.verify_and_lock(_pkg(key, fw, candidate))
                if candidate > committed:
                    assert result.accepted, (seq, candidate, result.reason)
                    committed = candidate
                else:
                    assert result.reason is RejectionReason.ROLLBACK, (seq, candidate)
                    total_rollbacks += 1
                assert store.nv_counter == committed
            records = read_audit(store.path)
            replay_protocol_invariants(records)
            accepted = [r.version for r in records if r.event is AuditEvent.VERIFY_ACCEPT]
            assert accepted == sorted(set(accepted)), "accepts not strictly increasing"
        finally:
            store.close()

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    _say(
        f"PASS anti-rollback: {sequences} sequences x {loads} loads, "
        f"{total_rollbacks} rollbacks all rejected with counter intact, in {elapsed:.1f}s"
    )


def test_latency_budget_and_overhead():
    """1 MiB firmware, 100 measured runs: mean total within 20 ms and within
    20% of the 100 ms nominal boot budget, with stddev over >= 100 samples."""
    started = time.monotonic()
    result = run_bench(firmware_size=1024 * 1024, runs=100, warmup=10, seed=0)
    stats = result.stats()
    elapsed = time.monotonic() - started

    assert stats["total"].count >= 100
    assert stats["verify"].count >= 100
    mean_total = stats["total"].mean_ms
    overhead = result.overhead_pct
    assert mean_total <= 20.0, f"mean total {mean_total:.2f} ms exceeds 20 ms"
    assert overhead < 20.0, f"overhead {overhead:.2f}% exceeds 20%"
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"

    ref = REFERENCE_LATENCY_MS
    _say(
        "PASS latency: measured total "
        f"{mean_total:.2f} ms (sigma {stats['total'].std_ms:.3f}, n={stats['total'].count}), "
        f"verify {stats['verify'].mean_ms:.2f} ms, lock {stats['lock'].mean_ms:.2f} ms, "
        f"overhead {overhead:.2f}% of {DEFAULT_NOMINAL_INIT_MS:.0f} ms nominal | "
        f"reference prototype: total {ref['total_mean_ms']} ms "
        f"(sigma {ref['total_std_ms']}), verify {ref['verify_mean_ms']} ms, "
        f"lock {ref['lock_mean_ms']} ms, overhead {result.reference_overhead_pct:.2f}%"
    )


def test_single_byte_mutations_all_rejected(tmp_path):
    """>= 1000 single-byte flips uniformly across firmware, manifest, and
    signature bytes: every mutant is rejected with a classified reason."""
    started = time.monotonic()
    mutations = 1000
    rng = random.Random(0xF1)

    key, store, region, monitor = _fresh(tmp_path, "fuzz", capacity=16 * 1024)
    fw = rng.randbytes(4096)
    good = _pkg(key, fw, 1)
    parts = {
        "firmware.bin": good.firmware,
        "manifest.json": canonical_bytes(good.manifest),
        "firmware.sig": good.signature.data,
    }
    bundle = tmp_path / "fuzz-bundle"
    write_bundle(good, bundle)

    sizes = {name: len(data) for name, data in parts.items()}
    total = sum(sizes.values())
    reason_counts: dict[str, int] = {}
    accepted = 0
    try:
        for _ in range(mutations):
            index = rng.randrange(total)
            for name, size in sizes.items():
                if index < size:
                    break
                index -= size
            original = parts[name]
            flip = rng.randrange(1, 256)
            mutated = (
                original[:index]
                + bytes([original[index] ^ flip])
                + original[index + 1 :]
            )
            (bundle / name).write_bytes(mutated)
            result = monitor.verify_bundle(bundle)
            (bundle / name).write_bytes(original)
            if result.accepted:
                accepted += 1
            else:
                assert result.reason is not None
                reason_counts[result.reason.value] = (
                    reason_counts.get(result.reason.value, 0) + 1
                )
        assert store.nv_counter == 0, "a mutant must never commit the counter"
    finally:
        store.close()

    elapsed = time.monotonic() - started
    assert accepted == 0, f"{accepted} mutants were accepted"
    assert sum(reason_counts.values()) == mutations
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(reason_counts.items()))
    _say(f"PASS mutation fuzz: {mutations} mutants, 0 accepted ({breakdown}), in {elapsed:.1f}s")


class _Boom(RuntimeError):
    pass


def _crash_script(tmp_path: Path, name: str, hook):
    """Drive one provisioned monitor through every audit event kind."""
    key = keygen(SignatureScheme.ED25519, seed=20_25, allow_seeded=True)
    fw1, fw2 = b"\x01" * 1024, b"\x02" * 1024
    store = None
    try:
        store = SecureStateStore.provision(
            key.public, tmp_path / name, durable=False, crash_hook=hook
        )
        region = McuRegion(capacity=4096)
        monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)

        result = monitor.verify_and_lock(_pkg(key, fw1, 1))           # LOCK + ACCEPT
        assert result.accepted
        assert monitor.session_start() is True                        # SESSION_RECHECK
        assert monitor.submit_task(result.token, b"ENC1go").admitted  # TASK_ADMIT
        assert not monitor.submit_task(None, b"ENC1go").admitted      # TASK_DENY
        replay = monitor.verify_and_lock(_pkg(key, fw1, 1))           # VERIFY_REJECT
        assert replay.reason is RejectionReason.ROLLBACK
        assert region.el1_write(0, b"\xff") is WriteOutcome.DENIED    # WRITE_DENIED
        result = monitor.verify_and_lock(_pkg(key, fw2, 2))           # LOCK + ACCEPT
        assert result.accepted
    finally:
        if store is not None:
            store.close()


def test_crash_at_every_audit_boundary_keeps_state_consistent(tmp_path):
    """Kill the process-equivalent at each audit/commit write boundary: the
    chain verifies, the counter equals the last accept whose commit
    completed, and a reload brings it to the last logged accept."""
    started = time.monotonic()

    labels: list[str] = []
    _crash_script(tmp_path, "count", labels.append)
    assert len(labels) >= 20
    events_covered = {
        label.split(":", 2)[2] for label in labels if label.startswith("audit:post:")
    }
    # RECOVER is written only by a load that repairs a crash, checked below
    assert events_covered == {e.value for e in AuditEvent} - {"RECOVER"}, events_covered
    interrupted_accept = ("audit:post:VERIFY_ACCEPT", "commit:pre")
    assert "commit:pre" in labels and "commit:post" in labels

    for k, expected_label in enumerate(labels):
        state: dict = {"n": 0}

        def killer(label, _state=state, _k=k):
            if _state["n"] == _k:
                raise _Boom(label)
            _state["n"] += 1

        try:
            _crash_script(tmp_path, f"kill-{k}", killer)
            pytest.fail(f"kill point {k} ({expected_label}) never fired")
        except _Boom as boom:
            crash_label = str(boom)
        assert crash_label == expected_label

        path = tmp_path / f"kill-{k}"
        _, nv = read_state(path)
        records = read_audit(path)
        check_audit_chain(path)
        replay_protocol_invariants(records)

        # The accept path is write-ahead: the VERIFY_ACCEPT record lands
        # before the counter commit. So the exact expected counter follows
        # from the crash label alone: between the accept append and the
        # counter write (audit:post:VERIFY_ACCEPT, commit:pre) the log is one
        # accept ahead of the counter; everywhere else they agree.
        logged_accepts = [
            r.version for r in records if r.event is AuditEvent.VERIFY_ACCEPT
        ]
        last = logged_accepts[-1] if logged_accepts else 0
        prev = logged_accepts[-2] if len(logged_accepts) >= 2 else 0
        if crash_label in interrupted_accept:
            expected_nv = prev
        else:
            expected_nv = last
        assert nv == expected_nv, (k, crash_label, nv, logged_accepts)

        # recovery: the store reloads with the counter at the last logged
        # accept (committing an interrupted one and recording that it did),
        # refuses that version again, and accepts the next proper version
        store = SecureStateStore.load(path, durable=False)
        try:
            assert store.nv_counter == last, (k, crash_label, logged_accepts)
            recovered = [
                r for r in store.read_records() if r.event is AuditEvent.RECOVER
            ]
            if crash_label in interrupted_accept:
                assert [r.version for r in recovered] == [last], (k, crash_label)
            else:
                assert recovered == [], (k, crash_label)
            key = keygen(SignatureScheme.ED25519, seed=20_25, allow_seeded=True)
            region = McuRegion(capacity=4096)
            monitor = Monitor(store, region, mcu_id=DEFAULT_MCU_ID)
            if last:
                fw = b"\x01" * 1024 if last == 1 else b"\x02" * 1024
                retry = monitor.verify_and_lock(_pkg(key, fw, last))
                assert retry.reason is RejectionReason.ROLLBACK, (k, crash_label)
            result = monitor.verify_and_lock(_pkg(key, b"\x03" * 512, 50))
            assert result.accepted, f"recovery load failed at kill point {k}"
        finally:
            store.close()
        check_audit_chain(path)
        replay_protocol_invariants(read_audit(path))

    elapsed = time.monotonic() - started
    _say(
        f"PASS crash consistency: {len(labels)} kill points across "
        f"{len(events_covered)} event kinds, every state reloadable with the "
        f"counter at the last logged accept and a verified chain, in {elapsed:.1f}s"
    )


def test_demo_transcript_shows_block_and_lock(capsys):
    """The before/after demo: the baseline loader runs tampered firmware; the
    monitor rejects tampered and unsigned images and holds the region lock."""
    from faarm.cli import main

    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "baseline loader" in out
    assert "tampered firmware would execute" in out
    assert "REJECT: hash-mismatch" in out
    assert "REJECT: bad-signature" in out
    assert "SUCCESS: version 1 loaded" in out
    assert "denied (lock held)" in out
    assert "REJECT: rollback" in out
    assert "session recheck -> ready" in out
    _say("PASS demo transcript: baseline compromised, monitor blocks and locks")
