import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from faarm.harness import (
    ADVERSARIAL_KINDS,
    ALL_KINDS,
    DEFAULT_NOMINAL_INIT_MS,
    REFERENCE_LATENCY_MS,
    HarnessError,
    LoaderMode,
    Scenario,
    ScenarioKind,
    _reconcile_with_audit,
    _trial_seed,
    bench_csv,
    bench_to_json,
    latency_csv,
    render_bench,
    render_matrix,
    reports_to_json,
    run_bench,
    run_matrix,
    run_scenario,
)

TRIALS = 4


def run(kind, mode, **kw):
    kw.setdefault("trials", TRIALS)
    kw.setdefault("firmware_size", 2048)
    return run_scenario(Scenario(kind=kind, mode=mode, **kw))


class TestTrialSeeds:
    # frozen from an independent recomputation of the documented derivation:
    # big-endian first 8 bytes of SHA-256("seed:kind:mode:index")
    def test_known_values(self):
        assert _trial_seed(0, ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM, 0) == 16514526411827652473
        assert (
            _trial_seed(7, ScenarioKind.TAMPER_BEFORE_VERIFY, LoaderMode.BASELINE, 3)
            == 13428976898557783228
        )

    def test_axes_are_independent(self):
        seen = {
            _trial_seed(s, k, m, i)
            for s in (0, 1)
            for k in ALL_KINDS
            for m in LoaderMode
            for i in (0, 1)
        }
        assert len(seen) == 2 * len(ALL_KINDS) * 2 * 2


class TestScenarioValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(HarnessError):
            Scenario(kind=ScenarioKind.SIGNED_GOOD, mode=LoaderMode.FAARM, trials=0)

    def test_empty_firmware_rejected(self):
        with pytest.raises(HarnessError):
            Scenario(kind=ScenarioKind.SIGNED_GOOD, mode=LoaderMode.FAARM, firmware_size=0)


class TestBaselineMode:
    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS, ids=lambda k: k.value)
    def test_every_attack_succeeds_against_baseline(self, kind):
        report = run(kind, LoaderMode.BASELINE)
        assert report.attack_success_count == TRIALS
        assert report.infra_failures == []

    def test_signed_good_loads_fine_on_baseline(self):
        report = run(ScenarioKind.SIGNED_GOOD, LoaderMode.BASELINE)
        assert report.legitimate_success_count == TRIALS
        assert report.attack_success_count == 0


class TestFaarmMode:
    @pytest.mark.parametrize("kind", ADVERSARIAL_KINDS, ids=lambda k: k.value)
    def test_every_attack_is_defeated(self, kind):
        report = run(kind, LoaderMode.FAARM)
        assert report.attack_success_count == 0
        assert report.infra_failures == []

    def test_signed_good_is_accepted(self):
        report = run(ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM)
        assert report.legitimate_success_count == TRIALS
        assert report.reason_histogram() == {}

    def test_tampered_image_reasons(self):
        report = run(ScenarioKind.TAMPER_BEFORE_VERIFY, LoaderMode.FAARM)
        assert report.blocked_count == TRIALS
        assert report.reason_histogram() == {"hash-mismatch": TRIALS}

    def test_unsigned_load_reasons(self):
        report = run(ScenarioKind.UNSIGNED_LOAD, LoaderMode.FAARM)
        assert report.blocked_count == TRIALS
        assert report.reason_histogram() == {"bad-signature": TRIALS}

    def test_rollback_reasons(self):
        report = run(ScenarioKind.ROLLBACK_LOAD, LoaderMode.FAARM)
        assert report.blocked_count == TRIALS
        assert report.reason_histogram() == {"rollback": TRIALS}

    def test_toctou_loads_land_but_overwrites_do_not(self):
        report = run(ScenarioKind.TOCTOU_OVERWRITE, LoaderMode.FAARM)
        assert report.attack_success_count == 0
        # each trial's legitimate load still completes; nothing is rejected
        assert report.reason_histogram() == {}
        assert report.audit_counts.get("WRITE_DENIED", 0) >= TRIALS


class TestReconciliation:
    def test_doctored_accept_count_is_caught(self):
        report = run(ScenarioKind.UNSIGNED_LOAD, LoaderMode.FAARM)
        report.audit_counts["VERIFY_ACCEPT"] = report.audit_counts.get("VERIFY_ACCEPT", 0) + 1
        with pytest.raises(HarnessError, match="accepts"):
            _reconcile_with_audit(report)

    def test_doctored_reject_count_is_caught(self):
        report = run(ScenarioKind.UNSIGNED_LOAD, LoaderMode.FAARM)
        report.audit_counts["VERIFY_REJECT"] -= 1
        with pytest.raises(HarnessError, match="rejects"):
            _reconcile_with_audit(report)

    def test_baseline_reports_skip_reconciliation(self):
        report = run(ScenarioKind.UNSIGNED_LOAD, LoaderMode.BASELINE)
        report.audit_counts["VERIFY_ACCEPT"] = 999
        _reconcile_with_audit(report)  # no audit trail to reconcile against


class TestDeterminism:
    def strip_timings(self, report):
        out = report.to_dict()
        del out["latency_ms"]
        # the denied-write tally counts adversary-thread attempts, which is
        # the one legitimately schedule-dependent number in a report
        out["audit_counts"].pop("WRITE_DENIED", None)
        return out

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_same_seed_same_outcomes(self, kind):
        a = run(kind, LoaderMode.FAARM, seed=11)
        b = run(kind, LoaderMode.FAARM, seed=11)
        assert self.strip_timings(a) == self.strip_timings(b)

    def test_different_seed_same_outcomes(self):
        a = self.strip_timings(run(ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM, seed=1))
        b = self.strip_timings(run(ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM, seed=2))
        a.pop("seed"), b.pop("seed")
        assert a == b

    def test_matrix_json_is_reproducible(self):
        def snapshot():
            reports = run_matrix(
                kinds=(ScenarioKind.UNSIGNED_LOAD,), trials=2, seed=5, firmware_size=1024
            )
            payload = json.loads(reports_to_json(reports, config={"seed": 5}))
            for scenario in payload["scenarios"]:
                del scenario["latency_ms"]
            return payload

        assert snapshot() == snapshot()


class TestMatrix:
    def test_full_matrix_shape(self):
        reports = run_matrix(trials=1, firmware_size=512)
        assert len(reports) == len(ALL_KINDS) * 2
        pairs = [(r.scenario.kind, r.scenario.mode) for r in reports]
        assert len(set(pairs)) == len(pairs)

    def test_render_matrix_mentions_every_kind(self):
        reports = run_matrix(trials=1, firmware_size=512)
        text = render_matrix(reports)
        for kind in ALL_KINDS:
            assert kind.value in text
        assert "baseline" in text and "faarm" in text

    def test_reports_json_shape(self):
        reports = run_matrix(kinds=(ScenarioKind.SIGNED_GOOD,), trials=2, firmware_size=512)
        payload = json.loads(reports_to_json(reports, config={"trials": 2}))
        assert payload["config"] == {"trials": 2}
        assert len(payload["scenarios"]) == 2
        entry = payload["scenarios"][0]
        for field in ("scenario", "mode", "attack_success_count", "latency_ms", "audit_counts"):
            assert field in entry

    def test_latency_csv_is_one_row_per_trial(self):
        reports = run_matrix(kinds=(ScenarioKind.SIGNED_GOOD,), trials=2, firmware_size=512)
        text = latency_csv(reports)
        assert text.splitlines()[0] == "scenario,mode,trial,verify_ms,lock_ms,total_ms"
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 4  # 2 modes x 2 trials
        float(rows[0]["verify_ms"])


class TestBench:
    def test_sample_counts_exclude_warmup(self):
        result = run_bench(firmware_size=4096, runs=5, warmup=2)
        for stage in ("verify", "lock", "total"):
            assert len(result.samples[stage]) == 5
        stats = result.stats()
        assert stats["total"].count == 5
        assert stats["total"].mean_ms > 0
        assert result.overhead_pct == pytest.approx(
            stats["total"].mean_ms / DEFAULT_NOMINAL_INIT_MS * 100.0
        )

    def test_verify_latency_grows_with_image_size(self):
        small = run_bench(firmware_size=64 * 1024, runs=3, warmup=1)
        large = run_bench(firmware_size=8 * 1024 * 1024, runs=3, warmup=1)
        assert small.stats()["verify"].mean_ms < large.stats()["verify"].mean_ms

    def test_rejects_zero_runs(self):
        with pytest.raises(HarnessError):
            run_bench(runs=0)

    def test_bench_json_includes_reference_numbers(self):
        result = run_bench(firmware_size=4096, runs=3, warmup=0)
        payload = json.loads(bench_to_json(result, config={"runs": 3}))
        assert payload["config"] == {"runs": 3}
        bench = payload["bench"]
        assert bench["reference"] == REFERENCE_LATENCY_MS
        assert set(bench["latency_ms"]) == {"verify", "lock", "total"}

    def test_sweep_script_writes_the_csv_and_one_json_per_cell(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_bench_sweep.py"
        argv = ["--sizes", "4096", "--runs", "2", "--warmup", "0", "--schemes", "ed25519"]
        subprocess.run(
            [sys.executable, str(script), *argv, "--out", str(tmp_path)],
            check=True, capture_output=True, timeout=120,
        )
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "scheme,firmware_size,runs,verify_mean_ms,verify_std_ms,lock_mean_ms,"
            "lock_std_ms,total_mean_ms,total_std_ms,overhead_pct"
        )
        assert lines[1].startswith("ed25519,4096,2,")
        cell = json.loads((tmp_path / "bench-ed25519-4096.json").read_text())
        assert list(cell["latency_ms"]) == ["verify", "lock", "total"]

    def test_bench_csv_and_render(self):
        result = run_bench(firmware_size=4096, runs=3, warmup=0)
        text = bench_csv(result)
        assert text.splitlines()[0] == "run,verify_ms,lock_ms,total_ms"
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 3
        text = render_bench(result)
        assert "verify" in text and "reference" in text.lower()
