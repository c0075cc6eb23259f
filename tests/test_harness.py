import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from faarm.crypto import SignatureScheme, hash_data, keygen
from faarm.harness import (
    ADVERSARIAL_KINDS,
    ALL_KINDS,
    DEFAULT_CAPACITY,
    DEFAULT_NOMINAL_INIT_MS,
    REFERENCE_LATENCY_MS,
    BaselineLoader,
    HarnessError,
    LoaderMode,
    Scenario,
    ScenarioKind,
    ScenarioReport,
    _build,
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
from faarm.mcu import HookPoint, McuRegion

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

    @pytest.mark.parametrize("mode", LoaderMode, ids=lambda m: m.value)
    def test_image_over_the_region_capacity_rejected(self, mode):
        # every trial would fail: the baseline's write is refused, the monitor rejects
        with pytest.raises(HarnessError, match="capacity"):
            Scenario(kind=ScenarioKind.SIGNED_GOOD, mode=mode,
                     firmware_size=DEFAULT_CAPACITY + 1)


class TestBaselineLoader:
    KEY = keygen(SignatureScheme.ED25519, seed=3, allow_seeded=True)

    def test_accepts_and_reports_the_bytes_written(self):
        loader = BaselineLoader(McuRegion())
        result = loader.verify_and_lock(_build(self.KEY, b"fw" * 100, 7))
        assert result.accepted and result.reason is None and result.token is None
        assert result.version == 7
        assert result.digest == hash_data(b"fw" * 100) == loader.region.digest()
        assert result.timings.verify_ms == result.timings.lock_ms == 0.0

    def test_fires_every_hook_point_and_a_post_lock_write_lands(self):
        region = McuRegion()
        fired = []
        for point in HookPoint:
            region.add_hook(point, lambda p=point: fired.append(p))
        region.add_hook(HookPoint.POST_LOCK, lambda: region.el1_write(0, b"XX"))
        result = BaselineLoader(region).verify_and_lock(_build(self.KEY, b"fw" * 100, 1))
        assert fired == list(HookPoint)
        assert region.read(0, 2) == b"XX" and region.digest() != result.digest

    def test_a_refused_write_is_an_error(self):
        region = McuRegion(capacity=16)
        with pytest.raises(HarnessError, match="failed to apply"):
            BaselineLoader(region).verify_and_lock(_build(self.KEY, bytes(17), 1))


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

    def test_doctored_reject_count_on_signed_good_is_caught(self):
        report = run(ScenarioKind.SIGNED_GOOD, LoaderMode.FAARM)
        report.audit_counts["VERIFY_REJECT"] = 1
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
            payload = json.loads(reports_to_json(reports))
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

    def test_run_matrix_hands_every_field_to_each_scenario(self):
        fields = dict(trials=2, seed=9, firmware_size=640, scheme=SignatureScheme.ECDSA_P256)
        kind = ScenarioKind.UNSIGNED_LOAD
        reports = run_matrix(kinds=(kind,), **fields)
        assert [r.scenario for r in reports] == [
            Scenario(kind=kind, mode=mode, **fields) for mode in LoaderMode
        ]

    def test_a_repeated_kind_or_mode_runs_once(self):
        kind, mode = ScenarioKind.UNSIGNED_LOAD, LoaderMode.FAARM
        reports = run_matrix(kinds=(kind, kind), modes=(mode, mode), trials=1,
                             firmware_size=512)
        assert [r.scenario for r in reports] == [
            Scenario(kind=kind, mode=mode, trials=1, firmware_size=512)
        ]

    def test_kinds_and_modes_may_be_generators(self):
        kinds = (ScenarioKind.SIGNED_GOOD, ScenarioKind.UNSIGNED_LOAD)
        reports = run_matrix(kinds=(k for k in kinds), modes=(m for m in LoaderMode),
                             trials=1, firmware_size=512)
        assert [(r.scenario.kind, r.scenario.mode) for r in reports] == [
            (kind, mode) for kind in kinds for mode in LoaderMode
        ]

    def test_readme_matrix_is_the_rendered_layout(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = readme.index("$ faarm attack --trials 50") + 1
        block = readme[start : readme.index("```", start)]
        rendered = render_matrix(run_matrix(trials=50)).splitlines()[: len(block)]
        assert [line.rstrip() for line in rendered] == [line.rstrip() for line in block]

    def test_a_cell_without_completed_trials_renders(self):
        scenario = Scenario(kind=ScenarioKind.UNSIGNED_LOAD, mode=LoaderMode.BASELINE)
        report = ScenarioReport(scenario, [], {}, ["trial 0: OSError: boom"])
        text = render_matrix([report])
        assert "attack succeeds (0/0)" in text and "trial 0: OSError: boom" in text

    def test_reports_json_shape(self):
        reports = run_matrix(kinds=(ScenarioKind.SIGNED_GOOD,), trials=2, seed=4,
                             firmware_size=512)
        payload = json.loads(reports_to_json(reports))
        assert list(payload) == ["scenarios"]
        assert len(payload["scenarios"]) == 2
        for entry in payload["scenarios"]:
            for field in ("scenario", "mode", "attack_success_count", "latency_ms",
                          "audit_counts"):
                assert field in entry
            # each entry carries the inputs of its run
            assert (entry["trials"], entry["seed"], entry["firmware_size"], entry["scheme"]) == (
                2, 4, 512, "ed25519")

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
        assert len(result.timings) == 5
        stats = result.stats()
        assert stats["total"].count == 5
        assert stats["total"].mean_ms > 0
        assert result.overhead_pct == pytest.approx(
            stats["total"].mean_ms / DEFAULT_NOMINAL_INIT_MS * 100.0
        )

    def test_every_load_pays_a_full_signature_check(self, verify_calls):
        # the paper's measurement: fresh images at rising versions, so no
        # load is answered from a remembered verdict, not even in a second
        # call that signs the same statements again
        for _ in range(2):
            run_bench(firmware_size=4096, runs=5, warmup=2)
        assert len(verify_calls) == 14
        assert len({payload for _, payload, _ in verify_calls}) == 7

    def test_verify_latency_grows_with_image_size(self):
        small = run_bench(firmware_size=64 * 1024, runs=3, warmup=1)
        large = run_bench(firmware_size=8 * 1024 * 1024, runs=3, warmup=1)
        assert small.stats()["verify"].mean_ms < large.stats()["verify"].mean_ms

    def test_rejects_zero_runs(self):
        with pytest.raises(HarnessError):
            run_bench(runs=0)

    def test_rejects_negative_warmup(self):
        # a negative warmup would measure warmup + runs loads but report runs
        with pytest.raises(HarnessError, match="warmup"):
            run_bench(firmware_size=4096, runs=3, warmup=-2)

    def test_bench_json_includes_reference_numbers(self):
        result = run_bench(firmware_size=4096, runs=3, warmup=0)
        payload = json.loads(bench_to_json(result))
        assert list(payload) == ["bench"]
        bench = payload["bench"]
        assert (bench["firmware_size"], bench["runs"], bench["warmup_excluded"],
                bench["seed"], bench["scheme"]) == (4096, 3, 0, 0, "ecdsa-p256")
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
