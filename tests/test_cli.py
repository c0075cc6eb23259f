import json
import os
import stat

import pytest

from faarm.cli import DEFAULT_STATE_DIR, STATE_ENV_VAR, main, parse_size

FW = bytes((i * 37) % 256 for i in range(4096))


@pytest.fixture
def cli(capsys):
    def invoke(*argv, expect=0):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == expect, f"argv={argv}\nstdout={captured.out}\nstderr={captured.err}"
        return captured

    return invoke


@pytest.fixture
def workshop(cli, tmp_path):
    """Key pair, signed bundle, and provisioned state under tmp_path."""
    fw_path = tmp_path / "firmware.bin"
    fw_path.write_bytes(FW)
    cli("keygen", "ed25519", "--out", str(tmp_path / "vendor"),
        "--seed", "42", "--test-fixtures")
    cli("sign", "--firmware", str(fw_path), "--version", "1",
        "--key", str(tmp_path / "vendor.key"), "--out", str(tmp_path / "bundle"),
        "--timestamp", "2025-10-10T12:00:00Z")
    state = tmp_path / "state"
    cli("provision", "--anchor", str(tmp_path / "vendor.pub"), "--state", str(state))
    return {
        "tmp": tmp_path,
        "fw": fw_path,
        "key": tmp_path / "vendor.key",
        "pub": tmp_path / "vendor.pub",
        "bundle": tmp_path / "bundle",
        "state": state,
    }


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("4096", 4096), ("64KiB", 65536), ("1MiB", 1024 * 1024),
         ("2GiB", 2 * 1024**3), ("16kib", 16384)],
    )
    def test_accepts_units(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "12MB", "KiB", "-1", "1.5MiB"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


class TestKeygen:
    def test_writes_tagged_key_files(self, cli, tmp_path):
        out = cli("keygen", "ed25519", "--out", str(tmp_path / "k"))
        assert "scheme ed25519" in out.out
        key = (tmp_path / "k.key").read_bytes()
        pub = (tmp_path / "k.pub").read_bytes()
        assert key[0] == 0x02 and len(key) == 33
        assert pub[0] == 0x02 and len(pub) == 33
        mode = stat.S_IMODE(os.stat(tmp_path / "k.key").st_mode)
        assert mode == 0o600

    def test_ecdsa_uses_compressed_point(self, cli, tmp_path):
        cli("keygen", "ecdsa-p256", "--out", str(tmp_path / "k"))
        pub = (tmp_path / "k.pub").read_bytes()
        assert pub[0] == 0x01 and len(pub) == 34
        assert pub[1] in (0x02, 0x03)

    def test_refuses_overwrite_without_force(self, cli, tmp_path):
        cli("keygen", "ed25519", "--out", str(tmp_path / "k"))
        out = cli("keygen", "ed25519", "--out", str(tmp_path / "k"), expect=2)
        assert "--force" in out.err
        cli("keygen", "ed25519", "--out", str(tmp_path / "k"), "--force")

    def test_seed_is_gated_behind_test_fixtures(self, cli, tmp_path):
        out = cli("keygen", "ed25519", "--out", str(tmp_path / "k"),
                  "--seed", "1", expect=2)
        assert "test-fixture" in out.err

    def test_seeded_keygen_is_reproducible(self, cli, tmp_path):
        cli("keygen", "ed25519", "--out", str(tmp_path / "a"),
            "--seed", "5", "--test-fixtures")
        cli("keygen", "ed25519", "--out", str(tmp_path / "b"),
            "--seed", "5", "--test-fixtures")
        assert (tmp_path / "a.pub").read_bytes() == (tmp_path / "b.pub").read_bytes()


class TestSignVerify:
    def test_happy_path(self, cli, workshop):
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        assert "SUCCESS: version 1 loaded and locked" in out.out

    def test_verify_json_payload(self, cli, workshop):
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  "--json")
        payload = json.loads(out.out)
        assert payload["accepted"] is True
        assert payload["version"] == 1
        assert payload["exit_code"] == 0
        assert len(payload["token"]["token_id"]) == 32
        assert payload["timings_ms"]["total"] > 0

    def test_tampered_firmware_exits_11(self, cli, workshop):
        fw = workshop["bundle"] / "firmware.bin"
        raw = bytearray(fw.read_bytes())
        raw[0] ^= 0x01
        fw.write_bytes(bytes(raw))
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  expect=11)
        assert "hash-mismatch" in out.err

    def test_zeroed_signature_exits_10(self, cli, workshop):
        (workshop["bundle"] / "firmware.sig").write_bytes(bytes(64))
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  expect=10)
        assert "bad-signature" in out.err

    def test_replay_exits_12(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  expect=12)
        assert "rollback" in out.err

    def test_unknown_flag_exits_13(self, cli, workshop):
        cli("sign", "--firmware", str(workshop["fw"]), "--version", "2",
            "--key", str(workshop["key"]), "--out", str(workshop["tmp"] / "flagged"),
            "--flag", "requires_lock", "--flag", "debug_unlock")
        out = cli("verify", str(workshop["tmp"] / "flagged"),
                  "--state", str(workshop["state"]), expect=13)
        assert "unknown-flag" in out.err

    def test_missing_manifest_exits_15(self, cli, workshop):
        (workshop["bundle"] / "manifest.json").unlink()
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  expect=15)
        assert "malformed-bundle" in out.err

    def test_oversize_exits_16(self, cli, workshop):
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  "--capacity", "1KiB", expect=16)
        assert "oversize" in out.err

    def test_pkg_container_roundtrip(self, cli, workshop):
        cli("sign", "--firmware", str(workshop["fw"]), "--version", "2",
            "--key", str(workshop["key"]), "--out", str(workshop["tmp"] / "fw.pkg"))
        out = cli("verify", str(workshop["tmp"] / "fw.pkg"),
                  "--state", str(workshop["state"]))
        assert "SUCCESS: version 2" in out.out
        assert (workshop["tmp"] / "fw.pkg").read_bytes()[:4] == b"FPK1"

    def test_region_dump_is_written(self, cli, workshop, tmp_path):
        dump = tmp_path / "region.json"
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
            "--dump-region", str(dump))
        payload = json.loads(dump.read_text())
        assert payload["lock_state"] == "locked"

    def test_state_dir_from_environment(self, cli, workshop, monkeypatch):
        monkeypatch.setenv(STATE_ENV_VAR, str(workshop["state"]))
        out = cli("verify", str(workshop["bundle"]))
        assert "SUCCESS" in out.out


class TestProvision:
    def test_double_provision_fails_without_reset(self, cli, workshop):
        out = cli("provision", "--anchor", str(workshop["pub"]),
                  "--state", str(workshop["state"]), expect=2)
        assert "provisioned" in out.err or "exists" in out.err

    def test_reset_reprovisions_and_archives(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        cli("provision", "--anchor", str(workshop["pub"]),
            "--state", str(workshop["state"]), "--reset")
        out = cli("status", "--state", str(workshop["state"]), "--json")
        payload = json.loads(out.out)
        assert payload["nv_counter"] == 0
        assert payload["phase"] == "idle"
        archives = list(workshop["state"].glob("archive*")) + list(
            workshop["state"].parent.glob("state.archive*")
        )
        assert archives, "expected the old state to be archived, not destroyed"


class TestStatusAndLog:
    def test_status_unprovisioned(self, cli, tmp_path):
        out = cli("status", "--state", str(tmp_path / "nowhere"), "--json")
        payload = json.loads(out.out)
        assert payload["phase"] == "unprovisioned"
        assert payload["nv_counter"] is None

    def test_status_idle_then_loaded(self, cli, workshop):
        out = cli("status", "--state", str(workshop["state"]))
        assert "phase: idle" in out.out
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        out = cli("status", "--state", str(workshop["state"]), "--json")
        payload = json.loads(out.out)
        assert payload["phase"] == "loaded-locked"
        assert payload["current_version"] == 1
        assert payload["nv_counter"] == 1
        assert payload["anchor_scheme"] == "ed25519"

    def test_log_lists_records_and_tail(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        out = cli("log", "--state", str(workshop["state"]))
        assert "PROVISION" in out.out
        assert "VERIFY_ACCEPT" in out.out
        tail = cli("log", "--state", str(workshop["state"]), "-n", "1")
        assert len(tail.out.strip().splitlines()) == 1
        assert "VERIFY_ACCEPT" in tail.out
        assert cli("log", "--state", str(workshop["state"]), "-n", "0").out == ""
        bad = cli("log", "--state", str(workshop["state"]), "-n", "-1", expect=2)
        assert "-n" in bad.err

    def test_log_json_lines_parse(self, cli, workshop):
        out = cli("log", "--state", str(workshop["state"]), "--json")
        for line in out.out.strip().splitlines():
            record = json.loads(line)
            assert "event" in record and "prev" in record

    def test_log_check_clean(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        out = cli("log", "--state", str(workshop["state"]), "--check")
        assert "chain OK" in out.out

    def test_log_check_detects_tampering(self, cli, workshop):
        # mutate a NON-tail record: the successor's prev pointer catches it.
        # (a pure prev-hash chain cannot see a mutation of the final record)
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        log_path = workshop["state"] / "audit.log"
        raw = log_path.read_bytes()
        assert b"LOCK" in raw
        log_path.write_bytes(raw.replace(b"LOCK", b"HACK", 1))
        out = cli("log", "--state", str(workshop["state"]), "--check", expect=1)
        assert "FAILED" in out.err

    def test_log_check_detects_deleted_record(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        log_path = workshop["state"] / "audit.log"
        lines = log_path.read_bytes().splitlines(keepends=True)
        log_path.write_bytes(b"".join(lines[:1] + lines[2:]))  # drop the middle
        out = cli("log", "--state", str(workshop["state"]), "--check", expect=1)
        assert "FAILED" in out.err


class TestAttackAndBench:
    def test_attack_json_smoke(self, cli, tmp_path):
        csv_path = tmp_path / "latency.csv"
        out = cli("attack", "--scenario", "unsigned-load", "--trials", "2",
                  "--firmware-size", "1KiB", "--json", "--csv", str(csv_path))
        payload = json.loads(out.out)
        assert payload["config"]["trials"] == 2
        assert len(payload["scenarios"]) == 2
        faarm_rows = [s for s in payload["scenarios"] if s["mode"] == "faarm"]
        assert faarm_rows[0]["attack_success_count"] == 0
        assert csv_path.read_text().startswith("scenario,mode,trial")

    def test_attack_text_renders_table(self, cli):
        out = cli("attack", "--scenario", "signed-good", "--mode", "faarm",
                  "--trials", "1", "--firmware-size", "1KiB")
        assert "signed-good" in out.out

    def test_bench_json_smoke(self, cli, tmp_path):
        csv_path = tmp_path / "bench.csv"
        out = cli("bench", "--size", "4KiB", "--runs", "3", "--warmup", "1",
                  "--json", "--csv", str(csv_path))
        payload = json.loads(out.out)
        assert payload["bench"]["runs"] == 3
        assert payload["bench"]["latency_ms"]["total"]["count"] == 3
        assert csv_path.read_text().startswith("run,")

    def test_bench_text_mentions_stages(self, cli):
        out = cli("bench", "--size", "4KiB", "--runs", "2", "--warmup", "0")
        assert "verify" in out.out and "total" in out.out


class TestDemo:
    def test_transcript_markers(self, cli):
        out = cli("demo")
        text = out.out
        assert "baseline loader" in text
        assert "tampered firmware would execute" in text
        assert "REJECT: hash-mismatch (exit 11)" in text
        assert "REJECT: bad-signature (exit 10)" in text
        assert "SUCCESS: version 1 loaded" in text
        assert "el1 overwrite   -> denied (lock held)" in text
        assert "REJECT: rollback (exit 12)" in text
        assert "session recheck -> ready" in text


class TestErrorSurface:
    def test_missing_firmware_file_is_usage_error(self, cli, tmp_path):
        cli("keygen", "ed25519", "--out", str(tmp_path / "k"))
        out = cli("sign", "--firmware", str(tmp_path / "missing.bin"), "--version", "1",
                  "--key", str(tmp_path / "k.key"), "--out", str(tmp_path / "b"),
                  expect=2)
        assert "error:" in out.err

    def test_verify_without_provision_is_usage_error(self, cli, tmp_path):
        out = cli("verify", str(tmp_path / "bundle"), "--state",
                  str(tmp_path / "nowhere"), expect=2)
        assert "error:" in out.err

    def test_default_state_dir_constant(self):
        assert DEFAULT_STATE_DIR == "./faarm-state"
