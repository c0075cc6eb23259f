import argparse
import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from faarm import harness
from faarm.cli import DEFAULT_STATE_DIR, STATE_ENV_VAR, build_parser, main, parse_size
from faarm.state import AuditEvent, AuditRecord, SecureStateStore, read_audit

FW = bytes((i * 37) % 256 for i in range(4096))
COMMANDS = ["keygen", "sign", "provision", "verify", "status", "log", "attack", "bench", "demo"]


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
        assert list(payload["timings_ms"]) == ["verify", "lock", "total"]
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
        full = out.out.splitlines()
        with mock.patch("faarm.cli.read_audit", side_effect=AssertionError("full read")):
            tail = cli("log", "--state", str(workshop["state"]), "-n", "2")
            assert tail.out.splitlines() == full[-2:]
            many = cli("log", "--state", str(workshop["state"]), "-n", "99")
            assert many.out.splitlines() == full
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

    def test_log_check_fails_a_log_cut_below_the_counter(self, cli, workshop):
        state = str(workshop["state"])
        cli("verify", str(workshop["bundle"]), "--state", state)
        log_path = workshop["state"] / "audit.log"
        log_path.write_bytes(log_path.read_bytes().splitlines(keepends=True)[0])
        assert "nv_counter: 1" in cli("status", "--state", state).out
        out = cli("log", "--state", state, "--check", expect=1)
        assert out.err == (
            "audit check FAILED: the last logged accept is version 0, "
            "below the committed counter 1\n"
        )

    def test_log_check_fails_a_missing_log_below_the_counter(self, cli, workshop):
        state = str(workshop["state"])
        cli("verify", str(workshop["bundle"]), "--state", state)
        (workshop["state"] / "audit.log").unlink()
        out = cli("log", "--state", state, "--check", expect=1)
        assert "below the committed counter 1" in out.err

    def test_log_check_of_an_unprovisioned_directory_is_a_usage_error(self, cli, tmp_path):
        out = cli("log", "--state", str(tmp_path / "missing"), "--check", expect=2)
        assert out.out == ""
        assert out.err.startswith("error: ") and "no provisioned state" in out.err

    def test_log_check_passes_an_accept_above_the_counter(self, cli, workshop):
        # a crash between the accept record and the counter commit, which the
        # next load rolls forward
        state = str(workshop["state"])
        counter = workshop["state"] / "counter"
        provisioned = counter.read_bytes()
        cli("verify", str(workshop["bundle"]), "--state", state)
        counter.write_bytes(provisioned)
        assert "nv_counter: 0" in cli("status", "--state", state).out
        out = cli("log", "--state", state, "--check")
        assert out.out.startswith("chain OK")

    def test_log_check_reports_a_broken_link_before_a_replay_error(self, cli, workshop):
        # the edited accept breaks the replay at its own line and the chain at
        # the next one; the chain error is the one reported
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        with SecureStateStore.load(workshop["state"], durable=False) as store:
            store.append_audit(AuditEvent.TASK_DENY, detail="after the accept")
        log_path = workshop["state"] / "audit.log"
        lines = log_path.read_bytes().splitlines(keepends=True)
        accept = next(i for i, line in enumerate(lines) if b"VERIFY_ACCEPT" in line)
        lines[accept] = lines[accept].replace(b'"version":1', b'"version":0')
        log_path.write_bytes(b"".join(lines))
        out = cli("log", "--state", str(workshop["state"]), "--check", expect=1)
        assert out.err == f"audit check FAILED: audit.log line {accept + 2}: hash chain broken\n"

    def test_log_check_parses_each_record_once(self, cli, workshop):
        cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]))
        with SecureStateStore.load(workshop["state"], durable=False) as store:
            for i in range(200):
                store.append_audit(AuditEvent.TASK_DENY, detail=f"task {i}")
        count = len(read_audit(workshop["state"]))
        calls = []
        from_line = AuditRecord.from_line

        def counting(line):
            calls.append(line)
            return from_line(line)

        with mock.patch.object(AuditRecord, "from_line", staticmethod(counting)):
            out = cli("log", "--state", str(workshop["state"]), "--check")
        assert out.out == f"chain OK, {count} records\n"
        assert len(calls) == count == len(set(calls))

    def test_readers_tolerate_a_torn_last_line(self, cli, workshop):
        state = str(workshop["state"])
        cli("verify", str(workshop["bundle"]), "--state", state)
        log_path = workshop["state"] / "audit.log"
        count = log_path.read_bytes().count(b"\n")
        last = cli("log", "--state", state, "-n", "1").out
        assert json.loads(cli("status", "--state", state, "--json").out)["torn_tail_bytes"] == 0
        torn = b'{"seq":99,"ti'
        with open(log_path, "ab") as fh:
            fh.write(torn)
        raw = log_path.read_bytes()
        status = json.loads(cli("status", "--state", state, "--json").out)
        assert (status["phase"], status["current_version"]) == ("loaded-locked", 1)
        assert status["torn_tail_bytes"] == len(torn)
        assert "torn_tail_bytes: 13" in cli("status", "--state", state).out
        assert cli("log", "--state", state, "-n", "1").out == last
        assert cli("log", "--state", state).out.splitlines()[-1] == last.strip()
        assert cli("log", "--state", state, "--check").out.splitlines() == [
            f"chain OK, {count} records",
            "note: the log ends in a torn line of 13 bytes; the next load cuts it off",
        ]
        assert log_path.read_bytes() == raw
        cli("verify", str(workshop["bundle"]), "--state", state, expect=12)
        assert "truncated a torn last line of 13 bytes" in cli("log", "--state", state).out
        assert json.loads(cli("status", "--state", state, "--json").out)["torn_tail_bytes"] == 0
        assert cli("log", "--state", state, "--check").out == f"chain OK, {count + 2} records\n"


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

    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], *([name, "--help"] for name in COMMANDS), ["verify"],
         ["verify", "b", "--bogus"], ["bogus"], ["-x", "verify", "b"]],
        ids=" ".join,
    )
    def test_main_parses_like_the_full_parser(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            captured = capsys.readouterr()
            return exit_info.value.code, captured.out, captured.err

        assert outcome(main) == outcome(lambda a: build_parser().parse_args(a))

    def test_main_fills_in_only_the_named_subcommand(self, cli, tmp_path):
        with mock.patch("faarm.cli.build_parser", wraps=build_parser) as spy:
            cli("status", "--state", str(tmp_path))
        spy.assert_called_once_with("status")
        filled = {name: len(sub._actions) > 1
                  for name, sub in subparsers(build_parser("status")).items()}
        assert filled == {name: name == "status" for name in COMMANDS}

    def test_default_state_dir_constant(self):
        assert DEFAULT_STATE_DIR == "./faarm-state"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process with only src/ on PYTHONPATH;
    in-process tests cannot see lazy imports, since pytest already loaded
    the harness."""
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def subcommand(name: str) -> argparse.ArgumentParser:
    return subparsers(build_parser())[name]


def modules_added_by_importing_the_cli() -> set[str]:
    # compare with the modules loaded before the import: site hooks (.pth
    # files) may preload some of the names the tests look for on their own
    probe = (
        "import json, sys; before = set(sys.modules); import faarm.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = run_fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "faarm.cli" in loaded
    return loaded


class TestFreshProcess:
    def test_importing_the_cli_loads_no_harness_or_key_serialization(self):
        loaded = modules_added_by_importing_the_cli()
        for name in ("faarm.harness", "statistics", "tempfile",
                     "cryptography.hazmat.primitives.serialization.ssh"):
            assert name not in loaded

    def test_importing_the_cli_loads_no_dataclasses_or_inspect(self):
        loaded = modules_added_by_importing_the_cli()
        assert not {"dataclasses", "inspect"} & loaded

    def test_ecdsa_verify_accepts_without_the_openssl_backend(self, cli, tmp_path):
        # in-process runs cannot see this: sign() loads the backend first
        (tmp_path / "fw.bin").write_bytes(FW)
        cli("keygen", "ecdsa-p256", "--out", str(tmp_path / "v"))
        cli("sign", "--firmware", str(tmp_path / "fw.bin"), "--version", "1",
            "--key", str(tmp_path / "v.key"), "--out", str(tmp_path / "b"))
        cli("provision", "--anchor", str(tmp_path / "v.pub"), "--state", str(tmp_path / "s"))
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import contextlib, io, json, sys\n"
            "from faarm.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([code, json.loads(out.getvalue())['accepted'],\n"
            "                  'cryptography.hazmat.backends.openssl' in sys.modules]))\n"
        )
        done = run_fresh(str(probe), "verify", str(tmp_path / "b"),
                         "--state", str(tmp_path / "s"), "--json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, True, False]

    @pytest.mark.parametrize("argv", [["attack", "--trials", "0"], ["bench", "--runs", "0"]],
                             ids=["attack", "bench"])
    def test_harness_errors_are_usage_errors(self, argv):
        done = run_fresh("-m", "faarm", *argv)
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")

    def test_parser_defaults_match_the_harness(self):
        scenario = next(a for a in subcommand("attack")._actions if a.dest == "scenario")
        assert scenario.choices == [k.value for k in harness.ScenarioKind]
        for name in ("sign", "verify", "demo"):
            assert subcommand(name).get_default("mcu_id") == harness.DEFAULT_MCU_ID
        bench = subcommand("bench")
        assert bench.get_default("nominal_init_ms") == harness.DEFAULT_NOMINAL_INIT_MS
