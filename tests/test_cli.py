import argparse
import contextlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import faarm.mcu
import faarm.monitor
import faarm.state
from faarm import harness
from faarm.crypto import KeyPair, hash_data
from faarm.cli import DEFAULT_STATE_DIR, STATE_ENV_VAR, build_parser, main, parse_size
from faarm.state import AuditEvent, AuditRecord, SecureStateStore, read_audit

from conftest import crash_after_lock_then_accept_unlocked, traced_peak

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

    def test_force_leaves_the_new_private_key_owner_only(self, cli, tmp_path):
        key = tmp_path / "v.key"
        key.write_bytes(b"old")
        key.chmod(0o644)
        cli("keygen", "ed25519", "--out", str(tmp_path / "v"), "--force")
        assert stat.S_IMODE(os.stat(key).st_mode) == 0o600
        assert key.read_bytes() != b"old"

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

    def test_flag_and_no_flags_together_are_refused(self, capsys, workshop):
        out = workshop["tmp"] / "both"
        with pytest.raises(SystemExit) as exit_info:
            main(["sign", "--firmware", str(workshop["fw"]), "--version", "2",
                  "--key", str(workshop["key"]), "--out", str(out),
                  "--flag", "requires_lock", "--no-flags"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

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

    def test_json_with_a_region_dump_hashes_the_region_once(self, cli, workshop, monkeypatch):
        hashed = []

        def counting_hash(data):
            hashed.append(len(data))
            return hash_data(data)

        monkeypatch.setattr(faarm.monitor, "hash_data", counting_hash)
        monkeypatch.setattr(faarm.mcu, "hash_data", counting_hash)
        out = cli("verify", str(workshop["bundle"]), "--state", str(workshop["state"]),
                  "--json")
        # the load's own hash: the dump of a hardware-locked region reports
        # the digest recorded at lock time
        assert hashed == [len(FW)]
        payload = json.loads(out.out)
        assert payload["region"]["lock_state"] == "locked"
        assert payload["region"]["digest"] == payload["digest"] == hash_data(FW).hex

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
        # the listing reads the log forwards, -n backwards and only as far as it needs
        with mock.patch("faarm.state._lines_backwards", side_effect=AssertionError("backwards")):
            assert cli("log", "--state", str(workshop["state"])).out == out.out
        with mock.patch("faarm.state._lines_forwards", side_effect=AssertionError("forwards")):
            tail = cli("log", "--state", str(workshop["state"]), "-n", "2")
            assert tail.out.splitlines() == full[-2:]
            many = cli("log", "--state", str(workshop["state"]), "-n", "99")
            assert many.out.splitlines() == full
        bad = cli("log", "--state", str(workshop["state"]), "-n", "-1", expect=2)
        assert "-n" in bad.err

    def test_log_lists_the_records_before_the_first_bad_line(self, cli, workshop):
        # the listing prints each record as it reads forwards, so it prints
        # those before the first bad line and then names that one by the
        # number log --check gives it; -n reads backwards, stops before a bad
        # line older than what it prints, and counts a bad line from the end
        state = str(workshop["state"])
        cli("verify", str(workshop["bundle"]), "--state", state)
        listing = cli("log", "--state", state).out.splitlines(keepends=True)
        log_path = workshop["state"] / "audit.log"
        lines = log_path.read_bytes().splitlines(keepends=True)
        log_path.write_bytes(b"".join([*lines[:2], b"[first]\n", *lines[2:],
                                       b"{second}\n", lines[-1]]))
        out = cli("log", "--state", state, expect=2)
        assert out.out == "".join(listing[:2])
        assert out.err.startswith(
            "error: audit.log line 3: unparseable audit record (Expecting value")
        assert "Expecting property name" not in out.err
        check = cli("log", "--state", state, "--check", expect=1)
        assert check.err.startswith("audit check FAILED: audit.log line 3: ")
        tail = cli("log", "--state", state, "-n", "1")
        assert "VERIFY_ACCEPT" in tail.out
        past = cli("log", "--state", state, "-n", "2", expect=2)
        assert past.out == ""
        assert past.err.startswith("error: audit.log line 2 from the end: unparseable audit "
                                   "record (Expecting property name")

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_the_listing_holds_one_record_at_a_time(self, workshop, json_flag):
        # EL1 sets the log's length: a denied-write flood grows it without
        # bound, so the listing's peak must not grow with the record count
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        argv = ["log", "--state", str(workshop["state"]), *json_flag]

        def listing_peak(records):
            with SecureStateStore.load(workshop["state"], durable=False) as store:
                for i in range(records):
                    store.append_audit(AuditEvent.WRITE_DENIED,
                                       detail=f"el1 write denied (locked) offset={i} len=4")
            with contextlib.redirect_stdout(Discard()):
                code, peak = traced_peak(lambda: main(argv))
            assert code == 0
            return peak

        small = listing_peak(2000)
        large = listing_peak(6000)  # 8,000 records, four times the first
        assert large < small * 1.1, (small, large)

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

    @pytest.mark.parametrize("seq, command, expect, err", [
        (b'"1"', "verify", 2, "error: invalid audit record (seq '1' is not a positive integer)\n"),
        (b"true", "check", 1, "audit check FAILED: audit.log line 1: "
                              "invalid audit record (seq True is not a positive integer)\n"),
    ])
    def test_a_wrong_typed_seq_is_refused(self, cli, workshop, seq, command, expect, err):
        log_path = workshop["state"] / "audit.log"
        raw = log_path.read_bytes()
        log_path.write_bytes(raw.replace(b'{"seq":1,', b'{"seq":' + seq + b",", 1))
        state = ["--state", str(workshop["state"])]
        if command == "verify":
            out = cli("verify", str(workshop["bundle"]), *state, expect=expect)
        else:
            out = cli("log", *state, "--check", expect=expect)
        assert out.err == err

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

    def test_an_accept_of_version_true_is_neither_rolled_forward_nor_passed(
        self, cli, workshop
    ):
        # JSON's true parses to a bool, which Python counts as the int 1
        state = str(workshop["state"])
        counter = workshop["state"] / "counter"
        provisioned = counter.read_bytes()
        cli("verify", str(workshop["bundle"]), "--state", state)
        log_path = workshop["state"] / "audit.log"
        lines = log_path.read_bytes().splitlines(keepends=True)
        assert b'"event":"VERIFY_ACCEPT","version":1,' in lines[-1]
        lines[-1] = lines[-1].replace(b'"version":1,', b'"version":true,')
        log_path.write_bytes(b"".join(lines))
        counter.write_bytes(provisioned)
        with SecureStateStore.load(workshop["state"], durable=False) as store:
            assert store.nv_counter == 0
        assert AuditEvent.RECOVER not in {r.event for r in read_audit(workshop["state"])}
        cli("log", "--state", state, "--check", expect=1)

    def test_log_check_passes_a_lock_left_by_a_crashed_load(self, cli, workshop):
        key = KeyPair.from_file_bytes(workshop["key"].read_bytes())
        crash_after_lock_then_accept_unlocked(workshop["state"], key)
        out = cli("log", "--state", str(workshop["state"]), "--check")
        assert out.out == "chain OK, 3 records\n"

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

    @pytest.mark.parametrize("torn", [b"", b'{"seq":99,"ti'], ids=["whole", "torn"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_status_opens_the_log_once(self, cli, workshop, monkeypatch, torn, json_flag):
        state_dir = workshop["state"]
        cli("verify", str(workshop["bundle"]), "--state", str(state_dir))
        with open(state_dir / "audit.log", "ab") as fh:
            fh.write(torn)
        opened = []
        real_open = open

        def counting_open(file, mode="r"):
            opened.append(file)
            return real_open(file, mode)

        monkeypatch.setattr(faarm.state, "open", counting_open, raising=False)
        out = cli("status", "--state", str(state_dir), *json_flag).out
        assert len(opened) == 1
        assert ("13" in out) == bool(torn)

    @pytest.mark.parametrize("torn", [b"", b'{"seq":99,"ti'], ids=["whole", "torn"])
    def test_check_opens_the_log_once(self, cli, workshop, monkeypatch, torn):
        # the chain walk and the torn tail's length come from one open
        state_dir = workshop["state"]
        cli("verify", str(workshop["bundle"]), "--state", str(state_dir))
        with open(state_dir / "audit.log", "ab") as fh:
            fh.write(torn)
        opened = []
        real_open = open

        def counting_open(file, mode="r"):
            opened.append(file)
            return real_open(file, mode)

        monkeypatch.setattr(faarm.state, "open", counting_open, raising=False)
        out = cli("log", "--state", str(state_dir), "--check").out
        assert len(opened) == 1
        assert out.startswith("chain OK")
        assert ("torn line of 13 bytes" in out) == bool(torn)

    def test_check_reports_a_corrupt_counter_as_an_integrity_failure(self, cli, workshop):
        state_dir = workshop["state"]
        (state_dir / "counter").write_bytes(b"x" * 128)
        out = cli("log", "--state", str(state_dir), "--check", expect=1)
        assert out.err == "audit check FAILED: corrupt counter: no slot holds a valid counter\n"


class TestAttackAndBench:
    def test_attack_json_smoke(self, cli, tmp_path):
        csv_path = tmp_path / "latency.csv"
        out = cli("attack", "--scenario", "unsigned-load", "--trials", "2",
                  "--firmware-size", "1KiB", "--json", "--csv", str(csv_path))
        payload = json.loads(out.out)
        assert list(payload) == ["scenarios"]
        assert len(payload["scenarios"]) == 2
        for entry in payload["scenarios"]:
            assert (entry["trials"], entry["seed"], entry["firmware_size"], entry["scheme"]) == (
                2, 0, 1024, "ed25519")
        faarm_rows = [s for s in payload["scenarios"] if s["mode"] == "faarm"]
        assert faarm_rows[0]["attack_success_count"] == 0
        assert csv_path.read_text().startswith("scenario,mode,trial")

    def test_a_repeated_scenario_runs_once(self, cli):
        out = cli("attack", "--scenario", "unsigned-load", "--scenario", "unsigned-load",
                  "--mode", "faarm", "--trials", "2", "--firmware-size", "1KiB", "--json")
        (entry,) = json.loads(out.out)["scenarios"]
        assert (entry["scenario"], entry["mode"]) == ("unsigned-load", "faarm")

    def test_attack_text_renders_table(self, cli):
        out = cli("attack", "--scenario", "signed-good", "--mode", "faarm",
                  "--trials", "1", "--firmware-size", "1KiB")
        assert "signed-good" in out.out

    def test_attack_image_over_the_region_capacity_is_a_usage_error(self, cli):
        out = cli("attack", "--firmware-size", "5MiB", "--trials", "1", expect=2)
        assert out.err.startswith("error: firmware_size")

    def test_monitor_failing_a_genuine_load_exits_1(self, cli, monkeypatch):
        def fail(self, digest=None):
            raise faarm.mcu.LockEngageError("region lock did not engage")

        monkeypatch.setattr(faarm.mcu.McuRegion, "lock", fail)
        out = cli("attack", "--scenario", "signed-good", "--mode", "faarm",
                  "--trials", "2", "--firmware-size", "1KiB", "--json", expect=1)
        (row,) = json.loads(out.out)["scenarios"]
        assert row["legitimate_success_count"] == 0
        assert row["reasons"] == {"lock-failed": 2}

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
    @pytest.mark.parametrize("argv", [
        ["verify", "bundle", "--lock-mode", "software-lock"],
        ["verify", "bundle", "--dump-region", "region.json"],
        ["demo", "--mcu-id", "X"],
        ["attack", "--lock-mode", "software-lock"],
        ["bench", "--lock-mode", "hardware-wp"],
    ], ids=["verify-lock-mode", "verify-dump-region", "demo-mcu-id", "attack-lock-mode",
            "bench-lock-mode"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    # a named command builds only its own subparser: every usage error it can
    # raise must read as the full parser's
    @pytest.mark.parametrize(
        "argv",
        [[], ["--help"], *([name, "--help"] for name in COMMANDS), ["verify"],
         ["verify", "b", "--bogus"], ["bogus"], ["-x", "verify", "b"],
         ["verify", "b", "--capacity", "0"], ["status", "extra"], ["status", "--state"],
         ["status", "--", "x"], ["log", "-n", "x"], ["keygen"], ["keygen", "rsa", "--out", "k"],
         ["sign"], ["sign", "--version", "x"], ["provision"], ["attack", "--scenario", "nope"],
         ["bench", "--size", "0"], ["demo", "x"], ["demo", "--scheme", "x"]],
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
        for command, names in (("status", ["status"]), ("bogus", COMMANDS), (None, COMMANDS)):
            filled = {name: len(sub._actions) > 1
                      for name, sub in subparsers(build_parser(command)).items()}
            assert filled == dict.fromkeys(names, True)

    def test_default_state_dir_constant(self):
        assert DEFAULT_STATE_DIR == "./faarm-state"

    # EL1 owns the state directory: a FIFO in place of a state file is refused
    # at once, where a blocking open would wait for a writer that never comes
    @pytest.mark.parametrize("name", ["audit.log", "state.json", "counter"])
    @pytest.mark.parametrize("argv, code", [(["verify"], 2), (["status"], 2), (["log", "--check"], 1)],
                             ids=["verify", "status", "check"])
    def test_a_fifo_state_file_is_refused_without_blocking(self, workshop, name, argv, code):
        state_dir = workshop["state"]
        (state_dir / name).unlink()
        os.mkfifo(state_dir / name)
        if argv == ["verify"]:
            argv = ["verify", str(workshop["bundle"])]
        done = run_fresh("-m", "faarm", *argv, "--state", str(state_dir), timeout=30)
        assert done.returncode == code
        assert f"{state_dir / name} is not a regular file" in done.stderr


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(
    *argv: str, unbuffered: bool = False, stdout=subprocess.PIPE, timeout: float = 120
) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process with only src/ on PYTHONPATH;
    in-process tests cannot see lazy imports, since pytest already loaded
    the harness, nor the process exit. Its stdout is a pipe, buffered unless
    unbuffered is set, whatever PYTHONUNBUFFERED says here."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
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

    def test_an_accepting_verify_loads_only_the_load_path(self, workshop, tmp_path):
        # runs the package as `python -m faarm` does, then lists what it loaded;
        # faarm.cli.run ends the process with os._exit, which here raises
        # SystemExit instead so that the probe lives to print
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import contextlib, io, json, os, runpy, sys\n"
            "def raise_exit(code):\n"
            "    raise SystemExit(code)\n"
            "os._exit = raise_exit\n"
            "before = set(sys.modules)\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    try:\n"
            "        runpy.run_module('faarm', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as exit_info:\n"
            "        code = exit_info.code\n"
            "print(json.dumps([code, json.loads(out.getvalue())['accepted'],\n"
            "                  sorted(set(sys.modules) - before)]))\n"
        )
        done = run_fresh(str(probe), "verify", str(workshop["bundle"]),
                         "--state", str(workshop["state"]), "--json")
        assert done.returncode == 0, done.stderr
        code, accepted, loaded = json.loads(done.stdout)
        assert (code, accepted) == (0, True)
        assert {name for name in loaded if name.split(".")[0] == "faarm"} == {
            "faarm", "faarm.cli", "faarm.crypto", "faarm.mcu", "faarm.monitor",
            "faarm.packaging", "faarm.state",
        }
        assert not {"faarm.tools", "faarm.harness", "secrets", "tempfile", "statistics",
                    "dataclasses", "inspect",
                    "cryptography.hazmat.primitives.serialization"} & set(loaded)

    def test_the_package_imports_nothing_and_every_benchmark_name_resolves(self):
        # the package has no facade: a reader that imports state loads state
        # and what state needs, and the names the benchmark imports from each
        # module, or wraps on it, are all there
        probe = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import faarm.state\n"
            "loaded = sorted(n for n in set(sys.modules) - before if n.startswith('faarm'))\n"
            "from faarm.cli import main, run\n"
            "from faarm.crypto import Digest, SignatureScheme, keygen, sign, signing_payload\n"
            "from faarm.mcu import LockMode, McuRegion\n"
            "from faarm.monitor import Monitor, replay_protocol_invariants\n"
            "from faarm.packaging import (FIRMWARE_NAME, FLAG_REQUIRES_LOCK, MANIFEST_NAME,\n"
            "    SIGNATURE_NAME, FirmwarePackage, Manifest, build_package, canonical_bytes,\n"
            "    write_bundle)\n"
            "from faarm.state import (AuditEvent, SecureStateStore, check_audit_chain,\n"
            "    read_audit, read_state)\n"
            f"sys.path.insert(0, {str(SRC.parent / 'perfbench')!r})\n"
            "from spans import layer_targets\n"
            "missing = [f'{owner.__name__}.{name}' for owner, name, *_ in layer_targets()\n"
            "           if not hasattr(owner, name)]\n"
            "print(json.dumps([loaded, missing]))\n"
        )
        done = run_fresh("-c", probe)
        assert done.returncode == 0, done.stderr
        loaded, missing = json.loads(done.stdout)
        assert loaded == ["faarm", "faarm.crypto", "faarm.state"]
        assert missing == []

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

    def test_a_negative_bench_warmup_is_a_usage_error(self, cli):
        err = cli("bench", "--size", "4KiB", "--runs", "3", "--warmup", "-2", expect=2).err
        assert err == "error: warmup must be >= 0\n"

    def test_parser_defaults_match_the_harness(self):
        scenario = next(a for a in subcommand("attack")._actions if a.dest == "scenario")
        assert scenario.choices == [k.value for k in harness.ScenarioKind]
        for name in ("sign", "verify"):
            assert subcommand(name).get_default("mcu_id") == harness.DEFAULT_MCU_ID


class TestProcessExit:
    """faarm.cli.run, the entry of `python -m faarm`, flushes the standard
    streams and ends the process with os._exit; these runs check that
    nothing is lost on the way out."""

    def verify(self, workshop, bundle, *extra, **options):
        return run_fresh("-m", "faarm", "verify", str(bundle),
                         "--state", str(workshop["state"]), "--json", *extra, **options)

    def test_verify_json_through_a_pipe_is_complete(self, cli, workshop):
        cli("sign", "--firmware", str(workshop["fw"]), "--version", "2",
            "--key", str(workshop["key"]), "--out", str(workshop["tmp"] / "bundle2"))
        # a flipped image byte under a newer version fails the hash; under the
        # version already accepted, the rollback gate refuses it first
        flipped, stale = workshop["tmp"] / "flipped", workshop["tmp"] / "stale"
        for copy, source in ((flipped, workshop["tmp"] / "bundle2"), (stale, workshop["bundle"])):
            shutil.copytree(source, copy)
            raw = bytearray((copy / "firmware.bin").read_bytes())
            raw[0] ^= 0x01
            (copy / "firmware.bin").write_bytes(bytes(raw))
        runs = [(workshop["bundle"], (), 0, None), (workshop["bundle"], (), 12, "rollback"),
                (flipped, (), 11, "hash-mismatch"), (stale, (), 12, "rollback"),
                (workshop["bundle"], ("--capacity", "1KiB"), 16, "oversize")]
        for bundle, extra, code, reason in runs:
            done = self.verify(workshop, bundle, *extra)
            assert (done.returncode, done.stderr) == (code, "")
            payload = json.loads(done.stdout)
            assert (payload["exit_code"], payload["reason"]) == (code, reason)
            assert done.stdout.endswith("}\n")

    @pytest.mark.parametrize(
        "unbuffered, code, last_line",
        [(True, 2, "error: [Errno 32] Broken pipe"),
         (False, 120, "BrokenPipeError: [Errno 32] Broken pipe")],
        ids=["unbuffered", "buffered"],
    )
    def test_a_closed_reader_exits_as_before_and_the_load_commits(
        self, cli, workshop, unbuffered, code, last_line
    ):
        # unbuffered, print fails inside main, which reports it; buffered, the
        # flush fails and the interpreter reports it as it exits
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.verify(workshop, workshop["bundle"], unbuffered=unbuffered,
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr.splitlines()[-1]) == (code, last_line)
        status = cli("status", "--state", str(workshop["state"]), "--json")
        assert json.loads(status.out)["nv_counter"] == 1

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["verify"],
                                      ["bogus"]], ids=" ".join)
    def test_usage_errors_and_help_exit_as_in_process(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        done = run_fresh("-m", "faarm", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            exit_info.value.code, captured.out, captured.err)
