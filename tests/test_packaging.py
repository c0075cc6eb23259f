import json
import os
import pickle
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faarm import packaging
from faarm.crypto import (
    Digest,
    SignatureScheme,
    hash_data,
    keygen,
    signing_payload,
    verify,
)
from faarm.monitor import RejectionReason
from faarm.packaging import (
    FLAG_REQUIRES_LOCK,
    MANIFEST_MEMO_ENTRIES,
    MAX_MANIFEST_BYTES,
    MAX_VERSION,
    PKG_MAGIC,
    BundleError,
    ImageTooLarge,
    Manifest,
    ManifestError,
    build_package,
    canonical_bytes,
    parse_manifest,
    read_bundle,
    write_bundle,
)
from faarm.state import read_audit

from conftest import (
    FW,
    GATE_ORDER,
    TEST_MCU_ID,
    TEST_TIMESTAMP,
    faulty_package,
    traced_peak,
    write_container,
)

# Frozen fixture: the reference manifest and its canonical serialization.
FIXTURE_HASH = "f1ad9a781903e0a6ca7f0197d5036ceb4d74ce173f000f3006e6cdb4bdf1d654"
FIXTURE_MANIFEST = Manifest(
    version=3,
    mcu_id="MALI-MCU-XYZ",
    timestamp="2025-10-10T12:00:00Z",
    firmware_hash=Digest.from_hex(FIXTURE_HASH),
    flags=("requires_lock",),
)
FIXTURE_CANONICAL = (
    b'{"version":3,"mcu_id":"MALI-MCU-XYZ","timestamp":"2025-10-10T12:00:00Z",'
    b'"firmware_hash":"f1ad9a781903e0a6ca7f0197d5036ceb4d74ce173f000f3006e6cdb4bdf1d654",'
    b'"flags":["requires_lock"]}'
)


def make_manifest(**overrides) -> Manifest:
    kwargs = dict(
        version=1,
        mcu_id=TEST_MCU_ID,
        timestamp=TEST_TIMESTAMP,
        firmware_hash=hash_data(b"firmware"),
        flags=(FLAG_REQUIRES_LOCK,),
    )
    kwargs.update(overrides)
    return Manifest(**kwargs)


flag_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-"),
        min_size=1,
        max_size=12,
    ),
    max_size=4,
)

escape_heavy_text = st.one_of(
    st.text(min_size=1),
    st.text(alphabet=st.sampled_from(
        ['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\u2028", "\u2029", "é",
         "\U0001f512", "\U00010000", "\ud800", "\udfff", "a"]
    ), min_size=1),
)

manifest_strategy = st.builds(
    Manifest,
    version=st.integers(min_value=1, max_value=2**63),
    mcu_id=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=24
    ),
    timestamp=st.just(TEST_TIMESTAMP),
    firmware_hash=st.binary(min_size=32, max_size=32).map(Digest),
    flags=flag_strategy.map(tuple),
)


class TestCanonicalForm:
    def test_fixture_canonical_bytes_are_frozen(self):
        assert canonical_bytes(FIXTURE_MANIFEST) == FIXTURE_CANONICAL

    def test_serialization_is_stable(self):
        assert canonical_bytes(FIXTURE_MANIFEST) == canonical_bytes(FIXTURE_MANIFEST)

    def test_key_order_is_fixed(self):
        keys = list(json.loads(canonical_bytes(FIXTURE_MANIFEST)).keys())
        assert keys == ["version", "mcu_id", "timestamp", "firmware_hash", "flags"]

    def test_no_insignificant_whitespace(self):
        raw = canonical_bytes(FIXTURE_MANIFEST)
        assert b" " not in raw.replace(b"MALI-MCU-XYZ", b"")

    def test_flag_order_at_construction_is_normalized(self):
        a = make_manifest(flags=("a_flag", "b_flag"))
        b = make_manifest(flags=("b_flag", "a_flag"))
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_duplicate_flags_collapse(self):
        m = make_manifest(flags=("requires_lock", "requires_lock"))
        assert m.flags == ("requires_lock",)

    @given(manifest_strategy)
    def test_parse_of_canonical_is_identity(self, manifest):
        assert parse_manifest(canonical_bytes(manifest)) == manifest

    @given(manifest_strategy, manifest_strategy)
    def test_distinct_manifests_have_distinct_bytes(self, a, b):
        if a != b:
            assert canonical_bytes(a) != canonical_bytes(b)

    def test_non_ascii_mcu_id_roundtrips(self):
        m = make_manifest(mcu_id="MCU-über-1")
        assert parse_manifest(canonical_bytes(m)) == m

    def test_a_parsed_manifest_keeps_its_input_as_its_canonical_bytes(self):
        raw = bytes(FIXTURE_CANONICAL)
        parsed = parse_manifest(raw)
        assert canonical_bytes(parsed) is raw

    def test_the_kept_bytes_change_no_equality_hash_repr_or_pickle(self):
        built = make_manifest()
        parsed = parse_manifest(canonical_bytes(built))
        fresh = make_manifest()  # its canonical bytes not built yet
        for manifest in (built, parsed):
            assert manifest == fresh and hash(manifest) == hash(fresh)
            assert repr(manifest) == repr(fresh)
            copy = pickle.loads(pickle.dumps(manifest))
            assert copy == fresh and canonical_bytes(copy) == canonical_bytes(built)
        assert pickle.dumps(built) == pickle.dumps(fresh)

    @given(
        version=st.integers(min_value=1, max_value=MAX_VERSION),
        mcu_id=escape_heavy_text,
        flags=st.lists(escape_heavy_text, max_size=4),
    )
    def test_matches_json_dumps(self, version, mcu_id, flags):
        m = make_manifest(version=version, mcu_id=mcu_id, flags=flags)
        obj = {"version": m.version, "mcu_id": m.mcu_id, "timestamp": m.timestamp,
               "firmware_hash": m.firmware_hash.hex, "flags": list(m.flags)}

        def outcome(serialize):
            try:
                return serialize()
            except Exception as exc:  # a lone surrogate cannot be encoded
                return type(exc), str(exc)

        assert outcome(lambda: canonical_bytes(m)) == outcome(
            lambda: json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode()
        )


class TestManifestValidation:
    def test_version_zero_rejected(self):
        with pytest.raises(ManifestError, match="version"):
            make_manifest(version=0)

    def test_negative_version_rejected(self):
        with pytest.raises(ManifestError, match="version"):
            make_manifest(version=-3)

    def test_version_above_64_bits_rejected(self):
        assert make_manifest(version=2**64 - 1).version == 2**64 - 1
        with pytest.raises(ManifestError, match="version"):
            make_manifest(version=2**64)

    def test_bool_version_rejected(self):
        with pytest.raises(ManifestError, match="version"):
            make_manifest(version=True)

    def test_empty_mcu_id_rejected(self):
        with pytest.raises(ManifestError, match="mcu_id"):
            make_manifest(mcu_id="")

    def test_naive_timestamp_rejected(self):
        with pytest.raises(ManifestError, match="timestamp"):
            make_manifest(timestamp="2025-10-10T12:00:00")

    def test_non_utc_offset_rejected(self):
        with pytest.raises(ManifestError, match="timestamp"):
            make_manifest(timestamp="2025-10-10T12:00:00+02:00")

    def test_explicit_utc_offset_accepted(self):
        m = make_manifest(timestamp="2025-10-10T12:00:00+00:00")
        assert m.timestamp == "2025-10-10T12:00:00+00:00"

    def test_garbage_timestamp_rejected(self):
        with pytest.raises(ManifestError, match="timestamp"):
            make_manifest(timestamp="yesterday")

    def test_empty_flag_rejected(self):
        with pytest.raises(ManifestError, match="flags"):
            make_manifest(flags=("",))


class TestStrictParse:
    def test_unknown_key_rejected(self):
        obj = json.loads(FIXTURE_CANONICAL)
        obj["extra"] = 1
        raw = json.dumps(obj, separators=(",", ":")).encode()
        with pytest.raises(ManifestError, match="unknown keys"):
            parse_manifest(raw)

    def test_missing_key_rejected(self):
        obj = json.loads(FIXTURE_CANONICAL)
        del obj["flags"]
        raw = json.dumps(obj, separators=(",", ":")).encode()
        with pytest.raises(ManifestError, match="missing keys"):
            parse_manifest(raw)

    def test_whitespace_variant_rejected(self):
        raw = json.dumps(json.loads(FIXTURE_CANONICAL), indent=1).encode()
        with pytest.raises(ManifestError, match="canonical"):
            parse_manifest(raw)

    def test_key_reorder_rejected(self):
        obj = json.loads(FIXTURE_CANONICAL)
        reordered = {k: obj[k] for k in ("flags", "version", "mcu_id", "timestamp", "firmware_hash")}
        raw = json.dumps(reordered, separators=(",", ":")).encode()
        with pytest.raises(ManifestError, match="canonical"):
            parse_manifest(raw)

    def test_uppercase_hash_rejected(self):
        raw = FIXTURE_CANONICAL.replace(b"f1ad", b"F1AD")
        with pytest.raises(ManifestError):
            parse_manifest(raw)

    def test_quoted_version_rejected(self):
        raw = FIXTURE_CANONICAL.replace(b'"version":3', b'"version":"3"')
        with pytest.raises(ManifestError, match="version"):
            parse_manifest(raw)

    def test_float_version_rejected(self):
        raw = FIXTURE_CANONICAL.replace(b'"version":3', b'"version":3.0')
        with pytest.raises(ManifestError):
            parse_manifest(raw)

    def test_short_hash_rejected(self):
        obj = json.loads(FIXTURE_CANONICAL)
        obj["firmware_hash"] = obj["firmware_hash"][:62]
        raw = json.dumps(obj, separators=(",", ":")).encode()
        with pytest.raises(ManifestError, match="firmware_hash"):
            parse_manifest(raw)

    def test_non_object_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest(b"[1,2,3]")

    def test_truncated_json_rejected(self):
        with pytest.raises(ManifestError, match="JSON"):
            parse_manifest(FIXTURE_CANONICAL[:-2])

    def test_non_utf8_rejected(self):
        with pytest.raises(ManifestError, match="JSON"):
            parse_manifest(b"\xff\xfe" + FIXTURE_CANONICAL)

    def test_oversized_manifest_rejected(self):
        with pytest.raises(ManifestError, match="exceeds"):
            parse_manifest(b" " * (MAX_MANIFEST_BYTES + 1))

    def test_unsorted_flags_rejected(self):
        raw = FIXTURE_CANONICAL.replace(
            b'["requires_lock"]', b'["requires_lock","a_flag"]'
        )
        with pytest.raises(ManifestError, match="canonical"):
            parse_manifest(raw)

    def test_an_escaped_lone_surrogate_is_not_canonical(self):
        # json.loads gives the surrogate, which has no UTF-8 form to compare
        raw = FIXTURE_CANONICAL.replace(b'"MALI-MCU-XYZ"', b'"\\ud800"')
        with pytest.raises(ManifestError, match="not in canonical serialization"):
            parse_manifest(raw)

    def test_duplicate_flags_in_raw_rejected(self):
        raw = FIXTURE_CANONICAL.replace(
            b'["requires_lock"]', b'["requires_lock","requires_lock"]'
        )
        with pytest.raises(ManifestError, match="canonical"):
            parse_manifest(raw)


class TestBuildPackage:
    def test_manifest_hash_is_firmware_hash(self, ed25519_key):
        fw = b"\x01\x02" * 100
        pkg = build_package(
            fw, version=2, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        assert pkg.manifest.firmware_hash == hash_data(fw)
        assert pkg.manifest.version == 2
        assert pkg.manifest.mcu_id == TEST_MCU_ID
        assert pkg.manifest.flags == (FLAG_REQUIRES_LOCK,)

    def test_signature_verifies_over_digest_and_manifest(self, ed25519_key):
        fw = b"firmware image"
        pkg = build_package(
            fw, version=1, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        payload = signing_payload(hash_data(fw), canonical_bytes(pkg.manifest))
        assert verify(ed25519_key.public, payload, pkg.signature)

    def test_version_zero_refused(self, ed25519_key):
        with pytest.raises(ManifestError, match="version"):
            build_package(
                b"fw", version=0, mcu_id=TEST_MCU_ID, key=ed25519_key,
                timestamp=TEST_TIMESTAMP,
            )

    def test_default_timestamp_is_utc_rfc3339(self, ed25519_key):
        pkg = build_package(b"fw", version=1, mcu_id=TEST_MCU_ID, key=ed25519_key)
        assert pkg.manifest.timestamp.endswith("Z")

    @pytest.mark.parametrize(
        "scheme", [SignatureScheme.ECDSA_P256, SignatureScheme.ED25519],
        ids=lambda s: s.value,
    )
    def test_identical_inputs_build_identical_bundles(self, tmp_path, scheme):
        key = keygen(scheme, seed=99, allow_seeded=True)
        fw = bytes(range(200))
        out = []
        for name in ("a.pkg", "b.pkg"):
            pkg = build_package(
                fw, version=5, mcu_id=TEST_MCU_ID, key=key, timestamp=TEST_TIMESTAMP
            )
            path = write_bundle(pkg, tmp_path / name)
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestBundles:
    def roundtrip(self, tmp_path, ed25519_key, name):
        fw = bytes(range(256)) * 4
        pkg = build_package(
            fw, version=4, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        path = write_bundle(pkg, tmp_path / name)
        back = read_bundle(path)
        assert back.firmware == pkg.firmware
        assert canonical_bytes(back.manifest) == canonical_bytes(pkg.manifest)
        assert back.signature.data == pkg.signature.data
        assert back.signature.scheme is None
        return path

    def test_directory_roundtrip_bit_exact(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        assert (path / "firmware.bin").is_file()
        assert (path / "manifest.json").is_file()
        assert (path / "firmware.sig").is_file()

    def test_a_directory_bundle_reads_each_part_once(self, tmp_path, ed25519_key, monkeypatch):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        reads = []
        real_read = os.read

        def counting_read(fd, n):
            data = real_read(fd, n)
            reads.append(len(data))
            return data

        monkeypatch.setattr(packaging.os, "read", counting_read)
        back = read_bundle(path)
        # manifest, signature, image: a read that returns the fstat size is the last
        assert reads == [(path / name).stat().st_size
                         for name in ("manifest.json", "firmware.sig", "firmware.bin")]
        assert len(back.firmware) == reads[-1]

    def test_container_roundtrip_bit_exact(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle.pkg")
        assert path.read_bytes()[:4] == PKG_MAGIC

    def test_missing_signature_file_rejected(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        (path / "firmware.sig").unlink()
        with pytest.raises(BundleError, match="firmware.sig"):
            read_bundle(path)

    @pytest.mark.parametrize("kind", ["fifo", "directory"])
    def test_a_part_that_is_no_regular_file_is_missing(self, tmp_path, ed25519_key, kind):
        # a FIFO must fail without blocking; an earlier part wins over a
        # malformed manifest, since every part is opened before any is read
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        (path / "firmware.bin").unlink()
        (path / "manifest.json").write_bytes(b"not json")
        if kind == "fifo":
            os.mkfifo(path / "firmware.bin")
        else:
            (path / "firmware.bin").mkdir()
        with pytest.raises(BundleError, match="firmware.bin: missing from bundle directory"):
            read_bundle(path)

    def test_wrong_size_signature_rejected(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        (path / "firmware.sig").write_bytes(b"\x00" * 63)
        with pytest.raises(BundleError, match="64 bytes"):
            read_bundle(path)

    @pytest.mark.parametrize("kind", ["bundle", "bundle.pkg"])
    @pytest.mark.parametrize("part, message", [
        ("manifest.json", "manifest.json: exceeds 65536 bytes"),
        ("firmware.sig", "firmware.sig: must be 64 bytes, got 1073741824"),
    ], ids=["manifest.json", "firmware.sig"])
    def test_a_sparse_1gib_part_fails_unread(self, tmp_path, ed25519_key, part, message, kind):
        pkg = build_package(
            b"fw", version=1, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        path = tmp_path / kind
        if kind.endswith(".pkg"):
            sections = {"firmware.bin": pkg.firmware, "manifest.json": canonical_bytes(pkg.manifest),
                        "firmware.sig": pkg.signature.data}
            sections[part] = 1 << 30
            write_container(path, sections.values())
        else:
            write_bundle(pkg, path)
            os.truncate(path / part, 1 << 30)
        err, peak = traced_peak(lambda: pytest.raises(BundleError, read_bundle, path))
        assert str(err.value) == message
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind, fault", [
        ("bundle", "none"),
        ("bundle.pkg", "none"),
        ("bundle", "short-signature"),
        ("bundle.pkg", "short-signature"),
        ("bundle", "bad-manifest"),
        ("bundle.pkg", "bad-manifest"),
        ("bundle.pkg", "trailing-bytes"),
    ])
    def test_the_image_bound_is_checked_after_every_format_check(
        self, tmp_path, ed25519_key, kind, fault
    ):
        fw = bytes(range(256)) * 4
        pkg = build_package(
            fw, version=4, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        manifest_raw, signature_raw = canonical_bytes(pkg.manifest), pkg.signature.data
        if fault == "short-signature":
            signature_raw = signature_raw[:63]
        elif fault == "bad-manifest":
            manifest_raw = b" " + manifest_raw
        path = tmp_path / kind
        if kind.endswith(".pkg"):
            write_container(path, (fw, manifest_raw, signature_raw))
            if fault == "trailing-bytes":
                path.write_bytes(path.read_bytes() + b"extra")
        else:
            write_bundle(pkg, path)
            (path / "manifest.json").write_bytes(manifest_raw)
            (path / "firmware.sig").write_bytes(signature_raw)
        if fault == "none":
            for bound in (len(fw), 1 << 62):  # the file's size, not the bound, sizes the read
                back = read_bundle(path, max_firmware=bound)
                assert (back.firmware, back.manifest) == (fw, pkg.manifest)
            with pytest.raises(ImageTooLarge) as err:
                read_bundle(path, max_firmware=len(fw) - 1)
            assert (err.value.size, err.value.manifest) == (len(fw), pkg.manifest)
        else:
            with pytest.raises((BundleError, ManifestError)) as err:
                read_bundle(path, max_firmware=len(fw) - 1)
            assert str(err.value) == {
                "short-signature": "firmware.sig: must be 64 bytes, got 63",
                "bad-manifest": "manifest: not in canonical serialization",
                "trailing-bytes": "container: 5 trailing bytes",
            }[fault]

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="no such bundle"):
            read_bundle(tmp_path / "nope")

    def test_a_fifo_at_the_bundle_path_is_no_bundle(self, tmp_path):
        # refused without blocking: a plain read open of a FIFO blocks until a writer comes
        path = tmp_path / "bundle"
        os.mkfifo(path)
        errors = []

        def read():
            try:
                read_bundle(path)
            except BundleError as exc:
                errors.append(str(exc))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        if reader.is_alive():
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))  # lets the reader go
            pytest.fail("read_bundle blocked on a FIFO at the bundle path")
        assert errors == [f"bundle: no such bundle: {path}"]

    def test_a_fifo_swapped_in_after_a_file_check_does_not_block(self, tmp_path, monkeypatch):
        # as if a regular file passed a check and a FIFO replaced it before
        # the open: only what the one open gives is trusted
        path = tmp_path / "bundle.pkg"
        os.mkfifo(path)
        monkeypatch.setattr(os.path, "isfile", lambda p: True)
        errors = []

        def read():
            try:
                read_bundle(path)
            except BundleError as exc:
                errors.append(str(exc))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        if reader.is_alive():
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))  # lets the reader go
            reader.join(timeout=10)
            pytest.fail("read_bundle blocked on a FIFO at a .pkg path")
        assert errors == [f"bundle: no such bundle: {path}"]

    def test_a_symlink_to_a_bundle_directory_loads(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle")
        link = tmp_path / "link"
        link.symlink_to(path, target_is_directory=True)
        back, direct = read_bundle(link), read_bundle(path)
        assert (back.firmware, back.manifest, back.signature) == (
            direct.firmware, direct.manifest, direct.signature
        )

    def test_bad_container_magic_rejected(self, tmp_path):
        blob = tmp_path / "evil.pkg"
        blob.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BundleError, match="magic"):
            read_bundle(blob)

    def test_truncated_container_rejected(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle.pkg")
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(BundleError, match="truncated"):
            read_bundle(path)

    def test_every_truncation_point_keeps_its_message(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle.pkg")
        blob = path.read_bytes()
        manifest_len = len(blob) - 4 - 3 * 8 - 1024 - 64
        expected = ["container: bad magic; not a firmware package container"] * 4
        for name, length in (("firmware.bin", 1024), ("manifest.json", manifest_len),
                             ("firmware.sig", 64)):
            expected += [f"{name}: container truncated in length header"] * 8
            expected += [f"{name}: container truncated in section body"] * length
        assert len(expected) == len(blob)
        for cut, message in enumerate(expected):
            path.write_bytes(blob[:cut])
            with pytest.raises(BundleError) as err:
                read_bundle(path)
            assert str(err.value) == message, cut

    @pytest.mark.parametrize("section", [0, 1, 2], ids=["firmware", "manifest", "signature"])
    @pytest.mark.parametrize("length", [2**63, 2**64 - 1, 10**6])
    def test_overlong_length_header_rejected_before_reading(
        self, tmp_path, ed25519_key, section, length
    ):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle.pkg")
        blob = bytearray(path.read_bytes())
        offset = 4
        for _ in range(section):
            (skip,) = struct.unpack_from("<Q", blob, offset)
            offset += 8 + skip
        struct.pack_into("<Q", blob, offset, length)
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleError, match="truncated in section body"):
            read_bundle(path)

    def test_container_read_holds_the_image_once(self, tmp_path, ed25519_key):
        fw = bytes(range(256)) * 4096  # 1 MiB
        pkg = build_package(
            fw, version=4, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        path = write_bundle(pkg, tmp_path / "big.pkg")
        del pkg
        tracemalloc.start()
        try:
            back = read_bundle(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.firmware == fw
        assert peak <= 1.1 * len(fw)

    def test_trailing_garbage_rejected(self, tmp_path, ed25519_key):
        path = self.roundtrip(tmp_path, ed25519_key, "bundle.pkg")
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(BundleError, match="trailing"):
            read_bundle(path)

    def test_mutated_part_fails_verification(self, tmp_path, ed25519_key):
        # single-byte mutations on each bundle part must be caught by hash,
        # parse, or signature check (the wide fuzz run lives in acceptance)
        fw = b"\xaa" * 512
        pkg = build_package(
            fw, version=1, mcu_id=TEST_MCU_ID, key=ed25519_key, timestamp=TEST_TIMESTAMP
        )
        path = write_bundle(pkg, tmp_path / "bundle")

        fw_mut = bytearray(fw)
        fw_mut[100] ^= 0x01
        assert hash_data(bytes(fw_mut)) != pkg.manifest.firmware_hash

        manifest_raw = bytearray(canonical_bytes(pkg.manifest))
        manifest_raw[20] ^= 0x01
        try:
            mutated = parse_manifest(bytes(manifest_raw))
        except ManifestError:
            mutated = None
        if mutated is not None:
            payload = signing_payload(hash_data(fw), canonical_bytes(mutated))
            assert not verify(ed25519_key.public, payload, pkg.signature)

        sig_mut = bytearray(pkg.signature.data)
        sig_mut[10] ^= 0x01
        payload = signing_payload(hash_data(fw), canonical_bytes(pkg.manifest))
        assert not verify(ed25519_key.public, payload, bytes(sig_mut))
        assert path.is_dir()


def max_size_manifest(version: int) -> bytes:
    """The canonical bytes of a valid manifest of exactly MAX_MANIFEST_BYTES,
    its mcu_id padded to fill them."""
    short = len(canonical_bytes(make_manifest(version=version, mcu_id="M")))
    padded = make_manifest(version=version, mcu_id="M" * (1 + MAX_MANIFEST_BYTES - short))
    return canonical_bytes(padded)


class TestManifestMemo:
    """read_bundle's memo of parsed manifests, which the manifest_memo
    fixture empties before each test."""

    @pytest.fixture
    def parses(self, monkeypatch) -> list:
        """The raw bytes of each call that reaches parse_manifest."""
        calls = []
        parse = packaging.parse_manifest

        def counting(raw):
            calls.append(raw)
            return parse(raw)

        monkeypatch.setattr(packaging, "parse_manifest", counting)
        return calls

    @pytest.mark.parametrize("name", ["bundle", "bundle.pkg"])
    def test_a_replayed_bundle_is_parsed_once(self, tmp_path, ed25519_key, parses, name):
        pkg = build_package(FW, version=1, mcu_id=TEST_MCU_ID, key=ed25519_key,
                            timestamp=TEST_TIMESTAMP)
        path = write_bundle(pkg, tmp_path / name)
        for _ in range(4):
            assert read_bundle(path).manifest == pkg.manifest
        raw = canonical_bytes(pkg.manifest)
        assert parses == [raw]
        # one byte differs: version 1 becomes 2
        bumped = raw.replace(b'"version":1,', b'"version":2,')
        assert sum(a != b for a, b in zip(raw, bumped)) == 1
        manifest = parse_manifest(bumped)
        path = write_bundle(pkg._replace(manifest=manifest), tmp_path / f"bumped-{name}")
        del parses[:]
        for _ in range(2):
            assert read_bundle(path).manifest == manifest
        assert parses == [bumped]

    @pytest.mark.parametrize("manifest", [
        b" " + FIXTURE_CANONICAL,
        FIXTURE_CANONICAL[:-1],
        FIXTURE_CANONICAL.replace(b'"MALI-MCU-XYZ"', b'"\\ud800"'),
        FIXTURE_CANONICAL.replace(b'"version":3', b'"version":0'),
    ], ids=["whitespace", "truncated", "lone-surrogate", "version-zero"])
    def test_a_failing_manifest_fails_alike_and_is_never_remembered(
        self, tmp_path, ed25519_key, manifest_memo, parses, manifest
    ):
        pkg = build_package(FW, version=1, mcu_id=TEST_MCU_ID, key=ed25519_key,
                            timestamp=TEST_TIMESTAMP)
        path = write_bundle(pkg, tmp_path / "bundle")
        (path / "manifest.json").write_bytes(manifest)
        errors = []
        for _ in range(3):
            with pytest.raises(ManifestError) as info:
                read_bundle(path)
            errors.append(str(info.value))
            assert manifest_memo.cache_info().currsize == 0
        assert errors == 3 * errors[:1]
        assert len(parses) == 3

    @pytest.mark.parametrize("case", [
        "accept", *(fault for fault, _ in GATE_ORDER), "lock-failed", "non-canonical",
    ])
    def test_a_hit_and_a_miss_give_the_same_result_and_audit(
        self, make_env, tmp_path, manifest_memo, parses, case
    ):
        # every reason a bundle can get, from two devices that hold version 5:
        # the first parses the manifest, the second is answered by the memo
        reasons = {**dict(GATE_ORDER), "accept": None,
                   "lock-failed": RejectionReason.LOCK_FAILED,
                   "non-canonical": RejectionReason.MALFORMED_BUNDLE}
        bundle = None

        def load():
            nonlocal bundle
            env = make_env(capacity=len(FW))
            assert env.monitor.verify_and_lock(env.package(FW, 5)).accepted
            if bundle is None:
                bundle = write_bundle(faulty_package(env, {case}), tmp_path / "bundle")
                if case == "non-canonical":
                    raw = (bundle / "manifest.json").read_bytes()
                    (bundle / "manifest.json").write_bytes(raw.replace(b",", b", ", 1))
            env.region.fail_next_lock = case == "lock-failed"
            result = env.monitor.verify_bundle(bundle)
            token = result.token and result.token._replace(token_id=None)
            records = [r._replace(time=None, prev=None) for r in read_audit(env.store.path)]
            return result._replace(token=token, timings=None), records

        miss = load()
        hit = load()
        assert miss[0].reason is reasons[case]
        assert hit == miss
        remembered = case != "non-canonical"
        assert len(parses) == 1 + (not remembered)
        assert manifest_memo.cache_info().currsize == remembered

    def test_distinct_maximum_size_manifests_keep_the_bound(self, manifest_memo):
        versions = range(1, 4 * MANIFEST_MEMO_ENTRIES + 1)
        tracemalloc.start()
        try:
            for version in versions:
                assert manifest_memo(max_size_manifest(version)).version == version
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert manifest_memo.cache_info().currsize == MANIFEST_MEMO_ENTRIES == 16
        assert retained < 2.5 * (1 << 20)
        # the newest are the ones kept: the last version is a hit
        hits = manifest_memo.cache_info().hits
        manifest_memo(max_size_manifest(versions[-1]))
        assert manifest_memo.cache_info().hits == hits + 1
