import copy
import hashlib
import pickle
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import encode_dss_signature
from hypothesis import given
from hypothesis import strategies as st

from faarm import crypto
from faarm.crypto import (
    DIGEST_SIZE,
    SIGNATURE_SIZE,
    CryptoError,
    Digest,
    KeyPair,
    PublicKey,
    Signature,
    SignatureScheme,
    hash_data,
    keygen,
    sign,
    signing_payload,
    verify,
)

from faarm.packaging import MAX_MANIFEST_BYTES

from reference_sha256 import sha256_reference

# Frozen known answers, cross-checked against the independent oracle below.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

BOTH_SCHEMES = [SignatureScheme.ECDSA_P256, SignatureScheme.ED25519]


class TestHashing:
    def test_oracle_agrees_with_frozen_answers(self):
        assert sha256_reference(b"").hex() == SHA256_EMPTY
        assert sha256_reference(b"abc").hex() == SHA256_ABC

    def test_hash_empty_matches_frozen_answer(self):
        assert hash_data(b"").hex == SHA256_EMPTY

    def test_hash_abc_matches_frozen_answer(self):
        assert hash_data(b"abc").hex == SHA256_ABC

    @given(st.binary(max_size=512))
    def test_hash_matches_independent_oracle(self, data):
        assert hash_data(data).data == sha256_reference(data)

    def test_oracle_multiblock_boundaries(self):
        # padding edge cases: 55/56/64/119 bytes straddle block boundaries
        for n in (55, 56, 63, 64, 65, 119, 120, 200):
            data = bytes(range(256))[:n] * 1
            assert hash_data(data).data == sha256_reference(data)

    def test_digest_is_32_bytes(self):
        assert len(hash_data(b"x").data) == DIGEST_SIZE

    def test_digest_rejects_wrong_length(self):
        with pytest.raises(CryptoError):
            Digest(b"\x00" * 31)

    def test_digest_hex_roundtrip(self):
        d = hash_data(b"roundtrip")
        assert Digest.from_hex(d.hex) == d

    def test_digest_from_hex_rejects_uppercase(self):
        with pytest.raises(CryptoError):
            Digest.from_hex(SHA256_EMPTY.upper())

    def test_digest_from_hex_rejects_bad_length(self):
        with pytest.raises(CryptoError):
            Digest.from_hex("ab" * 31)

    def test_digest_from_hex_rejects_non_hex(self):
        with pytest.raises(CryptoError):
            Digest.from_hex("zz" * 32)


class TestSigningPayload:
    def test_layout_is_digest_then_manifest(self):
        digest = hash_data(b"fw")
        payload = signing_payload(digest, b"{manifest}")
        assert payload[:32] == digest.data
        assert payload[32:] == b"{manifest}"

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
    def test_length_is_sum(self, fw, manifest):
        payload = signing_payload(hash_data(fw), manifest)
        assert len(payload) == 32 + len(manifest)


@pytest.mark.parametrize("scheme", BOTH_SCHEMES, ids=lambda s: s.value)
class TestKeygen:
    def test_seeded_keygen_is_deterministic(self, scheme):
        a = keygen(scheme, seed=42, allow_seeded=True)
        b = keygen(scheme, seed=42, allow_seeded=True)
        assert a.private == b.private
        assert a.public.data == b.public.data

    def test_different_seeds_differ(self, scheme):
        a = keygen(scheme, seed=1, allow_seeded=True)
        b = keygen(scheme, seed=2, allow_seeded=True)
        assert a.public.data != b.public.data

    def test_unseeded_keygen_is_random(self, scheme):
        assert keygen(scheme).public.data != keygen(scheme).public.data

    def test_seed_refused_without_fixture_flag(self, scheme):
        with pytest.raises(CryptoError, match="refusing seed"):
            keygen(scheme, seed=42)

    def test_public_key_file_roundtrip_bit_exact(self, scheme):
        pair = keygen(scheme, seed=3, allow_seeded=True)
        raw = pair.public.to_file_bytes()
        again = PublicKey.from_file_bytes(raw)
        assert again == pair.public
        assert again.to_file_bytes() == raw

    def test_private_key_file_roundtrip(self, scheme):
        pair = keygen(scheme, seed=4, allow_seeded=True)
        again = KeyPair.from_file_bytes(pair.to_file_bytes())
        assert again == pair

    def test_public_key_sizes_and_tags(self, scheme):
        pair = keygen(scheme, seed=5, allow_seeded=True)
        raw = pair.public.to_file_bytes()
        assert raw[0] == scheme.tag
        assert len(raw) == 1 + scheme.public_key_size


class TestKeyFiles:
    def test_unknown_tag_rejected(self):
        with pytest.raises(CryptoError, match="tag"):
            PublicKey.from_file_bytes(b"\x7f" + b"\x00" * 32)

    def test_empty_file_rejected(self):
        with pytest.raises(CryptoError):
            PublicKey.from_file_bytes(b"")

    def test_undecodable_ecdsa_point_rejected(self):
        with pytest.raises(CryptoError):
            PublicKey(SignatureScheme.ECDSA_P256, b"\x05" * 33)

    def test_ecdsa_tag_is_01_ed25519_is_02(self):
        assert SignatureScheme.ECDSA_P256.tag == 0x01
        assert SignatureScheme.ED25519.tag == 0x02


@pytest.mark.parametrize("scheme", BOTH_SCHEMES, ids=lambda s: s.value)
class TestSignVerify:
    def test_roundtrip(self, scheme):
        pair = keygen(scheme, seed=11, allow_seeded=True)
        payload = signing_payload(hash_data(b"fw"), b"manifest")
        sig = sign(pair, payload)
        assert len(sig.data) == SIGNATURE_SIZE
        assert verify(pair.public, payload, sig)

    def test_signing_is_deterministic(self, scheme):
        pair = keygen(scheme, seed=12, allow_seeded=True)
        payload = b"same payload"
        assert sign(pair, payload).data == sign(pair, payload).data

    @given(data=st.binary(min_size=1, max_size=200), flip=st.integers(min_value=0))
    def test_any_payload_bit_flip_fails(self, scheme, data, flip):
        pair = keygen(scheme, seed=13, allow_seeded=True)
        sig = sign(pair, data)
        pos = flip % len(data)
        mutated = data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1 :]
        assert not verify(pair.public, mutated, sig)

    def test_wrong_key_fails(self, scheme):
        pair = keygen(scheme, seed=14, allow_seeded=True)
        other = keygen(scheme, seed=15, allow_seeded=True)
        sig = sign(pair, b"payload")
        assert not verify(other.public, b"payload", sig)

    def test_signature_bit_flip_fails(self, scheme):
        pair = keygen(scheme, seed=16, allow_seeded=True)
        sig = sign(pair, b"payload")
        for pos in (0, 31, 32, 63):
            mutated = bytearray(sig.data)
            mutated[pos] ^= 0x01
            assert not verify(pair.public, b"payload", bytes(mutated))

    def test_all_zero_signature_fails(self, scheme):
        pair = keygen(scheme, seed=17, allow_seeded=True)
        assert not verify(pair.public, b"payload", bytes(SIGNATURE_SIZE))

    def test_truncated_signature_is_false_not_crash(self, scheme):
        pair = keygen(scheme, seed=18, allow_seeded=True)
        sig = sign(pair, b"payload")
        assert verify(pair.public, b"payload", sig.data[:63]) is False

    def test_overlong_signature_is_false(self, scheme):
        pair = keygen(scheme, seed=19, allow_seeded=True)
        sig = sign(pair, b"payload")
        assert verify(pair.public, b"payload", sig.data + b"\x00") is False

    def test_key_is_decoded_once_and_takes_no_part_in_identity(self, scheme):
        pair = keygen(scheme, seed=22, allow_seeded=True)
        key = PublicKey.from_file_bytes(pair.public.to_file_bytes())
        assert key == pair.public and key is not pair.public
        assert hash(key) == hash(pair.public) == hash((key.scheme, key.data))
        assert repr(key) == f"PublicKey(scheme={key.scheme!r}, data={key.data!r})"
        other = next(s for s in BOTH_SCHEMES if s is not scheme)
        sig = sign(pair, b"payload")
        # verify() must use the handle built with the key, never decode again
        with mock.patch.object(crypto, "_public_handle", side_effect=AssertionError):
            assert verify(key, b"payload", sig) is True
            assert verify(key, b"payload", sig.data[:63]) is False
            assert verify(key, b"payload", bytes(SIGNATURE_SIZE)) is False
            assert verify(key, b"payload", b"\xff" * SIGNATURE_SIZE) is False
            assert verify(key, b"payload", Signature(sig.data, other)) is False


class TestSchemeDispatch:
    def test_cross_scheme_signature_rejected(self):
        ed = keygen(SignatureScheme.ED25519, seed=20, allow_seeded=True)
        ec_pair = keygen(SignatureScheme.ECDSA_P256, seed=20, allow_seeded=True)
        sig = sign(ed, b"payload")
        assert sig.scheme is SignatureScheme.ED25519
        assert not verify(ec_pair.public, b"payload", sig)

    def test_untagged_signature_uses_key_scheme(self):
        pair = keygen(SignatureScheme.ED25519, seed=21, allow_seeded=True)
        sig = sign(pair, b"payload")
        untagged = Signature(sig.data, None)
        assert verify(pair.public, b"payload", untagged)

    def test_signature_type_enforces_64_bytes(self):
        with pytest.raises(CryptoError):
            Signature(b"\x00" * 63)


@pytest.mark.parametrize("scheme", BOTH_SCHEMES, ids=lambda s: s.value)
class TestVerifyCache:
    def test_a_repeated_triple_is_answered_without_a_second_library_call(
        self, scheme, verify_calls
    ):
        pair = keygen(scheme, seed=25, allow_seeded=True)
        sig = sign(pair, b"payload")
        forged = bytes(SIGNATURE_SIZE)
        for _ in range(3):
            assert verify(pair.public, b"payload", sig) is True
            assert verify(pair.public, b"payload", forged) is False
            # the same statement, with the signature as untagged bytes
            assert verify(pair.public, b"payload", Signature(sig.data)) is True
        assert [raw for _, _, raw in verify_calls] == [sig.data, forged]

    def test_malformed_signatures_return_before_the_cache(self, scheme, verify_calls):
        pair = keygen(scheme, seed=26, allow_seeded=True)
        sig = sign(pair, b"payload")
        other = next(s for s in BOTH_SCHEMES if s is not scheme)
        for _ in range(2):
            assert verify(pair.public, b"payload", Signature(sig.data, other)) is False
            assert verify(pair.public, b"payload", sig.data[:63]) is False
        assert verify_calls == [] and crypto._verified == {}

    def test_a_change_to_key_payload_or_signature_is_a_miss(self, scheme, verify_calls):
        pair = keygen(scheme, seed=27, allow_seeded=True)
        other = keygen(scheme, seed=28, allow_seeded=True)
        sig = sign(pair, b"payload")
        assert verify(pair.public, b"payload", sig) is True
        flipped = bytes([sig.data[0] ^ 1]) + sig.data[1:]
        # the first three differ from the cached statement in one part each;
        # the last is another key's valid statement on the same payload
        for key, payload, raw, valid in [
            (other.public, b"payload", sig.data, False),
            (pair.public, b"payloaD", sig.data, False),
            (pair.public, b"payload", flipped, False),
            (other.public, b"payload", sign(other, b"payload").data, True),
        ]:
            before = len(verify_calls)
            assert verify(key, payload, raw) is valid
            assert len(verify_calls) == before + 1
        assert verify(pair.public, b"payload", sig) is True
        assert len(verify_calls) == 5

    def test_the_entry_is_keyed_on_the_key_file_bytes_built_with_the_key(
        self, scheme, verify_calls
    ):
        pair = keygen(scheme, seed=30, allow_seeded=True)
        key = PublicKey.from_file_bytes(pair.public.to_file_bytes())
        tag = {SignatureScheme.ECDSA_P256: 0x01, SignatureScheme.ED25519: 0x02}[scheme]
        assert key.to_file_bytes() == bytes([tag]) + key.data
        # the stored encoding takes no part in identity
        assert key == pair.public and hash(key) == hash((key.scheme, key.data))
        assert repr(key) == f"PublicKey(scheme={key.scheme!r}, data={key.data!r})"
        sig = sign(pair, b"payload")
        # verify() never encodes the key again: the scheme's tag is not looked up
        with mock.patch.object(SignatureScheme, "tag", new_callable=mock.PropertyMock,
                               side_effect=AssertionError):
            assert verify(key, b"payload", sig) is True
        entry = hashlib.sha256(bytes([tag]) + key.data + sig.data + b"payload").digest()
        assert list(crypto._verified) == [entry]

    def test_mutating_a_payload_buffer_changes_no_later_answer(self, scheme, verify_calls):
        pair = keygen(scheme, seed=29, allow_seeded=True)
        sig = sign(pair, b"payload")
        buffer = bytearray(b"payload")
        assert verify(pair.public, buffer, sig) is True
        buffer[0] ^= 1
        assert verify(pair.public, buffer, sig) is False
        buffer[0] ^= 1
        assert verify(pair.public, buffer, sig) is True
        assert verify(pair.public, b"payload", sig) is True
        assert verify(pair.public, b"qayload", sig) is False
        assert [type(payload) for _, payload, _ in verify_calls] == [bytes, bytes]

    def test_maximum_size_manifests_keep_the_cache_in_its_bound(self, scheme, monkeypatch):
        pair = keygen(scheme, seed=30, allow_seeded=True)
        monkeypatch.setattr(crypto, "_verified", {})
        monkeypatch.setattr(crypto, "_signature_valid", lambda key, payload, raw: False)
        body = bytes(DIGEST_SIZE + MAX_MANIFEST_BYTES - 4)
        raw = bytes(SIGNATURE_SIZE)
        count = crypto.VERIFY_CACHE_ENTRIES + 100
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                verify(pair.public, i.to_bytes(4, "big") + body, raw)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(crypto._verified) == crypto.VERIFY_CACHE_ENTRIES
        assert held < 256 * 1024
        # the oldest 100 answers were evicted: only the first of these misses
        calls = []
        monkeypatch.setattr(crypto, "_signature_valid",
                            lambda key, payload, raw: calls.append(payload[:4]) or False)
        for i in (100, count - 1, 99):
            verify(pair.public, i.to_bytes(4, "big") + body, raw)
        assert calls == [(99).to_bytes(4, "big")]

    def test_concurrent_callers_get_the_right_answers(self, scheme, monkeypatch):
        pair = keygen(scheme, seed=31, allow_seeded=True)
        monkeypatch.setattr(crypto, "_verified", {})
        monkeypatch.setattr(crypto, "VERIFY_CACHE_ENTRIES", 8)
        # a payload is "validly signed" when its first byte is even
        monkeypatch.setattr(crypto, "_signature_valid",
                            lambda key, payload, raw: payload[0] % 2 == 0)
        raw = bytes(SIGNATURE_SIZE)
        wrong = []

        def caller(seed):
            try:
                for i in range(2000):
                    n = (i * 7 + seed) % 32
                    if verify(pair.public, bytes([n]), raw) is not (n % 2 == 0):
                        wrong.append(n)
            except Exception as exc:  # an eviction race surfaces as KeyError
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(crypto._verified) <= 8


P256_ORDER = crypto._P256_ORDER
P256_PAIR = keygen(SignatureScheme.ECDSA_P256, seed=23, allow_seeded=True)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, value = mutation
    if kind == "flip":
        pos, xor = value
        return raw[:pos] + bytes([raw[pos] ^ xor]) + raw[pos + 1 :]
    if kind == "scalar":  # r or s replaced by an edge value of the group
        half, scalar = value
        part = (scalar % 2**256).to_bytes(32, "big")
        return part + raw[32:] if half == 0 else raw[:32] + part
    if kind == "random":
        return value
    return raw


mutations = st.one_of(
    st.just(("none", None)),
    st.tuples(st.just("flip"), st.tuples(st.integers(0, 63), st.integers(1, 255))),
    st.tuples(
        st.just("scalar"),
        st.tuples(st.integers(0, 1), st.sampled_from([0, 1, P256_ORDER - 1, P256_ORDER,
                                                      P256_ORDER + 1, 2**256 - 1])),
    ),
    st.tuples(st.just("random"), st.binary(min_size=SIGNATURE_SIZE, max_size=SIGNATURE_SIZE)),
)


class TestEcdsaVerifyObject:
    @given(st.binary(max_size=300), st.one_of(st.none(), st.binary(max_size=300)), mutations)
    def test_verify_agrees_with_the_library_default_ecdsa(self, signed, other, mutation):
        checked = signed if other is None else other
        raw = _mutate(sign(P256_PAIR, signed).data, mutation)
        r = int.from_bytes(raw[:32], "big")
        s = int.from_bytes(raw[32:], "big")
        try:
            P256_PAIR.public._handle.verify(
                encode_dss_signature(r, s), checked, ec.ECDSA(hashes.SHA256())
            )
            expected = True
        except (InvalidSignature, ValueError):
            expected = False
        assert verify(P256_PAIR.public, checked, raw) is expected
        if mutation[0] == "none":
            assert expected is (signed == checked)


def _value_types():
    """(instance, a fresh equal instance, its fields by name in order,
    expected repr) for each validated value type."""
    from faarm.packaging import Manifest

    digest = hash_data(b"v")
    sig = Signature(bytes(range(64)))
    pub = P256_PAIR.public
    manifest_args = (3, "MCU", "2025-01-01T00:00:00Z", digest, ("b", "a"))
    manifest = Manifest(*manifest_args)
    return {
        "Digest": (digest, Digest(bytes(digest.data)), {"data": digest.data},
                   f"Digest({digest.hex})"),
        "Signature": (sig, Signature(bytearray(sig.data)),
                      {"data": sig.data, "scheme": None},
                      f"Signature(data={sig.data!r}, scheme=None)"),
        "PublicKey": (pub, PublicKey.from_file_bytes(pub.to_file_bytes()),
                      {"scheme": pub.scheme, "data": pub.data},
                      f"PublicKey(scheme={pub.scheme!r}, data={pub.data!r})"),
        "KeyPair": (P256_PAIR, KeyPair.from_file_bytes(P256_PAIR.to_file_bytes()),
                    {"scheme": P256_PAIR.scheme, "public": pub, "private": P256_PAIR.private},
                    f"KeyPair(scheme={P256_PAIR.scheme!r}, public={pub!r})"),
        "Manifest": (manifest, Manifest(*manifest_args),
                     {"version": 3, "mcu_id": "MCU", "timestamp": "2025-01-01T00:00:00Z",
                      "firmware_hash": digest, "flags": ("a", "b")},
                     "Manifest(version=3, mcu_id='MCU', timestamp='2025-01-01T00:00:00Z', "
                     f"firmware_hash={digest!r}, flags=('a', 'b'))"),
    }


VALUE_TYPES = ["Digest", "Signature", "PublicKey", "KeyPair", "Manifest"]


@pytest.mark.parametrize("name", VALUE_TYPES)
class TestValueTypeContract:
    def test_immutable(self, name):
        value, _, fields, _ = _value_types()[name]
        for attr in (*fields, "_handle", "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert {attr: getattr(value, attr) for attr in fields} == fields

    def test_equality_hash_and_repr(self, name):
        value, twin, fields, text = _value_types()[name]
        values = tuple(fields.values())
        assert {attr: getattr(value, attr) for attr in fields} == fields
        assert value == twin and value is not twin
        assert not value != twin
        assert hash(value) == hash(twin) == hash(values)
        # type-strict: never equal to a tuple of the same values
        assert value != values and values != value
        assert value != values[0]
        assert repr(value) == text

    def test_copy_and_pickle_keep_the_value(self, name):
        value, _, _, _ = _value_types()[name]
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)


def test_key_pair_repr_never_shows_the_private_key():
    pair = keygen(SignatureScheme.ED25519, seed=24, allow_seeded=True)
    text = repr(pair) + str(pair)
    assert "private" not in text
    assert pair.private.hex() not in text and repr(pair.private) not in text
