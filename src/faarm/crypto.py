"""Hashing and signing primitives, plus the exact byte string that gets signed.

Signatures are fixed-width 64-byte r||s for ECDSA P-256 (RFC 6979
deterministic nonces) and standard Ed25519. Public key files are
self-describing: a 1-byte scheme tag followed by the encoded key.
"""

from __future__ import annotations

import hashlib
from enum import Enum

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec, ed25519
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

DIGEST_SIZE = 32
SIGNATURE_SIZE = 64

# secp256r1 group order; seed-derived private scalars must land in [1, n-1]
_P256_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


class CryptoError(Exception):
    pass


class SignatureScheme(Enum):
    ECDSA_P256 = "ecdsa-p256"
    ED25519 = "ed25519"

    @property
    def tag(self) -> int:
        return _SCHEME_TAGS[self]

    @property
    def public_key_size(self) -> int:
        return _PUBLIC_KEY_SIZES[self]

    @classmethod
    def from_tag(cls, tag: int) -> "SignatureScheme":
        for scheme, value in _SCHEME_TAGS.items():
            if value == tag:
                return scheme
        raise CryptoError(f"unknown public key scheme tag 0x{tag:02x}")


_SCHEME_TAGS = {SignatureScheme.ECDSA_P256: 0x01, SignatureScheme.ED25519: 0x02}
_PUBLIC_KEY_SIZES = {SignatureScheme.ECDSA_P256: 33, SignatureScheme.ED25519: 32}


class Frozen:
    """Base of the validated value types. Each subclass lists its attributes
    in __slots__ and the ones that make up its value in _fields; __init__
    validates and sets them through object.__setattr__, after which the
    instance refuses assignment and deletion. Equality is type-strict, and
    hash and repr follow _fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        # __init__ takes the fields in _fields order, and re-validates them
        return self.__class__, self._values()


class Digest(Frozen):
    """A SHA-256 digest; always exactly 32 bytes."""

    __slots__ = _fields = ("data",)

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)
        if len(data) != DIGEST_SIZE:
            raise CryptoError(f"digest must be {DIGEST_SIZE} bytes, got {len(data)}")
        object.__setattr__(self, "data", data)

    # compared on every load, so without the generic field walk
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash((self.data,))

    @property
    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        if not isinstance(text, str) or len(text) != 2 * DIGEST_SIZE or text != text.lower():
            raise CryptoError("digest hex must be 64 lowercase hex characters")
        try:
            return cls(bytes.fromhex(text))
        except ValueError as exc:
            raise CryptoError("digest hex must be 64 lowercase hex characters") from exc

    def __repr__(self) -> str:
        return f"Digest({self.hex})"


class Signature(Frozen):
    """A raw 64-byte signature.

    scheme is None for signatures read back from bundle files, which carry no
    scheme tag; the verifying key's scheme decides how to interpret them.
    """

    __slots__ = _fields = ("data", "scheme")

    def __init__(self, data: bytes, scheme: SignatureScheme | None = None) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)
        if len(data) != SIGNATURE_SIZE:
            raise CryptoError(f"signature must be {SIGNATURE_SIZE} bytes, got {len(data)}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "scheme", scheme)


class PublicKey(Frozen):
    __slots__ = ("scheme", "data", "_handle", "_file_bytes")
    # _handle is the decoded key, built once here (which also validates the
    # point) and reused by every verify(), and _file_bytes is the tag-prefixed
    # encoding; neither is part of equality, hash or repr
    _fields = ("scheme", "data")

    def __init__(self, scheme: SignatureScheme, data: bytes) -> None:
        if not isinstance(data, bytes):
            data = bytes(data)
        expected = scheme.public_key_size
        if len(data) != expected:
            raise CryptoError(
                f"{scheme.value} public key must be {expected} bytes, got {len(data)}"
            )
        try:
            handle = _public_handle(scheme, data)
        except ValueError as exc:
            raise CryptoError(f"undecodable {scheme.value} public key") from exc
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_handle", handle)
        object.__setattr__(self, "_file_bytes", bytes([scheme.tag]) + data)

    def to_file_bytes(self) -> bytes:
        return self._file_bytes

    @classmethod
    def from_file_bytes(cls, raw: bytes) -> "PublicKey":
        if len(raw) < 1:
            raise CryptoError("empty public key file")
        scheme = SignatureScheme.from_tag(raw[0])
        return cls(scheme, bytes(raw[1:]))


class KeyPair(Frozen):
    __slots__ = _fields = ("scheme", "public", "private")

    def __init__(self, scheme: SignatureScheme, public: PublicKey, private: bytes) -> None:
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "public", public)
        object.__setattr__(self, "private", private)

    def __repr__(self) -> str:
        # never the private key
        return f"KeyPair(scheme={self.scheme!r}, public={self.public!r})"

    def to_file_bytes(self) -> bytes:
        return bytes([self.scheme.tag]) + self.private

    @classmethod
    def from_file_bytes(cls, raw: bytes) -> "KeyPair":
        if len(raw) < 1:
            raise CryptoError("empty private key file")
        scheme = SignatureScheme.from_tag(raw[0])
        secret = bytes(raw[1:])
        if len(secret) != 32:
            raise CryptoError(f"{scheme.value} private key must be 32 bytes, got {len(secret)}")
        return cls(scheme, _public_from_private(scheme, secret), secret)


class _EcdsaSha256(ec.ECDSA):
    """ECDSA with SHA-256 and random nonces, for verification. ec.ECDSA's own
    __init__ only stores these two values, after importing cryptography's
    OpenSSL backend (and with it the RSA, padding, cipher and decrepit
    modules) to check RFC 6979 support, which verifying never needs."""

    algorithm = hashes.SHA256()
    deterministic_signing = False

    def __init__(self) -> None:
        pass


_ECDSA_SHA256 = _EcdsaSha256()


def hash_data(data: bytes) -> Digest:
    """SHA-256 over exactly the input bytes."""
    return Digest(hashlib.sha256(data).digest())


def signing_payload(firmware_digest: Digest, manifest_bytes: bytes) -> bytes:
    """The byte string that gets signed: firmware digest || canonical manifest."""
    return firmware_digest.data + bytes(manifest_bytes)


def keygen(
    scheme: SignatureScheme,
    seed: int | bytes | None = None,
    *,
    allow_seeded: bool = False,
) -> KeyPair:
    """Generate a key pair.

    Seeded generation exists for reproducible test fixtures only and must be
    opted into with allow_seeded; the production path refuses seeds.
    """
    if seed is not None and not allow_seeded:
        raise CryptoError("seeded keygen is a test-fixture facility; refusing seed")
    # imported here, not at module level: the verify path never serializes keys
    from cryptography.hazmat.primitives import serialization

    if scheme is SignatureScheme.ED25519:
        if seed is None:
            handle = ed25519.Ed25519PrivateKey.generate()
        else:
            handle = ed25519.Ed25519PrivateKey.from_private_bytes(_seed_material(scheme, seed))
        secret = handle.private_bytes(
            serialization.Encoding.Raw,
            serialization.PrivateFormat.Raw,
            serialization.NoEncryption(),
        )
    elif scheme is SignatureScheme.ECDSA_P256:
        if seed is None:
            handle = ec.generate_private_key(ec.SECP256R1())
            scalar = handle.private_numbers().private_value
        else:
            material = int.from_bytes(_seed_material(scheme, seed), "big")
            scalar = material % (_P256_ORDER - 1) + 1
        secret = scalar.to_bytes(32, "big")
    else:  # pragma: no cover - enum is closed
        raise CryptoError(f"unsupported scheme {scheme!r}")
    return KeyPair(scheme, _public_from_private(scheme, secret), secret)


def sign(key: KeyPair, payload: bytes) -> Signature:
    """Sign payload with the key's scheme; deterministic for fixed inputs."""
    if key.scheme is SignatureScheme.ED25519:
        raw = ed25519.Ed25519PrivateKey.from_private_bytes(key.private).sign(payload)
    else:
        handle = ec.derive_private_key(int.from_bytes(key.private, "big"), ec.SECP256R1())
        der = handle.sign(payload, ec.ECDSA(hashes.SHA256(), deterministic_signing=True))
        r, s = decode_dss_signature(der)
        raw = r.to_bytes(32, "big") + s.to_bytes(32, "big")
    return Signature(raw, key.scheme)


def verify(key: PublicKey, payload: bytes, sig: Signature | bytes) -> bool:
    """True iff sig is a valid signature of payload under key.

    Malformed signature material (wrong length, bad scalar range, mismatched
    scheme) is a verification failure, never an exception; a signature of
    the wrong length or scheme is refused before the library is called.
    """
    if isinstance(sig, Signature):
        if sig.scheme is not None and sig.scheme is not key.scheme:
            return False
        raw = sig.data
    else:
        raw = bytes(sig)
    if len(raw) != SIGNATURE_SIZE:
        return False
    try:
        if key.scheme is SignatureScheme.ED25519:
            key._handle.verify(raw, payload)
        else:
            r = int.from_bytes(raw[:32], "big")
            s = int.from_bytes(raw[32:], "big")
            key._handle.verify(encode_dss_signature(r, s), payload, _ECDSA_SHA256)
        return True
    except (InvalidSignature, ValueError):
        return False


def _seed_material(scheme: SignatureScheme, seed: int | bytes) -> bytes:
    if isinstance(seed, int):
        seed_bytes = str(seed).encode("ascii")
    elif isinstance(seed, (bytes, bytearray)):
        seed_bytes = bytes(seed)
    else:
        raise CryptoError("keygen seed must be an int or bytes")
    return hashlib.sha256(b"keygen:" + scheme.value.encode("ascii") + b":" + seed_bytes).digest()


def _public_from_private(scheme: SignatureScheme, secret: bytes) -> PublicKey:
    from cryptography.hazmat.primitives import serialization

    if scheme is SignatureScheme.ED25519:
        pub = ed25519.Ed25519PrivateKey.from_private_bytes(secret).public_key()
        data = pub.public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    else:
        scalar = int.from_bytes(secret, "big")
        if not 1 <= scalar < _P256_ORDER:
            raise CryptoError("ECDSA private scalar out of range")
        pub = ec.derive_private_key(scalar, ec.SECP256R1()).public_key()
        data = pub.public_bytes(
            serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
        )
    return PublicKey(scheme, data)


def _public_handle(scheme: SignatureScheme, data: bytes):
    if scheme is SignatureScheme.ED25519:
        return ed25519.Ed25519PublicKey.from_public_bytes(data)
    return ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), data)
