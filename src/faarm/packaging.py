"""Manifest schema, canonical serialization, and the three-part firmware bundle.

Canonical manifest form: UTF-8 JSON with no insignificant whitespace, keys in
the fixed order (version, mcu_id, timestamp, firmware_hash, flags), version as
an unquoted integer, the hash as 64 lowercase hex characters. Parsing is
strict: any byte sequence that is not exactly the canonical serialization of a
valid manifest is rejected, which closes whitespace/key-order/escape/number
malleability in one check.
"""

from __future__ import annotations

import json
import os
import struct
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

from .crypto import (
    SIGNATURE_SIZE,
    CryptoError,
    Digest,
    Frozen,
    KeyPair,
    Signature,
    hash_data,
    sign,
    signing_payload,
)

DEFAULT_MCU_ID = "MALI-MCU-XYZ"
MANIFEST_KEYS = ("version", "mcu_id", "timestamp", "firmware_hash", "flags")
FLAG_REQUIRES_LOCK = "requires_lock"
MAX_MANIFEST_BYTES = 64 * 1024

FIRMWARE_NAME = "firmware.bin"
MANIFEST_NAME = "manifest.json"
SIGNATURE_NAME = "firmware.sig"

PKG_SUFFIX = ".pkg"
PKG_MAGIC = b"FPK1"
_PKG_LEN = struct.Struct("<Q")


class ManifestError(ValueError):
    """Manifest validation/parse failure; carries the offending field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class BundleError(Exception):
    """Bundle-level I/O or format failure; carries the offending part name."""

    def __init__(self, part: str, message: str):
        self.part = part
        super().__init__(f"{part}: {message}")


def _validate_timestamp(value: object) -> None:
    if not isinstance(value, str) or not value:
        raise ManifestError("timestamp", "must be a non-empty string")
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise ManifestError("timestamp", f"not an RFC-3339 instant: {value!r}") from None
    if parsed.tzinfo is None or parsed.utcoffset() != timedelta(0):
        raise ManifestError("timestamp", "must carry an explicit UTC offset")


class Manifest(Frozen):
    """Firmware metadata; the unit that gets canonically serialized and signed.

    flags is a set-like tuple: construction sorts it and drops duplicates so
    that equal flag sets always canonicalize to identical bytes.
    """

    __slots__ = _fields = ("version", "mcu_id", "timestamp", "firmware_hash", "flags")

    def __init__(
        self,
        version: int,
        mcu_id: str,
        timestamp: str,
        firmware_hash: Digest,
        flags: tuple[str, ...] = (),
    ) -> None:
        if isinstance(version, bool) or not isinstance(version, int):
            raise ManifestError("version", "must be an integer")
        if version < 1:
            raise ManifestError("version", f"must be >= 1, got {version}")
        if not isinstance(mcu_id, str) or not mcu_id:
            raise ManifestError("mcu_id", "must be a non-empty string")
        _validate_timestamp(timestamp)
        if not isinstance(firmware_hash, Digest):
            raise ManifestError("firmware_hash", "must be a Digest")
        flags = tuple(flags)
        for flag in flags:
            if not isinstance(flag, str) or not flag:
                raise ManifestError("flags", "every flag must be a non-empty string")
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "mcu_id", mcu_id)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "firmware_hash", firmware_hash)
        object.__setattr__(self, "flags", tuple(sorted(set(flags))))


def canonical_bytes(manifest: Manifest) -> bytes:
    """The unique byte serialization of a manifest; input to hashing/signing."""
    obj = {
        "version": manifest.version,
        "mcu_id": manifest.mcu_id,
        "timestamp": manifest.timestamp,
        "firmware_hash": manifest.firmware_hash.hex,
        "flags": list(manifest.flags),
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def parse_manifest(raw: bytes) -> Manifest:
    """Strict parse: rejects unknown/missing keys, invalid field values, and
    any input that is not byte-identical to its own canonical serialization."""
    raw = bytes(raw)
    if len(raw) > MAX_MANIFEST_BYTES:
        raise ManifestError("manifest", f"exceeds {MAX_MANIFEST_BYTES} bytes")
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError("manifest", f"not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ManifestError("manifest", "top level must be a JSON object")
    unknown = set(obj) - set(MANIFEST_KEYS)
    if unknown:
        raise ManifestError("manifest", f"unknown keys: {sorted(unknown)}")
    missing = set(MANIFEST_KEYS) - set(obj)
    if missing:
        raise ManifestError("manifest", f"missing keys: {sorted(missing)}")
    hash_text = obj["firmware_hash"]
    if not isinstance(hash_text, str):
        raise ManifestError("firmware_hash", "must be a hex string")
    try:
        digest = Digest.from_hex(hash_text)
    except CryptoError as exc:
        raise ManifestError("firmware_hash", str(exc)) from None
    flags = obj["flags"]
    if not isinstance(flags, list):
        raise ManifestError("flags", "must be a JSON array of strings")
    manifest = Manifest(
        version=obj["version"],
        mcu_id=obj["mcu_id"],
        timestamp=obj["timestamp"],
        firmware_hash=digest,
        flags=tuple(flags),
    )
    if canonical_bytes(manifest) != raw:
        raise ManifestError("manifest", "not in canonical serialization")
    return manifest


class FirmwarePackage(NamedTuple):
    """A firmware image plus its manifest and detached signature."""

    firmware: bytes
    manifest: Manifest
    signature: Signature


def format_timestamp(moment: datetime) -> str:
    if moment.tzinfo is None or moment.utcoffset() != timedelta(0):
        raise ManifestError("timestamp", "datetime must be timezone-aware UTC")
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def build_package(
    firmware: bytes,
    *,
    version: int,
    mcu_id: str,
    key: KeyPair,
    flags: tuple[str, ...] = (FLAG_REQUIRES_LOCK,),
    timestamp: str | datetime | None = None,
) -> FirmwarePackage:
    """Vendor-side packaging: hash the image, fill the manifest, sign
    digest || canonical manifest with the vendor key."""
    if timestamp is None:
        timestamp = format_timestamp(datetime.now(timezone.utc))
    elif isinstance(timestamp, datetime):
        timestamp = format_timestamp(timestamp)
    firmware = bytes(firmware)
    digest = hash_data(firmware)
    manifest = Manifest(
        version=version,
        mcu_id=mcu_id,
        timestamp=timestamp,
        firmware_hash=digest,
        flags=tuple(flags),
    )
    signature = sign(key, signing_payload(digest, canonical_bytes(manifest)))
    return FirmwarePackage(firmware, manifest, signature)


def write_bundle(package: FirmwarePackage, path: str | Path) -> Path:
    """Write the three-part bundle: a directory layout by default, or a single
    .pkg container when the path ends with .pkg."""
    path = Path(path)
    firmware = package.firmware
    manifest_raw = canonical_bytes(package.manifest)
    signature = package.signature.data
    if path.suffix == PKG_SUFFIX:
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = bytearray(PKG_MAGIC)
        for section in (firmware, manifest_raw, signature):
            blob += _PKG_LEN.pack(len(section))
            blob += section
        path.write_bytes(bytes(blob))
    else:
        path.mkdir(parents=True, exist_ok=True)
        (path / FIRMWARE_NAME).write_bytes(firmware)
        (path / MANIFEST_NAME).write_bytes(manifest_raw)
        (path / SIGNATURE_NAME).write_bytes(signature)
    return path


def read_bundle(path: str | Path) -> FirmwarePackage:
    """Read and validate a bundle written by write_bundle.

    The returned signature carries scheme=None (the file format has no scheme
    tag); manifest parsing is strict. Raises BundleError/ManifestError on any
    missing part or format violation.
    """
    path = Path(path)
    if path.is_dir():
        parts = {}
        for name in (FIRMWARE_NAME, MANIFEST_NAME, SIGNATURE_NAME):
            part_path = path / name
            if not part_path.is_file():
                raise BundleError(name, "missing from bundle directory")
            parts[name] = part_path.read_bytes()
        firmware = parts[FIRMWARE_NAME]
        manifest_raw = parts[MANIFEST_NAME]
        signature_raw = parts[SIGNATURE_NAME]
    elif path.is_file():
        firmware, manifest_raw, signature_raw = _read_container(path)
    else:
        raise BundleError("bundle", f"no such bundle: {path}")

    if len(manifest_raw) > MAX_MANIFEST_BYTES:
        raise BundleError(MANIFEST_NAME, f"exceeds {MAX_MANIFEST_BYTES} bytes")
    if len(signature_raw) != SIGNATURE_SIZE:
        raise BundleError(SIGNATURE_NAME, f"must be {SIGNATURE_SIZE} bytes, got {len(signature_raw)}")
    manifest = parse_manifest(manifest_raw)
    return FirmwarePackage(firmware, manifest, Signature(signature_raw, None))


def _read_container(path: Path) -> list[bytes]:
    """The three sections of a .pkg container, each read straight from the
    file so the image is held once. Every length header is checked against
    the bytes left in the file before its section is read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(PKG_MAGIC)) != PKG_MAGIC:
            raise BundleError("container", "bad magic; not a firmware package container")
        offset = len(PKG_MAGIC)
        sections = []
        for name in (FIRMWARE_NAME, MANIFEST_NAME, SIGNATURE_NAME):
            header = fh.read(_PKG_LEN.size) if size - offset >= _PKG_LEN.size else b""
            if len(header) != _PKG_LEN.size:
                raise BundleError(name, "container truncated in length header")
            (length,) = _PKG_LEN.unpack(header)
            offset += _PKG_LEN.size
            body = fh.read(length) if length <= size - offset else b""
            if len(body) != length:
                raise BundleError(name, "container truncated in section body")
            sections.append(body)
            offset += length
        if offset != size:
            raise BundleError("container", f"{size - offset} trailing bytes")
    return sections
