"""Manifest schema, canonical serialization, and the three-part firmware bundle.

Canonical manifest form: UTF-8 JSON with no insignificant whitespace, keys in
the fixed order (version, mcu_id, timestamp, firmware_hash, flags), version as
an unquoted integer, the hash as 64 lowercase hex characters. Parsing is
strict: any byte sequence that is not exactly the canonical serialization of a
valid manifest is rejected, which closes whitespace/key-order/escape/number
malleability in one check.

A Manifest keeps its canonical bytes once they are built; one parsed from
a bundle holds the very bytes it was parsed from. read_bundle looks the
manifest up in a memo of the last MANIFEST_MEMO_ENTRIES parses, keyed on the
exact manifest bytes, so a replayed bundle is parsed once. This is sound
because the parse is a pure function of those bytes and a Manifest is
immutable. A parse that fails is not remembered, and a manifest not seen
lately is parsed in full. parse_manifest itself remembers nothing.
"""

from __future__ import annotations

import json
import os
import stat
import struct
from datetime import datetime, timedelta, timezone
from functools import lru_cache, partial
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, NamedTuple

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
from .mcu import DEFAULT_CAPACITY

DEFAULT_MCU_ID = "MALI-MCU-XYZ"
MANIFEST_KEYS = ("version", "mcu_id", "timestamp", "firmware_hash", "flags")
FLAG_REQUIRES_LOCK = "requires_lock"
MAX_MANIFEST_BYTES = 64 * 1024
# read_bundle's remembered parses: at most this many manifests of at most
# MAX_MANIFEST_BYTES each, about 2 MiB with their parsed strings
MANIFEST_MEMO_ENTRIES = 16
MAX_VERSION = 2**64 - 1  # an unsigned 64-bit sequence number; the counter holds 20 digits

FIRMWARE_NAME = "firmware.bin"
MANIFEST_NAME = "manifest.json"
SIGNATURE_NAME = "firmware.sig"

_READ_STEP = 1 << 20  # bundle file bytes asked for per read past the fstat size

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


class ImageTooLarge(Exception):
    """A well-formed bundle whose image is over the read bound; raised before
    the image is read. Not a BundleError: the bundle is not malformed, and
    the caller rejects it against the manifest it carries."""

    def __init__(self, size: int, limit: int, manifest: Manifest):
        self.size = size
        self.manifest = manifest
        super().__init__(f"{FIRMWARE_NAME}: {size} bytes exceeds {limit}")


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

    __slots__ = ("version", "mcu_id", "timestamp", "firmware_hash", "flags", "_canonical")
    # _canonical is the canonical serialization, unset until canonical_bytes()
    # or parse_manifest sets it; it is not part of equality, hash or repr
    _fields = ("version", "mcu_id", "timestamp", "firmware_hash", "flags")

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
        if version > MAX_VERSION:
            raise ManifestError("version", f"must be <= {MAX_VERSION}, got {version}")
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
    """The unique byte serialization of a manifest; input to hashing/signing.
    Built on the first call and kept in the manifest, which a manifest from
    parse_manifest already holds. A field that UTF-8 cannot encode raises
    UnicodeEncodeError here, not at construction."""
    try:
        return manifest._canonical
    except AttributeError:
        raw = _serialize(manifest)
        object.__setattr__(manifest, "_canonical", raw)
        return raw


def _serialize(manifest: Manifest) -> bytes:
    """The canonical serialization of a manifest's fields: the bytes of
    json.dumps(obj, separators=(",", ":"), ensure_ascii=False) encoded as
    UTF-8, where obj maps the keys of MANIFEST_KEYS in order to the fields,
    the hash as hex and the flags as a list. Assembled directly, since
    json.dumps builds a new encoder on every call."""
    flags = ",".join(map(encode_basestring, manifest.flags))
    return (
        f'{{"version":{int.__repr__(manifest.version)},'
        f'"mcu_id":{encode_basestring(manifest.mcu_id)},'
        f'"timestamp":{encode_basestring(manifest.timestamp)},'
        f'"firmware_hash":{encode_basestring(manifest.firmware_hash.hex)},'
        f'"flags":[{flags}]}}'
    ).encode("utf-8")


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
    try:
        canonical = _serialize(manifest)
    except UnicodeEncodeError:  # an escaped lone surrogate has no UTF-8 form
        canonical = None
    if canonical != raw:
        raise ManifestError("manifest", "not in canonical serialization")
    # the equal input, so that a memo entry keyed on raw holds its bytes once
    object.__setattr__(manifest, "_canonical", raw)
    return manifest


@lru_cache(maxsize=MANIFEST_MEMO_ENTRIES)
def _remembered_manifest(raw: bytes) -> Manifest:
    """parse_manifest(raw), remembered for the last MANIFEST_MEMO_ENTRIES
    distinct raw byte strings that parsed; an error propagates and is not
    remembered. The module-level name is looked up on each miss."""
    return parse_manifest(raw)


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


_Part = tuple[int, bytes]  # (size, body) of one bundle part; see _read_file
# what _open_directory and _open_container return: the manifest and signature
# parts, the image's size, and a call that reads the image part up to a limit
_Opened = tuple[_Part, _Part, int, Callable[[int], _Part]]


def read_bundle(
    path: str | Path,
    *,
    max_firmware: int = DEFAULT_CAPACITY,
    check: Callable[[Manifest, Signature], None] | None = None,
) -> FirmwarePackage:
    """Read and validate a bundle written by write_bundle, image last.

    Every part's size is checked before its body is read: from fstat for a
    directory bundle, from the length header for a .pkg container. The
    manifest and the signature are read and parsed first. An image over
    max_firmware then raises ImageTooLarge without being read, but only
    after every container and manifest check has passed, so a malformed
    bundle still fails as one. Next, check(manifest, signature) runs when
    given: an exception it raises propagates with every file this call
    opened closed, and the image is never read. Only then is the image read,
    at most max_firmware + 1 bytes of it.

    The returned signature carries scheme=None (the file format has no scheme
    tag); manifest parsing is strict. Raises BundleError/ManifestError on any
    missing part or format violation.
    """
    fds: list[int] = []
    try:
        try:
            dir_fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NONBLOCK)
        except (FileNotFoundError, NotADirectoryError):
            parts = _open_container(path, fds)
        else:
            fds.append(dir_fd)
            parts = _open_directory(dir_fd, fds)
        manifest_part, signature_part, firmware_size, read_firmware = parts
        manifest, signature = _parse_parts(manifest_part, signature_part)
        if firmware_size <= max_firmware:
            if check is not None:
                check(manifest, signature)
            # a directory image that grew after its fstat reads back over the bound
            firmware_size, firmware = read_firmware(max_firmware)
        if firmware_size > max_firmware:
            raise ImageTooLarge(firmware_size, max_firmware, manifest)
    finally:
        for fd in fds:
            os.close(fd)
    return FirmwarePackage(firmware, manifest, signature)


def _parse_parts(manifest_part: _Part, signature_part: _Part) -> tuple[Manifest, Signature]:
    """Check the (size, body) of the manifest and the signature, in that
    order, then parse the manifest, or take it from the memo."""
    manifest_size, manifest_raw = manifest_part
    signature_size, signature_raw = signature_part
    if manifest_size > MAX_MANIFEST_BYTES:
        raise BundleError(MANIFEST_NAME, f"exceeds {MAX_MANIFEST_BYTES} bytes")
    if signature_size != SIGNATURE_SIZE:
        raise BundleError(SIGNATURE_NAME, f"must be {SIGNATURE_SIZE} bytes, got {signature_size}")
    return _remembered_manifest(manifest_raw), Signature(signature_raw, None)


def _open_directory(dir_fd: int, fds: list[int]) -> _Opened:
    """The directory bundle open at dir_fd, opened; every fd opened is
    appended to fds, which the caller closes. Each part is opened by name
    relative to dir_fd, so all three come from one directory, and all three
    are opened, firmware, manifest and signature in that order, before any
    is read. O_NONBLOCK makes a FIFO named like a part open at once; it then
    fails the S_ISREG check on the fstat that also gives the size, as a
    directory does."""
    parts = []
    for name in (FIRMWARE_NAME, MANIFEST_NAME, SIGNATURE_NAME):
        try:
            fd = os.open(name, os.O_RDONLY | os.O_NONBLOCK, dir_fd=dir_fd)
        except FileNotFoundError:
            raise BundleError(name, "missing from bundle directory") from None
        fds.append(fd)
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise BundleError(name, "missing from bundle directory")
        parts.append((fd, st.st_size))
    (firmware_fd, firmware_size), manifest_part, signature_part = parts
    return (
        _read_file(*manifest_part, MAX_MANIFEST_BYTES),
        _read_file(*signature_part, SIGNATURE_SIZE),
        firmware_size,
        partial(_read_file, firmware_fd, firmware_size),
    )


def _read_file(fd: int, size: int, limit: int) -> _Part:
    """(size, body) of one open bundle file whose fstat gave size. A file
    over `limit` is not read (body b""). Otherwise it is read to its end or
    to one byte past `limit`, and the size is what was read, so a file that
    grew after the fstat still fails its size check. The first read asks for
    the fstat size + 1; when it returns the fstat size, that is the file's
    end and the only read. Later reads ask for at most _READ_STEP: read(n)
    allocates n bytes up front, and the limit can be far above the file's
    size."""
    if size > limit:
        return size, b""
    body = os.read(fd, size + 1)
    if len(body) == size:
        return size, body
    chunks = [body]
    total = len(body)
    while total <= limit and (chunk := os.read(fd, min(limit + 1 - total, _READ_STEP))):
        chunks.append(chunk)
        total += len(chunk)
    return total, b"".join(chunks)


def _open_container(path: str | Path, fds: list[int]) -> _Opened:
    """The .pkg container at path, opened; every fd opened is appended to
    fds, which the caller closes. The path is opened once, with O_NONBLOCK,
    and a FIFO or other non-regular file fails the fstat check, as a part in
    _open_directory does. Every length header is checked
    against the bytes left in the file before the next is read, and the
    file must end with the last section. Sections are then read where they
    lie, with pread, so the image is held once and read last."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except (FileNotFoundError, NotADirectoryError):
        raise BundleError("bundle", f"no such bundle: {Path(path)}") from None
    fds.append(fd)
    st = os.fstat(fd)
    if not stat.S_ISREG(st.st_mode):
        raise BundleError("bundle", f"no such bundle: {Path(path)}")
    size = st.st_size
    if os.pread(fd, len(PKG_MAGIC), 0) != PKG_MAGIC:
        raise BundleError("container", "bad magic; not a firmware package container")
    offset = len(PKG_MAGIC)
    sections = []
    for name in (FIRMWARE_NAME, MANIFEST_NAME, SIGNATURE_NAME):
        header = os.pread(fd, _PKG_LEN.size, offset) if size - offset >= _PKG_LEN.size else b""
        if len(header) != _PKG_LEN.size:
            raise BundleError(name, "container truncated in length header")
        (length,) = _PKG_LEN.unpack(header)
        offset += _PKG_LEN.size
        if length > size - offset:
            raise BundleError(name, "container truncated in section body")
        sections.append((fd, offset, length))
        offset += length
    if offset != size:
        raise BundleError("container", f"{size - offset} trailing bytes")
    firmware, manifest, signature = sections
    return (
        _read_section(*manifest, MAX_MANIFEST_BYTES),
        _read_section(*signature, SIGNATURE_SIZE),
        firmware[2],
        partial(_read_section, *firmware),
    )


def _read_section(fd: int, offset: int, length: int, limit: int) -> _Part:
    """(size, body) of the .pkg section of `length` bytes at offset: a
    section over `limit` is not read (body b"", size from the header)."""
    if length > limit:
        return length, b""
    body = os.pread(fd, length, offset)
    return len(body), body
