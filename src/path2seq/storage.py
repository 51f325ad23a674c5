"""Binary record files for checkpoints.

Layout (all integers little-endian):

    magic "P2SQ" | u32 version | u32 record count | records... | u32 crc32

Each record: u32 name length, UTF-8 name, u8 dtype tag, u8 rank,
u64 dims[rank], raw payload bytes. Tags: 0 = float64 tensor, 3 = UTF-8
blob (rank 1, dim = byte length); any other tag marks the file corrupt.
The trailing crc32 covers every record byte; the loader checks magic,
version and checksum before it parses any record, and then that the file
holds exactly the declared records. Version 2 is the first with one gate
matrix and one bias per LSTM cell; version-1 files are rejected.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import Path2SeqError

MAGIC = b"P2SQ"
VERSION = 2

TAG_F64, TAG_BYTES = 0, 3


class CheckpointError(Path2SeqError):
    kind = "io-error"


class CorruptFile(CheckpointError):
    kind = "corrupt-file"


class VersionMismatch(CheckpointError):
    kind = "version-mismatch"


def _encode_record(name: str, value) -> bytes:
    name_b = name.encode("utf-8")
    if isinstance(value, bytes):
        tag, dims, payload = TAG_BYTES, (len(value),), value
    else:
        arr = np.ascontiguousarray(value)
        if arr.dtype != np.float64:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for record {name!r}")
        tag, dims = TAG_F64, arr.shape
        payload = arr.astype("<f8", copy=False).tobytes()
    head = struct.pack("<I", len(name_b)) + name_b + struct.pack("<BB", tag, len(dims))
    head += struct.pack(f"<{len(dims)}Q", *dims)
    return head + payload


def write_records(path, records: list[tuple[str, object]]):
    """Write named records in order. Values: float64 numpy arrays or raw
    bytes."""
    body = b"".join(_encode_record(name, value) for name, value in records)
    blob = MAGIC + struct.pack("<II", VERSION, len(records)) + body
    blob += struct.pack("<I", zlib.crc32(body))
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise CheckpointError(f"cannot write {path}: {exc}") from exc


def read_records(path) -> list[tuple[str, object]]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CorruptFile(f"{path}: not a {MAGIC.decode()} file")
    version, count = struct.unpack("<II", blob[4:12])
    if version != VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {VERSION}")
    end = len(blob) - 4
    if struct.unpack("<I", blob[end:])[0] != zlib.crc32(blob[12:end]):
        raise CorruptFile(f"{path}: checksum mismatch")
    pos = 12  # past magic, version and record count

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > end:
            raise CorruptFile(f"{path}: truncated record data")
        pos += n
        return blob[pos - n: pos]

    records = []
    for _ in range(count):
        name = take(struct.unpack("<I", take(4))[0]).decode("utf-8")
        tag, rank = struct.unpack("<BB", take(2))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank))
        if tag == TAG_BYTES:
            if rank != 1:
                raise CorruptFile(f"{path}: byte record {name!r} with rank {rank}")
            records.append((name, take(dims[0])))
        elif tag == TAG_F64:
            arr = np.frombuffer(take(math.prod(dims) * 8), dtype="<f8")
            records.append((name, arr.reshape(dims).copy()))
        else:
            raise CorruptFile(f"{path}: unknown dtype tag {tag} in record {name!r}")
    if pos != end:
        raise CorruptFile(f"{path}: {end - pos} trailing bytes")
    return records


def encode_string_list(items: list[str]) -> bytes:
    for s in items:
        if "\n" in s:
            raise CheckpointError("string list entries must not contain newlines")
    return "\n".join(items).encode("utf-8")


def decode_string_list(blob: bytes) -> list[str]:
    if blob == b"":
        return []
    return blob.decode("utf-8").split("\n")
