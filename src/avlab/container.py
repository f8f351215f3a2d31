"""Binary tensor container (AVTC).

A container file stores a set of named float32 tensors plus string
metadata.  Layout, all multi-byte integers little-endian:

    bytes 0..7    magic ``AVTC0001``
    bytes 8..15   u64 header length ``n``
    bytes 16..16+n-1  UTF-8 JSON header
    remainder     concatenated raw ``<f4`` payloads, C order,
                  in header order

Header schema::

    {"tensors": [{"name": str, "dtype": "f32", "shape": [int, ...]}, ...],
     "meta": {str: str, ...}}

Round trips are bit-exact: ``read_container(write_container(...))``
returns the same bytes for every float32 payload, including non-finite
values.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ContainerFormatError

MAGIC = b"AVTC0001"
_HEADER_LEN_BYTES = 8


def write_container(path, tensors: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    """Write named float32 tensors and string metadata to ``path``."""
    meta = dict(meta or {})
    for k, v in meta.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise ValueError(f"meta entries must be str -> str, got {k!r}: {v!r}")

    entries = []
    payloads = []
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {name!r} must be float32, got {arr.dtype}")
        if any(s <= 0 for s in arr.shape):
            raise ValueError(f"tensor {name!r} has a non-positive dimension: {arr.shape}")
        entries.append({"name": name, "dtype": "f32", "shape": list(arr.shape)})
        payloads.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    header = json.dumps({"tensors": entries, "meta": meta}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(_HEADER_LEN_BYTES, "little"))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def read_container(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a container written by :func:`write_container`.

    Raises :class:`ContainerFormatError` (its message prefixed with
    ``path``, with a byte offset) on bad magic, a truncated file, a header
    that breaks the header schema, a payload whose size disagrees with the
    declared shapes, or a shape numpy cannot build.
    """
    try:
        return _parse(Path(path).read_bytes())
    except ContainerFormatError as exc:
        raise ContainerFormatError(f"{path}: {exc.message}", exc.offset) from None


def _parse(raw: bytes) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise ContainerFormatError(f"bad magic, expected {MAGIC!r}", 0)
    pos = len(MAGIC)
    if len(raw) < pos + _HEADER_LEN_BYTES:
        raise ContainerFormatError("truncated header length field", pos)
    header_len = int.from_bytes(raw[pos : pos + _HEADER_LEN_BYTES], "little")
    pos += _HEADER_LEN_BYTES
    if len(raw) < pos + header_len:
        raise ContainerFormatError(f"truncated header, declared {header_len} bytes", pos)
    try:
        header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerFormatError(f"unparseable header: {exc}", pos) from exc
    _check_header(header, pos)
    pos += header_len

    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, dtype, shape = entry["name"], entry["dtype"], tuple(entry["shape"])
        if dtype != "f32":
            raise ContainerFormatError(f"tensor {name!r}: unsupported dtype {dtype!r}", pos)
        if name in tensors:
            raise ContainerFormatError(f"duplicate tensor name {name!r}", pos)
        nbytes = 4 * math.prod(shape)
        if len(raw) < pos + nbytes:
            raise ContainerFormatError(
                f"truncated payload for tensor {name!r}, need {nbytes} bytes", pos
            )
        flat = np.frombuffer(raw[pos : pos + nbytes], dtype="<f4")
        try:
            tensors[name] = flat.reshape(shape).astype(np.float32, copy=True)
        except ValueError as exc:  # more dims than numpy allows, or an empty shape too big to index
            raise ContainerFormatError(f"tensor {name!r}: numpy cannot build shape: {exc}", pos) from exc
        pos += nbytes
    if pos != len(raw):
        raise ContainerFormatError(f"{len(raw) - pos} trailing bytes after last payload", pos)
    return tensors, dict(header["meta"])


def _check_header(header, offset: int) -> None:
    """Raise :class:`ContainerFormatError` at ``offset`` unless ``header``
    follows the header schema."""
    if not isinstance(header, dict) or "tensors" not in header or "meta" not in header:
        raise ContainerFormatError("header missing 'tensors'/'meta' keys", offset)
    if not isinstance(header["tensors"], list):
        raise ContainerFormatError("header 'tensors' must be a list", offset)
    for k, entry in enumerate(header["tensors"]):
        if not isinstance(entry, dict) or not {"name", "dtype", "shape"} <= entry.keys():
            raise ContainerFormatError(f"tensor entry {k} needs the keys name, dtype and shape", offset)
        shape = entry["shape"]
        if not isinstance(entry["name"], str):
            raise ContainerFormatError(f"tensor entry {k}: name must be a string", offset)
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ContainerFormatError(f"tensor entry {k}: shape must list non-negative ints", offset)
    meta = header["meta"]
    if not isinstance(meta, dict) or not all(isinstance(v, str) for v in meta.values()):
        raise ContainerFormatError("header 'meta' must map strings to strings", offset)
