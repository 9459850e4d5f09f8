"""Stdlib-only binary codec for session snapshots.

A tiny tagged-value serialization used by :mod:`repro.serve.snapshot`:
values are encoded as a one-byte tag followed by a fixed- or
length-prefixed payload, recursing through lists and dicts.  The format
is deliberately minimal — exactly the shapes a
:class:`~repro.serve.snapshot.SessionSnapshot` needs — and *canonical*:
dict keys are sorted, integers use their minimal two's-complement width,
and arrays serialize their raw C-contiguous bytes, so encoding the same
value always produces the same blob (the golden-fixture tests pin this).

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision:
blobs of builds before packed generator states carry 128-bit PCG64
states as ints), ``float``, ``str``, ``bytes``, ``list``/``tuple``
(decoded as ``list``), ``dict`` with ``str`` keys, and numeric/bool
``numpy.ndarray``.  ``pickle`` is deliberately not involved: decoding a
snapshot never executes anything, and a blob that does not decode —
truncated, bit-flipped, hostile — raises :class:`CodecError` and nothing
else.

Each byte moves once.  The encoder collects the pieces of the encoding —
an array contributes a view of its own memory — and joins them in one
pass; the decoder walks a ``memoryview`` of the blob and **returns every
array as a read-only view over the blob's bytes** (possibly unaligned):
nothing is copied, and the arrays keep the blob alive.  Copy what you
keep — ``np.array(value, dtype=...)`` makes the one owned, writeable,
aligned copy — so restored state never aliases, or pins, its blob.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

__all__ = ["encode_value", "encode_parts", "decode_value", "CodecError"]


class CodecError(ValueError):
    """Raised when a value cannot be encoded or a blob cannot be decoded."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"

_LEN = struct.Struct("<Q")
_F64 = struct.Struct("<d")

# Array dtypes a snapshot may carry.  Object/str arrays are rejected so a
# decoded blob can never smuggle arbitrary Python objects.
_ARRAY_KINDS = frozenset("biuf")
# The dtype strings the encoder writes (``dtype.str`` of those kinds):
# a decoded one is matched against this before numpy parses it.
_DTYPE_STR = re.compile(rb"[<>|][biuf][0-9]{1,2}")


def _encode_into(parts: list, value) -> None:
    if value is None:
        parts.append(_TAG_NONE)
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        parts.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        width = (value.bit_length() + 8) // 8 or 1
        parts += (_TAG_INT, bytes([width]),
                  value.to_bytes(width, "little", signed=True))
    elif isinstance(value, (float, np.floating)):
        parts += (_TAG_FLOAT, _F64.pack(float(value)))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        parts += (_TAG_STR, _LEN.pack(len(payload)), payload)
    elif isinstance(value, (bytes, bytearray)):
        parts += (_TAG_BYTES, _LEN.pack(len(value)), bytes(value))
    elif isinstance(value, np.ndarray):
        if value.dtype.kind not in _ARRAY_KINDS:
            raise CodecError(
                f"cannot encode array of dtype {value.dtype} "
                f"(only bool/int/uint/float arrays are snapshot-safe)")
        # ascontiguousarray promotes 0-d to 1-d; reshape preserves rank.
        data = np.ascontiguousarray(value).reshape(value.shape)
        dtype = data.dtype.str.encode("ascii")
        parts += (_TAG_ARRAY, bytes([len(dtype)]), dtype, bytes([data.ndim]))
        parts += [_LEN.pack(dim) for dim in data.shape]
        # The payload is the array's own memory, viewed as bytes: the
        # join in encode_value() is the only time it is copied.
        parts += (_LEN.pack(data.nbytes), data.reshape(-1).view(np.uint8))
    elif isinstance(value, (list, tuple)):
        parts += (_TAG_LIST, _LEN.pack(len(value)))
        for item in value:
            _encode_into(parts, item)
    elif isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            raise CodecError("dict keys must be strings")
        parts += (_TAG_DICT, _LEN.pack(len(value)))
        for key in sorted(value):
            _encode_into(parts, key)
            _encode_into(parts, value[key])
    else:
        raise CodecError(
            f"cannot encode value of type {type(value).__name__}")


def encode_parts(value) -> list:
    """The canonical encoding as a list of buffers, in order.

    ``b"".join(encode_parts(value))`` is :func:`encode_value`; a caller
    that frames the encoding (a header in front) joins its own pieces
    with these so the body is still copied only once.
    """
    parts: list = []
    _encode_into(parts, value)
    return parts


def encode_value(value) -> bytes:
    """Serialize ``value`` to its canonical binary form."""
    return b"".join(encode_parts(value))


def _take(view: memoryview, offset: int,
          count: int) -> tuple[memoryview, int]:
    end = offset + count
    if end > len(view):
        raise CodecError("truncated snapshot blob")
    return view[offset:end], end


def _take_length(view: memoryview, offset: int) -> tuple[int, int]:
    raw, offset = _take(view, offset, _LEN.size)
    return _LEN.unpack(raw)[0], offset


def _text(payload: memoryview) -> str:
    try:
        return str(payload, "utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not UTF-8: {error}") from error


def _dtype(raw: memoryview) -> np.dtype:
    if _DTYPE_STR.fullmatch(raw) is None:
        raise CodecError(f"refusing to decode array of dtype {bytes(raw)!r}")
    try:
        return np.dtype(str(raw, "ascii"))
    except TypeError as error:
        raise CodecError(f"unknown array dtype {bytes(raw)!r}") from error


def _decode_at(view: memoryview, offset: int) -> tuple[object, int]:
    raw, offset = _take(view, offset, 1)
    tag = bytes(raw)
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        width, offset = _take(view, offset, 1)
        payload, offset = _take(view, offset, width[0])
        return int.from_bytes(payload, "little", signed=True), offset
    if tag == _TAG_FLOAT:
        payload, offset = _take(view, offset, _F64.size)
        return _F64.unpack(payload)[0], offset
    if tag == _TAG_STR:
        length, offset = _take_length(view, offset)
        payload, offset = _take(view, offset, length)
        return _text(payload), offset
    if tag == _TAG_BYTES:
        length, offset = _take_length(view, offset)
        payload, offset = _take(view, offset, length)
        return bytes(payload), offset
    if tag == _TAG_ARRAY:
        width, offset = _take(view, offset, 1)
        dtype_str, offset = _take(view, offset, width[0])
        dtype = _dtype(dtype_str)
        ndim, offset = _take(view, offset, 1)
        shape = []
        for _ in range(ndim[0]):
            dim, offset = _take_length(view, offset)
            shape.append(dim)
        length, offset = _take_length(view, offset)
        payload, offset = _take(view, offset, length)
        if length != math.prod(shape) * dtype.itemsize:
            raise CodecError("array payload does not match its shape")
        # A view over the blob (read-only: the memoryview is), not a copy.
        try:
            return np.frombuffer(payload, dtype=dtype).reshape(shape), offset
        except ValueError as error:     # numpy's rank or size limits
            raise CodecError(f"array shape {shape}: {error}") from error
    if tag == _TAG_LIST:
        count, offset = _take_length(view, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_at(view, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        count, offset = _take_length(view, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode_at(view, offset)
            if not isinstance(key, str):
                raise CodecError("dict keys must decode to strings")
            value, offset = _decode_at(view, offset)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown tag {tag!r} at offset {offset - 1}")


def decode_value(blob) -> object:
    """Inverse of :func:`encode_value`; rejects trailing garbage.

    ``blob`` is any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``).  Arrays in the result are read-only views over it.
    """
    view = memoryview(blob).toreadonly().cast("B")
    try:
        value, offset = _decode_at(view, 0)
    except RecursionError as error:
        raise CodecError("snapshot blob nests too deeply") from error
    if offset != len(view):
        raise CodecError(
            f"{len(view) - offset} trailing bytes after the encoded value")
    return value
