"""Reference snapshot codec: the walk that checks one type at a time.

What :mod:`repro.serve.codec` was before its walk dispatched on the exact
type of a value (encoding) and on the tag byte as an int (decoding): the
encoder runs its ``isinstance`` chain for every value and every dict
key; the decoder slices every tag, length and payload out through one
bounds-checked helper call each and compares the tag as ``bytes``.  It
pays per node, which is why production no longer does it — and it is the
plainest statement of the format and of what a blob may hold, which is
why it stays here: production must write these bytes for every value,
and must decode exactly the blobs this decodes, to equal values,
refusing the others with :class:`CodecError`.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np

from repro.serve.codec import CodecError

__all__ = ["encode_reference", "decode_reference"]

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


def encode_reference(value) -> bytes:
    """Canonical bytes of ``value``, one ``isinstance`` chain a node."""
    parts: list = []
    _encode_into(parts, value)
    return b"".join(parts)


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


def decode_reference(blob) -> object:
    """Inverse of :func:`encode_reference`; rejects trailing garbage.

    Arrays in the result are read-only views over ``blob``.
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
