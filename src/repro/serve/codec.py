"""Stdlib-only binary codec for session snapshots.

A tiny tagged-value serialization used by :mod:`repro.serve.snapshot`:
values are encoded as a one-byte tag followed by a fixed- or
length-prefixed payload, recursing through lists and dicts.  The format
is deliberately minimal — exactly the shapes a
:class:`~repro.serve.snapshot.SessionSnapshot` needs — and *canonical*:
dict keys are sorted, integers use their minimal two's-complement width,
and arrays serialize their raw C-contiguous bytes, so encoding the same
value always produces the same blob (the golden-fixture tests pin this).

Supported values: ``None``, ``bool``, ``int`` (arbitrary precision,
minimal width: the codec is a general value format, not one sized to
what a snapshot holds today), ``float``, ``str``, ``bytes``, ``list``/``tuple``
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

The walk pays per byte, not per node.  The encoder dispatches on the
exact type of a value — ``str``, ``dict``, ``int``, ``float``,
``ndarray``, ``list`` — and writes a dict's ``str`` keys inline; any
other value (``bool``, numpy scalars, ``tuple``, ``bytes``, subclasses)
takes the ``isinstance`` checks, ``bool`` before ``int``.  The decoder
reads the tag byte as an int, each length with one ``unpack_from`` after
one bounds check and an array's shape and length with one more; dtype
strings are validated once per distinct string.  The walk that checked
one type and sliced one helper call at a time lives on as
``tests/oracles/codec.py``: this one writes its bytes and decodes
exactly what it decodes.
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
# The same tags as the ints a memoryview of the blob yields.
(_NONE, _TRUE, _FALSE, _INT, _FLOAT, _STR, _BYTES, _LIST, _DICT,
 _ARRAY) = b"NTFifsblda"

_LEN = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_TRUNCATED = "truncated snapshot blob"

# Array dtypes a snapshot may carry.  Object/str arrays are rejected so a
# decoded blob can never smuggle arbitrary Python objects.
_ARRAY_KINDS = frozenset("biuf")
# The dtype strings the encoder writes (``dtype.str`` of those kinds):
# a decoded one is matched against this before numpy parses it.
_DTYPE_STR = re.compile(rb"[<>|][biuf][0-9]{1,2}")
# Validated dtype strings and what they name; only strings that passed
# both checks get in, so a hostile blob cannot grow it past that set.
_DTYPES: dict[bytes, np.dtype] = {}
# An array's tag, dtype-string width and dtype string, per dtype.
_ARRAY_HEADS: dict[np.dtype, bytes] = {}


def _array_head(dtype: np.dtype) -> bytes:
    head = _ARRAY_HEADS.get(dtype)
    if head is None:
        if dtype.kind not in _ARRAY_KINDS:
            raise CodecError(
                f"cannot encode array of dtype {dtype} "
                f"(only bool/int/uint/float arrays are snapshot-safe)")
        name = dtype.str.encode("ascii")
        head = _ARRAY_HEADS[dtype] = _TAG_ARRAY + bytes([len(name)]) + name
    return head


def _encode_array(parts: list, value: np.ndarray) -> None:
    head = _array_head(value.dtype)
    if not value.flags.c_contiguous:
        # ascontiguousarray promotes 0-d to 1-d; reshape preserves rank.
        value = np.ascontiguousarray(value).reshape(value.shape)
    ndim = value.ndim
    # The payload is the array's own memory, viewed as bytes: the join in
    # encode_value() is the only time it is copied.
    parts += (head, struct.pack(f"<B{ndim + 1}Q", ndim, *value.shape,
                                value.nbytes),
              value.reshape(-1).view(np.uint8))


def _encode_dict(parts: list, value: dict) -> None:
    try:
        keys = sorted(value)
    except TypeError:       # keys of types that do not order together
        raise CodecError("dict keys must be strings") from None
    parts += (_TAG_DICT, _LEN.pack(len(value)))
    for key in keys:
        if type(key) is str:
            payload = key.encode("utf-8")
            parts += (_TAG_STR, _LEN.pack(len(payload)), payload)
        elif isinstance(key, str):
            _encode_other(parts, key)
        else:
            raise CodecError("dict keys must be strings")
        _encode_into(parts, value[key])


def _encode_into(parts: list, value) -> None:
    kind = type(value)
    if kind is str:
        payload = value.encode("utf-8")
        parts += (_TAG_STR, _LEN.pack(len(payload)), payload)
    elif kind is dict:
        _encode_dict(parts, value)
    elif kind is int:
        width = (value.bit_length() + 8) // 8
        parts += (_TAG_INT, bytes([width]),
                  value.to_bytes(width, "little", signed=True))
    elif kind is float:
        parts += (_TAG_FLOAT, _F64.pack(value))
    elif kind is np.ndarray:
        _encode_array(parts, value)
    elif kind is list:
        parts += (_TAG_LIST, _LEN.pack(len(value)))
        for item in value:
            _encode_into(parts, item)
    else:
        _encode_other(parts, value)


def _encode_other(parts: list, value) -> None:
    """Every value not of one exact type :func:`_encode_into` codes."""
    if value is None:
        parts.append(_TAG_NONE)
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        parts.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, (int, np.integer)):
        _encode_into(parts, int(value))
    elif isinstance(value, (float, np.floating)):
        _encode_into(parts, float(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        parts += (_TAG_STR, _LEN.pack(len(payload)), payload)
    elif isinstance(value, (bytes, bytearray)):
        parts += (_TAG_BYTES, _LEN.pack(len(value)), bytes(value))
    elif isinstance(value, np.ndarray):
        _encode_array(parts, value)
    elif isinstance(value, (list, tuple)):
        _encode_into(parts, list(value))
    elif isinstance(value, dict):
        _encode_dict(parts, value)
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


def _text(payload: memoryview) -> str:
    try:
        return str(payload, "utf-8")
    except UnicodeDecodeError as error:
        raise CodecError(f"string is not UTF-8: {error}") from error


def _dtype(raw: bytes) -> np.dtype:
    """The dtype a dtype string names, validated, and memoized so the
    checks run once per distinct string."""
    if _DTYPE_STR.fullmatch(raw) is None:
        raise CodecError(f"refusing to decode array of dtype {raw!r}")
    try:
        dtype = np.dtype(raw.decode("ascii"))
    except TypeError as error:
        raise CodecError(f"unknown array dtype {raw!r}") from error
    _DTYPES[raw] = dtype
    return dtype


def _decode_at(view: memoryview, offset: int) -> tuple[object, int]:
    end = len(view)
    if offset >= end:
        raise CodecError(_TRUNCATED)
    tag = view[offset]
    offset += 1
    if tag == _DICT:
        if offset + 8 > end:
            raise CodecError(_TRUNCATED)
        (count,) = _LEN.unpack_from(view, offset)
        offset += 8
        result = {}
        for _ in range(count):
            # A key is a string value, read here rather than by a call.
            if offset + 9 > end:
                raise CodecError(_TRUNCATED)
            if view[offset] != _STR:
                raise CodecError("dict keys must decode to strings")
            (length,) = _LEN.unpack_from(view, offset + 1)
            start = offset + 9
            offset = start + length
            if offset > end:
                raise CodecError(_TRUNCATED)
            try:
                key = str(view[start:offset], "utf-8")
            except UnicodeDecodeError as error:
                raise CodecError(f"string is not UTF-8: {error}") from error
            result[key], offset = _decode_at(view, offset)
        return result, offset
    if tag == _STR or tag == _BYTES:
        if offset + 8 > end:
            raise CodecError(_TRUNCATED)
        (length,) = _LEN.unpack_from(view, offset)
        start = offset + 8
        offset = start + length
        if offset > end:
            raise CodecError(_TRUNCATED)
        payload = view[start:offset]
        return (_text(payload) if tag == _STR else bytes(payload)), offset
    if tag == _INT:
        if offset >= end:
            raise CodecError(_TRUNCATED)
        start = offset + 1
        offset = start + view[offset]
        if offset > end:
            raise CodecError(_TRUNCATED)
        return int.from_bytes(view[start:offset], "little",
                              signed=True), offset
    if tag == _FLOAT:
        if offset + 8 > end:
            raise CodecError(_TRUNCATED)
        return _F64.unpack_from(view, offset)[0], offset + 8
    if tag == _ARRAY:
        if offset >= end:
            raise CodecError(_TRUNCATED)
        start = offset + 1
        offset = start + view[offset]
        if offset >= end:               # the dtype string, then ndim
            raise CodecError(_TRUNCATED)
        raw = bytes(view[start:offset])
        dtype = _DTYPES.get(raw)
        if dtype is None:
            dtype = _dtype(raw)
        ndim = view[offset]
        start = offset + 1
        offset = start + 8 * (ndim + 1)
        if offset > end:
            raise CodecError(_TRUNCATED)
        *shape, length = struct.unpack_from(f"<{ndim + 1}Q", view, start)
        start = offset
        offset += length
        if offset > end:
            raise CodecError(_TRUNCATED)
        if length != math.prod(shape) * dtype.itemsize:
            raise CodecError("array payload does not match its shape")
        # A view over the blob (read-only: the memoryview is), not a copy.
        try:
            return np.frombuffer(view[start:offset],
                                 dtype=dtype).reshape(shape), offset
        except ValueError as error:     # numpy's rank or size limits
            raise CodecError(f"array shape {shape}: {error}") from error
    if tag == _LIST:
        if offset + 8 > end:
            raise CodecError(_TRUNCATED)
        (count,) = _LEN.unpack_from(view, offset)
        offset += 8
        items = []
        for _ in range(count):
            item, offset = _decode_at(view, offset)
            items.append(item)
        return items, offset
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    raise CodecError(f"unknown tag {bytes([tag])!r} at offset {offset - 1}")


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
