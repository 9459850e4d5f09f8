"""Reference snapshot encoder: the straightforward ``bytearray`` version.

What :func:`repro.serve.codec.encode_value` was before it became a
one-copy join of buffers: every piece is appended to one growing
``bytearray`` and arrays go through ``tobytes()``.  It copies the body
several times, which is why production no longer does it — and it is
the simplest statement of the format, which is why it stays here: the
production encoder must produce these bytes for every value.
"""

import struct

import numpy as np

_LEN = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _encode_into(out: bytearray, value) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, (bool, np.bool_)):
        out += b"T" if value else b"F"
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        width = (value.bit_length() + 8) // 8 or 1
        out += b"i"
        out += bytes([width])
        out += value.to_bytes(width, "little", signed=True)
    elif isinstance(value, (float, np.floating)):
        out += b"f"
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out += b"s"
        out += _LEN.pack(len(payload))
        out += payload
    elif isinstance(value, (bytes, bytearray)):
        out += b"b"
        out += _LEN.pack(len(value))
        out += bytes(value)
    elif isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d; reshape preserves rank.
        data = np.ascontiguousarray(value).reshape(value.shape)
        dtype = data.dtype.str.encode("ascii")
        out += b"a"
        out += bytes([len(dtype)])
        out += dtype
        out += bytes([data.ndim])
        for dim in data.shape:
            out += _LEN.pack(dim)
        raw = data.tobytes()
        out += _LEN.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out += b"l"
        out += _LEN.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out += b"d"
        out += _LEN.pack(len(value))
        for key in sorted(value):
            _encode_into(out, key)
            _encode_into(out, value[key])
    else:
        raise TypeError(f"cannot encode {type(value).__name__}")


def encode_reference(value) -> bytes:
    """Canonical bytes of ``value``, built the slow obvious way."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)
