"""Damage a session blob's body and still pass its checksum.

A changed byte anywhere in a blob fails its CRC32 in
``SessionSnapshot.from_bytes``.  Tests that need damage to reach the
decoder or ``build_session`` change the body (``blob[HEADER_SIZE:]``)
and re-seal it with :func:`sealed`.
"""

import zlib

from repro.serve.snapshot import HEADER, MAGIC, SCHEMA_VERSION


def sealed(body: bytes) -> bytes:
    """``body`` behind this schema's header, its CRC32 recomputed."""
    return MAGIC + HEADER.pack(SCHEMA_VERSION, zlib.crc32(body)) + body
