"""A minimal HTTP/1.1 wire implementation over asyncio streams.

The gateway deliberately avoids third-party web frameworks (the repo's
only runtime dependency is numpy), so this module implements exactly the
slice of HTTP/1.1 the serving edge needs: request-line + header parsing,
``Content-Length`` bodies (a ``Transfer-Encoding`` body is answered
501), keep-alive connection reuse, and JSON response serialization.
This is the server's half of the wire (:mod:`repro.gateway.server`);
the blocking pooled client (:mod:`repro.gateway.client`) parses
responses with stdlib ``http.client``, so ``tests/gateway/test_http.py``
round-trips :func:`render_response` through that parser.

Limits are explicit and conservative: header block and body sizes are
bounded (an edge box fronting an LLM should never buffer megabytes of
headers), and any malformed input raises :class:`HTTPError` with the
status the peer should see — never a raw traceback.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

__all__ = ["HTTPError", "HTTPRequest", "read_request", "render_request",
           "render_response", "STATUS_REASONS"]

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(Exception):
    """A protocol-level failure carrying the HTTP status to answer with.

    ``field`` names the offending request field for validation failures
    (the structured-400 contract); ``retry_after`` becomes a
    ``Retry-After`` header (the 429 backpressure contract).
    """

    def __init__(self, status: int, message: str, *,
                 field: str | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.field = field
        self.retry_after = retry_after

    def body(self) -> dict:
        payload = {"error": self.message, "status": self.status}
        if self.field is not None:
            payload["field"] = self.field
        return payload


@dataclass
class HTTPRequest:
    """One parsed request: method, split path, lowered headers, raw body
    and the protocol version of its request line."""

    method: str
    path: str
    query: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection stays open after this request.

        ``Connection`` is a comma-separated token list, compared without
        case: ``close`` ends the connection; otherwise HTTP/1.1 keeps it
        and HTTP/1.0 keeps it only for ``keep-alive``.
        """
        tokens = {token.strip().lower()
                  for token in self.headers.get("connection", "").split(",")}
        if "close" in tokens:
            return False
        return self.version != "HTTP/1.0" or "keep-alive" in tokens

    def json(self) -> dict:
        """The body decoded as a JSON object; HTTP 400 on anything else."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object",
                            field="body")
        try:
            payload = json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise HTTPError(400, f"malformed JSON body: {error}",
                            field="body") from None
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object",
                            field="body")
        return payload


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _parse_headers(lines: list[bytes]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(b":")
        if not sep or not name.strip():
            raise HTTPError(400, f"malformed header line: {line[:60]!r}")
        key = name.strip().decode("latin-1").lower()
        value = value.strip().decode("latin-1")
        # Two framings of one body: which would the next hop believe?
        if key == "content-length" and headers.get(key, value) != value:
            raise HTTPError(400, "conflicting Content-Length headers")
        headers[key] = value
    return headers


def _split_head(head: bytes) -> tuple[bytes, list[bytes]]:
    lines = head.split(b"\r\n")
    return lines[0], [line for line in lines[1:] if line]


def _content_length(headers: dict[str, str]) -> int:
    value = headers.get("content-length", "0")
    # ASCII digits only: int() would also take "+5", " 5" and "1_0".
    if not (value.isascii() and value.isdigit()):
        raise HTTPError(400, f"invalid Content-Length: {value!r}")
    # Compared as digits first: int() raises ValueError past 4300 digits.
    digits = value.lstrip("0") or "0"
    if (len(digits) > len(str(MAX_BODY_BYTES))
            or int(digits) > MAX_BODY_BYTES):
        raise HTTPError(413, f"body of {digits[:20]} bytes exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit")
    return int(digits)


async def _read_head(reader: asyncio.StreamReader) -> bytes | None:
    """The request line + headers, or None on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None   # peer closed between requests: normal keep-alive
        raise HTTPError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise HTTPError(413, "header block too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPError(413, "header block too large")
    return head[:-4]


async def read_request(reader: asyncio.StreamReader) -> HTTPRequest | None:
    """Parse one request off the stream; None when the peer closed."""
    head = await _read_head(reader)
    if head is None:
        return None
    request_line, header_lines = _split_head(head)
    parts = request_line.split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line[:60]!r}")
    method, target, version = parts
    if not version.startswith(b"HTTP/1."):
        raise HTTPError(400, f"unsupported protocol {version[:20]!r}")
    path, _, query = target.decode("latin-1").partition("?")
    headers = _parse_headers(header_lines)
    if "transfer-encoding" in headers:
        # Read as a bodiless request, its chunks would parse as the next
        # request; the server closes the connection after an HTTPError.
        raise HTTPError(501, "Transfer-Encoding is not supported; "
                             "send a Content-Length body")
    body = b""
    length = _content_length(headers)
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "connection closed mid-body") from None
    return HTTPRequest(method=method.decode("latin-1").upper(), path=path,
                       query=query, headers=headers, body=body,
                       version=version.decode("latin-1"))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_response(status: int, payload: dict | bytes, *,
                    keep_alive: bool = True,
                    extra_headers: dict[str, str] | None = None) -> bytes:
    """Serialize one response; dict payloads become JSON."""
    if isinstance(payload, dict):
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    else:
        body = payload
        content_type = "application/octet-stream"
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def render_request(method: str, path: str, payload: dict | None = None, *,
                   host: str = "localhost",
                   keep_alive: bool = True) -> bytes:
    """Serialize one request; a dict payload becomes a JSON body."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    lines = [f"{method.upper()} {path} HTTP/1.1",
             f"Host: {host}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    if body:
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
