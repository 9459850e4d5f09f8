"""A minimal HTTP/1.1 wire implementation, both ends of it.

The gateway deliberately avoids third-party web frameworks (the repo's
only runtime dependency is numpy), so this module implements exactly the
slice of HTTP/1.1 the serving edge needs: start-line + header parsing,
``Content-Length`` bodies (a ``Transfer-Encoding`` body is refused:
answered 501 by the server), keep-alive connection reuse, and JSON
serialization.  Each message is rendered as one buffer, so it leaves in
one write, and both ends frame a message head with one parser
(``_frame``): the server reads requests off asyncio streams
(:func:`read_request`, :mod:`repro.gateway.server`), the blocking pooled
client (:mod:`repro.gateway.client`) reads responses off its sockets
(:func:`read_response`).  ``tests/gateway/test_http.py`` round-trips
:func:`render_response` through both that reader and stdlib
``http.client``, the independent oracle.

Limits are explicit and conservative: header block and body sizes are
bounded (an edge box fronting an LLM should never buffer megabytes of
headers), and any malformed input raises :class:`HTTPError` with the
status the peer should see — never a raw traceback.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field

__all__ = ["HTTPError", "HTTPRequest", "HTTPResponse", "read_request",
           "read_response", "render_request", "render_response",
           "STATUS_REASONS"]

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
    ``Retry-After`` header (the 429 backpressure contract).  Raised by
    :func:`read_response`, the status is moot: the client treats it as a
    transport failure.
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
        """Whether the connection stays open after this request."""
        return _keep_alive(self.version, self.headers)

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


@dataclass
class HTTPResponse:
    """One parsed response: status, lowered headers, raw body and the
    protocol version of its status line."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection may carry the next request."""
        return _keep_alive(self.version, self.headers)

    @property
    def retry_after(self) -> float | None:
        """The ``Retry-After`` hint in seconds (never negative), or None
        when it is absent or not a number."""
        value = self.headers.get("retry-after")
        if value is None:
            return None
        try:
            return max(0.0, float(value))
        except ValueError:
            return None


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    """``Connection`` is a comma-separated token list, compared without
    case: ``close`` ends the connection; otherwise HTTP/1.1 keeps it and
    HTTP/1.0 keeps it only for ``keep-alive``."""
    tokens = {token.strip().lower()
              for token in headers.get("connection", "").split(",")}
    if "close" in tokens:
        return False
    return version != "HTTP/1.0" or "keep-alive" in tokens


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


def _frame(head: bytes) -> tuple[bytes, dict[str, str], int]:
    """A message head (without its blank line) as its start line, its
    headers and the length of the body that follows: the one parser of
    both ends."""
    lines = head.split(b"\r\n")
    headers = _parse_headers([line for line in lines[1:] if line])
    if "transfer-encoding" in headers:
        # Read as a bodiless message, its chunks would parse as the next
        # one; the server closes the connection after an HTTPError.
        raise HTTPError(501, "Transfer-Encoding is not supported; "
                             "send a Content-Length body")
    return lines[0], headers, _content_length(headers)


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
    request_line, headers, length = _frame(head)
    parts = request_line.split()
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {request_line[:60]!r}")
    method, target, version = parts
    if not version.startswith(b"HTTP/1."):
        raise HTTPError(400, f"unsupported protocol {version[:20]!r}")
    path, _, query = target.decode("latin-1").partition("?")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "connection closed mid-body") from None
    return HTTPRequest(method=method.decode("latin-1").upper(), path=path,
                       query=query, headers=headers, body=body,
                       version=version.decode("latin-1"))


def read_response(sock: socket.socket) -> HTTPResponse:
    """Read one response off a blocking socket (the client's half).

    The head is framed by the parser requests go through; the body is
    exactly ``Content-Length`` bytes.  A peer that closes before the
    response is whole, a malformed status line or head, and bytes past
    the body (nothing was asked for them) raise :class:`HTTPError`; a
    socket timeout raises ``TimeoutError``.
    """
    data = bytearray()
    end = -1
    while end < 0:
        if len(data) > MAX_HEADER_BYTES:
            raise HTTPError(413, "response header block too large")
        chunk = sock.recv(MAX_HEADER_BYTES)
        if not chunk:
            raise HTTPError(400, "connection closed mid-response" if data
                            else "connection closed before the response")
        # The blank line may straddle the last chunk and this one.
        start = max(0, len(data) - 3)
        data += chunk
        end = data.find(b"\r\n\r\n", start)
    if end > MAX_HEADER_BYTES:
        raise HTTPError(413, "response header block too large")
    status_line, headers, length = _frame(bytes(data[:end]))
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") \
            or len(parts[1]) != 3 or not parts[1].isdigit():
        raise HTTPError(400, f"malformed status line: {status_line[:60]!r}")
    missing = end + 4 + length - len(data)
    while missing > 0:
        chunk = sock.recv(missing)
        if not chunk:
            raise HTTPError(400, "connection closed mid-body")
        data += chunk
        missing -= len(chunk)
    if missing < 0:
        raise HTTPError(400, f"{-missing} unsolicited bytes past the "
                             f"response body")
    return HTTPResponse(status=int(parts[1]), headers=headers,
                        body=bytes(data[end + 4:]),
                        version=parts[0].decode("latin-1"))


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
