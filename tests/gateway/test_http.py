"""Unit tests for the minimal HTTP/1.1 wire layer.

The contract under test is the round-trip: whatever ``render_request``
emits, ``read_request`` must parse back exactly, and whatever
``render_response`` emits, ``read_response`` — the reader
``GatewayClient`` parses responses with — must too, and so must stdlib
``http.client``, the independent oracle of the rendering; every
malformed request or response must surface as an :class:`HTTPError`
(a malformed request with the right status), never a raw exception.
"""

import asyncio
import contextlib
import http.client
import io
import json
import socket
import threading

import pytest

from repro.gateway.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HTTPError,
    HTTPRequest,
    read_request,
    read_response,
    render_request,
    render_response,
)


def run_parser(parser, data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await parser(reader)
    return asyncio.run(go())


def parse_request(data: bytes):
    return run_parser(read_request, data)


class _Wire:
    """What ``http.client.HTTPResponse`` needs of a socket."""

    def __init__(self, data: bytes):
        self._data = data

    def makefile(self, *_args, **_kwargs):
        return io.BytesIO(self._data)


def parse_response(data: bytes) -> http.client.HTTPResponse:
    response = http.client.HTTPResponse(_Wire(data))
    response.begin()
    return response


def read_back(data: bytes, *, then_close: bool = True):
    """``data`` as the client's reader sees it arrive on a socket (the
    peer closes after sending it unless told not to)."""
    ours, peer = socket.socketpair()
    ours.settimeout(5.0)

    def send():
        with contextlib.suppress(OSError):   # the reader may give up first
            peer.sendall(data)
            if then_close:
                peer.shutdown(socket.SHUT_WR)

    sender = threading.Thread(target=send)
    sender.start()
    try:
        return read_response(ours)
    finally:
        ours.close()
        sender.join(timeout=5.0)
        peer.close()


class TestRequestRoundTrip:
    def test_json_body(self):
        wire = render_request("post", "/v1/query",
                              {"user_id": 3, "text": "hello"})
        request = parse_request(wire)
        assert request.method == "POST"
        assert request.path == "/v1/query"
        assert request.json() == {"user_id": 3, "text": "hello"}
        assert request.keep_alive

    def test_bodyless_get(self):
        request = parse_request(render_request("GET", "/healthz"))
        assert request.method == "GET"
        assert request.body == b""

    def test_connection_close(self):
        wire = render_request("GET", "/healthz", keep_alive=False)
        assert not parse_request(wire).keep_alive

    def test_query_string_split(self):
        request = parse_request(render_request("GET", "/v1/stats?full=1"))
        assert request.path == "/v1/stats"
        assert request.query == "full=1"

    def test_eof_between_requests_is_none(self):
        assert parse_request(b"") is None


class TestMalformedRequests:
    def test_bad_request_line(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"NONSENSE\r\n\r\n")
        assert info.value.status == 400

    def test_bad_protocol(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"GET / SPDY/9\r\n\r\n")
        assert info.value.status == 400

    def test_bad_header_line(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n")
        assert info.value.status == 400

    def test_bad_content_length(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n")
        assert info.value.status == 400

    def test_oversized_body_is_413(self):
        wire = (f"POST / HTTP/1.1\r\nContent-Length: "
                f"{MAX_BODY_BYTES + 1}\r\n\r\n").encode()
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 413

    def test_truncated_body(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab")
        assert info.value.status == 400

    def test_truncated_head(self):
        with pytest.raises(HTTPError) as info:
            parse_request(b"GET / HTT")
        assert info.value.status == 400


class TestFraming:
    """One body, one framing: anything the parser could read two ways
    is refused instead of guessed at."""

    def test_transfer_encoding_is_501(self):
        # Read as a bodiless request, "5\r\nhello..." would parse next.
        wire = (b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked"
                b"\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 501
        response = parse_response(render_response(
            501, info.value.body(), keep_alive=False))
        assert (response.status, response.reason) == (501, "Not Implemented")
        assert response.will_close

    def test_transfer_encoding_beside_content_length_is_501(self):
        wire = (b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                b"Transfer-Encoding: chunked\r\n\r\nhello")
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 501

    def test_conflicting_content_lengths_are_400(self):
        wire = (b"POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 5\r\n\r\nhello")
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 400
        assert "conflicting" in info.value.message

    def test_repeated_equal_content_length_is_one(self):
        wire = (b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
                b"content-length: 5\r\n\r\nhello")
        assert parse_request(wire).body == b"hello"

    @pytest.mark.parametrize("value", [b"+5", b"1_0", b"-0", b"5.0",
                                       b"0x5", b"\xb2", b""])
    def test_content_length_is_ascii_digits_only(self, value):
        wire = b"POST / HTTP/1.1\r\nContent-Length: " + value + \
            b"\r\n\r\nhello-----"
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 400

    def test_leading_zeros_are_digits(self):
        wire = b"POST / HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello"
        assert parse_request(wire).body == b"hello"
        # More digits than int() converts, still within the header limit.
        wire = (b"POST / HTTP/1.1\r\nContent-Length: " + b"0" * 5000
                + b"5\r\n\r\nhello")
        assert parse_request(wire).body == b"hello"

    @pytest.mark.parametrize("value", [b"9" * 5000, b"0" * 5000 + b"9" * 8])
    def test_a_length_too_long_for_int_is_too_large(self, value):
        wire = b"POST / HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
        with pytest.raises(HTTPError) as info:
            parse_request(wire)
        assert info.value.status == 413


class TestKeepAlive:
    @staticmethod
    def request(version: bytes, connection: bytes | None):
        header = (b"" if connection is None
                  else b"Connection: " + connection + b"\r\n")
        return parse_request(b"GET /healthz " + version + b"\r\n" + header
                             + b"\r\n")

    @pytest.mark.parametrize("connection", [b"close", b"Close", b"CLOSE",
                                            b"keep-alive, close",
                                            b"Upgrade ,  Close"])
    def test_close_token_in_any_case_closes(self, connection):
        assert not self.request(b"HTTP/1.1", connection).keep_alive
        assert not self.request(b"HTTP/1.0", connection).keep_alive

    @pytest.mark.parametrize("connection", [None, b"keep-alive",
                                            b"Keep-Alive", b"upgrade"])
    def test_http11_defaults_to_keep_alive(self, connection):
        request = self.request(b"HTTP/1.1", connection)
        assert request.version == "HTTP/1.1" and request.keep_alive

    @pytest.mark.parametrize("connection", [None, b"upgrade", b""])
    def test_http10_defaults_to_close(self, connection):
        request = self.request(b"HTTP/1.0", connection)
        assert request.version == "HTTP/1.0" and not request.keep_alive

    @pytest.mark.parametrize("connection", [b"keep-alive", b"Keep-Alive",
                                            b"foo, KEEP-ALIVE"])
    def test_http10_keeps_alive_on_request(self, connection):
        assert self.request(b"HTTP/1.0", connection).keep_alive


class TestJSONBody:
    def test_missing_body_is_400(self):
        request = HTTPRequest(method="POST", path="/v1/query")
        with pytest.raises(HTTPError) as info:
            request.json()
        assert info.value.status == 400
        assert info.value.field == "body"

    def test_malformed_json_is_400(self):
        request = HTTPRequest(method="POST", path="/", body=b"{nope")
        with pytest.raises(HTTPError) as info:
            request.json()
        assert info.value.status == 400

    def test_non_object_json_is_400(self):
        request = HTTPRequest(method="POST", path="/", body=b"[1, 2]")
        with pytest.raises(HTTPError):
            request.json()


class TestResponseRoundTrip:
    def test_json_payload(self):
        wire = render_response(200, {"answer": "ok"})
        response = parse_response(wire)
        assert response.status == 200
        assert json.loads(response.read()) == {"answer": "ok"}
        assert not response.will_close

    def test_retry_after_header(self):
        wire = render_response(429, {"error": "full"},
                               extra_headers={"Retry-After": "1.50"})
        response = parse_response(wire)
        assert response.status == 429
        assert float(response.getheader("Retry-After")) == pytest.approx(1.5)

    def test_no_retry_after(self):
        response = parse_response(render_response(200, {}))
        assert response.getheader("Retry-After") is None

    def test_close_flag(self):
        wire = render_response(400, {"error": "x"}, keep_alive=False)
        assert parse_response(wire).will_close

    def test_error_body_contract(self):
        error = HTTPError(400, "bad field", field="user_id")
        body = error.body()
        assert body == {"error": "bad field", "status": 400,
                        "field": "user_id"}


class TestResponseRoundTripThroughTheClientReader:
    """The same round-trips through ``read_response``, which frames a
    response head with the parser requests go through."""

    def test_json_payload(self):
        response = read_back(render_response(200, {"answer": "ok"}),
                             then_close=False)   # Content-Length frames it
        assert (response.status, response.version) == (200, "HTTP/1.1")
        assert json.loads(response.body) == {"answer": "ok"}
        assert response.headers["content-type"] == "application/json"
        assert response.keep_alive

    def test_bytes_payload(self):
        response = read_back(render_response(200, b"\x00\xff" * 40000))
        assert response.body == b"\x00\xff" * 40000

    def test_retry_after_header(self):
        wire = render_response(429, {"error": "full"},
                               extra_headers={"Retry-After": "1.50"})
        response = read_back(wire)
        assert response.status == 429
        assert response.retry_after == pytest.approx(1.5)

    def test_no_retry_after(self):
        assert read_back(render_response(200, {})).retry_after is None

    def test_close_flag(self):
        wire = render_response(400, {"error": "x"}, keep_alive=False)
        assert not read_back(wire).keep_alive

    def test_501_answer_closes(self):
        error = HTTPError(501, "no chunks")
        response = read_back(render_response(501, error.body(),
                                             keep_alive=False))
        assert response.status == 501 and not response.keep_alive
        assert json.loads(response.body) == error.body()

    def test_head_split_across_reads(self):
        wire = render_response(200, {"answer": "ok"})
        ours, peer = socket.socketpair()
        with ours, peer:
            ours.settimeout(5.0)
            cut = wire.index(b"\r\n\r\n") + 2   # mid blank line
            peer.sendall(wire[:cut])
            later = threading.Timer(0.05, peer.sendall, (wire[cut:],))
            later.start()
            response = read_response(ours)
            later.join()
        assert json.loads(response.body) == {"answer": "ok"}

    @pytest.mark.parametrize("wire", [
        b"",                                             # closed first
        b"HTTP/1.1 200 OK\r\nContent-Le",                 # mid head
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",  # mid body
        b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 +20 OK\r\nContent-Length: 0\r\n\r\n",
        b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}extra",
        b"HTTP/1.1 200 OK\r\nX: " + b"a" * (MAX_HEADER_BYTES + 1),
    ])
    def test_a_malformed_response_is_an_http_error(self, wire):
        with pytest.raises(HTTPError):
            read_back(wire)
