"""Unit tests for the gateway client: its retry/backoff machinery and
its transport — one write per request, responses read by the wire
layer's parser, pooled keep-alive sockets, transport failures retried
for queries and surfaced for tunes."""

import contextlib
import random
import re
import socket
import threading

import pytest

from repro.gateway import (DeadlineExceeded, GatewayClient, GatewayError,
                           RetryPolicy)
from repro.gateway.http import render_request, render_response


class TestRetryPolicy:
    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base_s=0.1, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(a, None, rng) for a in range(4)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.4), pytest.approx(0.8)]

    def test_backoff_cap(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=2.0,
                             jitter=0.0)
        assert policy.delay(10, None, random.Random(0)) == pytest.approx(2.0)

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(backoff_base_s=0.05, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(0, 1.5, rng) == pytest.approx(1.5)
        # ... but a larger computed backoff wins over a small hint.
        policy = RetryPolicy(backoff_base_s=4.0, backoff_cap_s=8.0,
                             jitter=0.0)
        assert policy.delay(0, 1.5, rng) == pytest.approx(4.0)

    def test_jitter_bounds(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=1.0,
                             jitter=0.5)
        rng = random.Random(7)
        for attempt in range(20):
            delay = policy.delay(0, None, rng)
            assert 1.0 <= delay <= 1.5

    def test_default_retry_statuses_are_backpressure(self):
        assert RetryPolicy().retry_statuses == (429, 503)


class TestErrorTypes:
    def test_gateway_error_carries_payload(self):
        error = GatewayError(400, {"error": "bad", "status": 400,
                                   "field": "user_id"})
        assert error.status == 400
        assert error.field == "user_id"
        assert "bad" in str(error)

    def test_gateway_error_without_payload(self):
        error = GatewayError(503)
        assert error.field is None
        assert "503" in str(error)

    def test_deadline_exceeded_partial_answer(self):
        error = DeadlineExceeded({"error": "deadline exceeded",
                                  "status": 504,
                                  "partial_answer": "the answer so f"})
        assert error.status == 504
        assert error.partial_answer == "the answer so f"
        assert isinstance(error, GatewayError)


# ----------------------------------------------------------------------
# Transport: one write out, one parser back, against a scripted peer
# ----------------------------------------------------------------------
def ok_response(payload: dict | None = None, **kwargs) -> bytes:
    return render_response(200, payload or {"status": "ok"}, **kwargs)


class ScriptedServer:
    """A raw listening socket that answers each request it reads with the
    next scripted reply, ``(wire, close_after)``, one connection at a
    time; it records every request and counts the connections."""

    def __init__(self, replies: list[tuple[bytes, bool]]):
        self.replies = list(replies)
        self.requests: list[bytes] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @staticmethod
    def _read_request(connection: socket.socket) -> bytes | None:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        while len(body) < length:
            body += connection.recv(65536)
        return data

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                if not self.replies:
                    return   # woken by close()
                self.connections += 1
                while self.replies:
                    request = self._read_request(connection)
                    if request is None:
                        break
                    self.requests.append(request)
                    wire, close_after = self.replies.pop(0)
                    connection.sendall(wire)
                    if close_after:
                        break

    def close(self) -> None:
        self.replies.clear()
        with contextlib.suppress(OSError):
            socket.create_connection(self.address, timeout=1.0).close()
        self._thread.join(timeout=10.0)
        self._listener.close()


@pytest.fixture
def scripted():
    servers = []

    def start(*replies):
        server = ScriptedServer(replies)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


class _CountingSocket:
    """A socket whose writes are recorded in a shared list."""

    def __init__(self, sock: socket.socket, writes: list[bytes]):
        self._sock = sock
        self._writes = writes

    def send(self, data) -> int:
        self._writes.append(bytes(data))
        return self._sock.send(data)

    def sendall(self, data) -> None:
        self._writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class CountingClient(GatewayClient):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes: list[bytes] = []

    def _checkout(self):
        sock = super()._checkout()
        return (sock if isinstance(sock, _CountingSocket)
                else _CountingSocket(sock, self.writes))


NO_WAIT = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


class TestOneWriteOneParser:
    def test_a_request_leaves_in_exactly_one_write(self, scripted):
        server = scripted((ok_response(), False), (ok_response(), False))
        host, port = server.address
        payload = {"user_id": 3, "text": "hello"}
        with CountingClient(host, port) as client:
            client.health()
            client._request("POST", "/v1/query", payload)
        assert client.writes == [
            render_request("GET", "/healthz", host=f"{host}:{port}"),
            render_request("POST", "/v1/query", payload,
                           host=f"{host}:{port}")]
        assert server.requests == client.writes
        assert server.connections == 1   # the second rode the pooled one

    def test_the_pooled_socket_does_not_wait_on_nagle(self, scripted):
        server = scripted((ok_response(), False))
        with GatewayClient(*server.address) as client:
            client.health()
            (sock,) = client._pool
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    @pytest.mark.parametrize("header, expected", [
        ("1.50", 1.5), ("0", 0.0), ("-3", 0.0), ("soon", None)])
    def test_retry_after_is_parsed(self, scripted, header, expected):
        server = scripted((render_response(
            429, {"error": "full", "status": 429},
            extra_headers={"Retry-After": header}), False))
        with GatewayClient(*server.address) as client:
            status, decoded, retry_after = client._once(
                "POST", "/v1/query", {"user_id": 0, "text": "x"})
        assert (status, decoded["status"]) == (429, 429)
        assert retry_after == expected

    def test_no_retry_after_is_none(self, scripted):
        server = scripted((ok_response(), False))
        with GatewayClient(*server.address) as client:
            assert client._once("GET", "/healthz", None)[2] is None

    def test_a_connection_close_answer_is_not_pooled(self, scripted):
        server = scripted((ok_response(keep_alive=False), True),
                          (ok_response(), False))
        with GatewayClient(*server.address) as client:
            client.health()
            assert client._pool == []
            client.health()
            assert len(client._pool) == 1
        assert server.connections == 2


BROKEN = {
    "truncated body": render_response(200, {"answer": "cut short"})[:-5],
    "malformed status line": b"HTTP/1.1 OK\r\nContent-Length: 2\r\n\r\n{}",
    "non-numeric status": b"HTTP/1.1 2x0 OK\r\nContent-Length: 2\r\n\r\n{}",
    "not HTTP": b"SPDY/3 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    "closed before the response": b"",
}


class TestTransportFailures:
    @pytest.mark.parametrize("wire", BROKEN.values(), ids=BROKEN.keys())
    def test_a_query_retries_a_broken_response(self, scripted, wire):
        server = scripted((wire, True), (ok_response({"answer": "ok"}),
                                         False))
        with GatewayClient(*server.address, retry=NO_WAIT) as client:
            decoded = client._request("POST", "/v1/query",
                                      {"user_id": 0, "text": "again"})
            assert decoded == {"answer": "ok"}
            assert (client.requests_sent, client.retries) == (2, 1)
        assert len(server.requests) == 2
        assert server.connections == 2   # the broken socket was dropped

    @pytest.mark.parametrize("wire", BROKEN.values(), ids=BROKEN.keys())
    def test_a_tune_surfaces_a_broken_response(self, scripted, wire):
        server = scripted((wire, True), (ok_response(), False))
        with GatewayClient(*server.address, retry=NO_WAIT) as client:
            with pytest.raises(GatewayError) as info:
                client._request("POST", "/v1/tune", {"user_id": 0},
                                retry_transport=False)
            assert info.value.status == 0
            assert "not retried" in str(info.value)
            assert client._pool == []
        assert len(server.requests) == 1

    def test_a_refused_connection_is_a_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()[:2]
        with GatewayClient(*address, retry=NO_WAIT) as client:
            with pytest.raises(GatewayError) as info:
                client.health()
        assert info.value.status == 0
        assert client.requests_sent == NO_WAIT.max_attempts
