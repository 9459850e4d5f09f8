"""End-to-end tests: live gateway, real sockets, real decode rounds.

The headline contract is byte-identity: a query answered over HTTP must
equal — every field, including simulated latency/energy — the response a
direct ``engine.query`` call returns.  Around that: structured
validation failures, admission control (429 + Retry-After), deadline
misses (504 with the partial answer), client-disconnect cancellation,
and trace replay against the running server.
"""

import dataclasses
import threading
import time

import pytest

from repro.gateway import (
    DeadlineExceeded,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    PromptGateway,
    RetryPolicy,
)
from repro.gateway.validation import ValidationError
from repro.llm import GenerationConfig
from repro.serve import QueryRequest
from tests.oracles.generation import answer_sequential

from .conftest import stream_for
from .traffic import TraceConfig, build_trace, replay


def fast_generation(tok, n=6):
    return GenerationConfig(max_new_tokens=n, temperature=0.1, seed=3,
                            eos_id=tok.eos_id)


def wait_until(predicate, timeout_s=10.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestRoundTrips:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0

    def test_query_byte_identical_to_direct_engine_call(
            self, engine, client, setup):
        _, tok = setup
        generation = fast_generation(tok)
        for user_id in (0, 1):
            for i, sample in enumerate(stream_for(user_id, 2, seed=42)):
                request = QueryRequest(
                    user_id=user_id, text=sample.input_text,
                    generation=generation, request_id=f"u{user_id}-q{i}")
                over_http = client.query(
                    user_id, sample.input_text, generation=generation,
                    request_id=f"u{user_id}-q{i}")
                # query never takes the answer the HTTP query left on the
                # slot: it prefills again and decodes alone.
                before = engine.stats()
                direct = engine.query(request)
                after = engine.stats()
                assert after["answer_hits"] == before["answer_hits"]
                assert after["prefill_rows"] == before["prefill_rows"] + 1
                assert over_http == direct   # every field, exactly

    def test_repeat_is_answered_from_the_prefill_slot(self, engine, client):
        """The repeat is finished at admission from the first answer's
        tokens: byte-identical to the decoded answer and the oracle."""
        generation = GenerationConfig(max_new_tokens=5, temperature=0.0)
        text = stream_for(1, 1, seed=77)[0].input_text
        first = client.query(1, text, generation=generation,
                             request_id="rep-1")
        hits = engine.stats()["answer_hits"]
        second = client.query(1, text, generation=generation,
                              request_id="rep-2")
        assert engine.stats()["answer_hits"] == hits + 1
        assert second == dataclasses.replace(first, request_id="rep-2")
        oracle = answer_sequential(engine, QueryRequest(
            user_id=1, text=text, generation=generation))
        assert second.answer.encode() == oracle.encode()

    def test_tune_then_query_round_trip(self, engine, client, setup):
        _, tok = setup
        samples = list(stream_for(2, 10, seed=2))
        tuned = client.tune(2, samples, request_id="t-2")
        assert tuned.user_id == 2
        assert tuned.accepted == 10
        assert tuned.epochs_fired >= 1
        assert tuned.library_size >= 1
        assert tuned.request_id == "t-2"
        response = client.query(2, samples[0].input_text,
                                generation=fast_generation(tok))
        assert response.user_id == 2
        assert response.answer
        assert response.n_ovts == tuned.library_size

    def test_tune_accepts_plain_dict_samples(self, client):
        # Enough samples to cross an epoch boundary is not required for
        # acceptance; the engine just absorbs them.
        tuned = client.tune(0, [{"input_text": "a movie about mars",
                                 "target_text": "sci-fi"}])
        assert tuned.accepted == 1


class TestErrorPaths:
    def test_validation_error_names_the_field(self, client):
        with pytest.raises(GatewayError) as info:
            client.query("not-an-int", "hello")
        assert info.value.status == 400
        assert info.value.field == "user_id"

    def test_unknown_generation_key(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("POST", "/v1/query",
                            {"user_id": 0, "text": "hi",
                             "generation": {"beam_width": 4}})
        assert info.value.status == 400
        assert info.value.field == "generation.beam_width"

    def test_unknown_user_is_404(self, client):
        with pytest.raises(GatewayError) as info:
            client.query(999, "hello?")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("GET", "/v2/everything")
        assert info.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("PUT", "/v1/query", {"user_id": 0, "text": "x"})
        assert info.value.status == 405

    def test_counters_track_failures(self, gateway, client):
        before = gateway.validation_failures
        with pytest.raises(GatewayError):
            client.query(0, "")
        assert gateway.validation_failures == before + 1

    @pytest.mark.parametrize("text", [
        "   ",                        # tokenizes to nothing
        " ".join(["movie"] * 300),    # leaves no room to generate
    ], ids=["blank", "over-long"])
    def test_unservable_text_is_a_400_not_a_500(self, gateway, engine,
                                                client, text):
        before = gateway.validation_failures
        with pytest.raises(GatewayError) as info:
            client.query(0, text)
        assert info.value.status == 400
        assert info.value.field == "text"
        assert gateway.validation_failures == before + 1
        assert engine.stats()["pending_generations"] == 0


class TestStats:
    def test_two_layer_stats(self, client, setup, gateway):
        _, tok = setup
        client.query(0, "warm the counters",
                     generation=fast_generation(tok, n=2))
        stats = client.stats()
        gw = stats["gateway"]
        assert gw["max_queue"] == gateway.config.max_queue
        assert gw["accepted"] >= 1
        assert gw["completed"] >= 1
        assert gw["queue_depth"] >= 0
        engine_stats = stats["engine"]
        assert engine_stats["admitted"] >= 1
        assert engine_stats["latency_ms"]["count"] >= 1
        assert engine_stats["latency_ms"]["p50_ms"] <= \
            engine_stats["latency_ms"]["p99_ms"]


class TestDeadlines:
    def test_impossible_deadline_is_504_with_partial_answer(
            self, client, setup):
        _, tok = setup
        with pytest.raises(DeadlineExceeded) as info:
            client.query(0, "no time for this",
                         generation=fast_generation(tok),
                         deadline_ms=0.01)
        assert info.value.status == 504
        assert isinstance(info.value.partial_answer, str)
        assert info.value.payload["finish_reason"] == "deadline"

    def test_deadline_must_be_positive(self, client):
        with pytest.raises(GatewayError) as info:
            client._request("POST", "/v1/query",
                            {"user_id": 0, "text": "x", "deadline_ms": -5})
        assert info.value.status == 400
        assert info.value.field == "deadline_ms"

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), 0, -5, 10 ** 400, True,
        "100"], ids=["nan", "inf", "-inf", "zero", "negative",
                     "int-past-float", "bool", "string"])
    def test_parse_deadline_refuses_what_no_clock_reaches(self, gateway,
                                                          value):
        """NaN and Infinity are JSON to ``json.loads``; a NaN deadline
        compares false with every clock reading, so it would never time
        out — each is a 400 on ``deadline_ms``, like a negative one."""
        with pytest.raises(ValidationError) as info:
            gateway._parse_deadline({"deadline_ms": value})
        assert info.value.status == 400
        assert info.value.field == "deadline_ms"

    def test_parse_deadline_reads_milliseconds(self, gateway):
        assert gateway._parse_deadline({}) is None
        assert gateway._parse_deadline({"deadline_ms": 250}) == 0.25
        assert gateway._parse_deadline({"deadline_ms": 1.5}) == 0.0015

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_finite_deadline_on_the_wire_is_400(self, gateway, literal):
        before = gateway.accepted
        body = b'{"user_id": 0, "text": "x", "deadline_ms": ' + literal + b"}"
        received = TestFramingOnTheWire.exchange(
            gateway, b"POST /v1/query HTTP/1.1\r\nHost: localhost\r\n"
                     b"Connection: close\r\nContent-Type: application/json"
                     b"\r\nContent-Length: " + str(len(body)).encode()
                     + b"\r\n\r\n" + body)
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b'"field": "deadline_ms"' in received
        assert gateway.accepted == before      # never queued

    def test_generous_deadline_completes_normally(self, client, setup):
        _, tok = setup
        response = client.query(0, "plenty of time",
                                generation=fast_generation(tok, n=2),
                                deadline_ms=60_000)
        assert response.answer is not None


class TestCancellation:
    def test_disconnect_mid_query_frees_the_slot(self, gateway, client,
                                                 setup):
        import socket

        from repro.gateway.http import render_request

        _, tok = setup
        before = gateway.disconnects
        host, port = gateway.address
        raw = socket.create_connection((host, port))
        raw.sendall(render_request(
            "POST", "/v1/query",
            {"user_id": 0, "text": "a long question to abandon",
             "generation": {"max_new_tokens": 64, "temperature": 0.0}}))
        raw.close()   # vanish while the answer decodes
        assert wait_until(lambda: gateway.disconnects == before + 1)
        # The engine keeps serving everyone else.
        response = client.query(1, "still here",
                                generation=fast_generation(tok, n=2))
        assert response.user_id == 1


    def test_a_pipelined_byte_cancels_like_a_disconnect(self, gateway,
                                                        client, setup):
        import socket

        from repro.gateway.http import render_request

        _, tok = setup
        before = gateway.disconnects
        wire = render_request(
            "POST", "/v1/query",
            {"user_id": 0, "text": "a question with company",
             "generation": {"max_new_tokens": 64, "temperature": 0.0}})
        with socket.create_connection(gateway.address, timeout=10.0) as raw:
            raw.sendall(wire + b"G")   # one byte of a next request
            assert raw.recv(65536) == b""   # closed without an answer
        assert wait_until(lambda: gateway.disconnects == before + 1)
        response = client.query(1, "still here",
                                generation=fast_generation(tok, n=2))
        assert response.user_id == 1

    def test_the_query_path_runs_no_watch_task_and_no_wait(
            self, gateway, client, setup, monkeypatch):
        """The watch is a callback on the connection's reader: a query
        and a disconnect both pass with ``asyncio.wait`` and task
        creation refused (either would answer 500 through the
        catch-all)."""
        import asyncio
        import socket

        from repro.gateway.http import render_request

        def refused(*args, **kwargs):
            raise AssertionError("the query path made a task or a wait")

        for name in ("wait", "ensure_future", "create_task"):
            monkeypatch.setattr(asyncio, name, refused)
        _, tok = setup
        response = client.query(0, "watched by a callback",
                                generation=fast_generation(tok, n=3))
        assert response.user_id == 0
        before = gateway.disconnects
        raw = socket.create_connection(gateway.address)
        raw.sendall(render_request(
            "POST", "/v1/query",
            {"user_id": 1, "text": "gone before the answer",
             "generation": {"max_new_tokens": 64, "temperature": 0.0}}))
        raw.close()
        assert wait_until(lambda: gateway.disconnects == before + 1)


class TestFramingOnTheWire:
    @staticmethod
    def exchange(gateway, wire: bytes) -> bytes:
        """Send ``wire`` and read until the server closes."""
        import socket

        raw = socket.create_connection(gateway.address, timeout=10.0)
        try:
            raw.sendall(wire)
            received = b""
            while chunk := raw.recv(65536):
                received += chunk
            return received
        finally:
            raw.close()

    def test_chunked_body_is_501_and_never_a_second_request(self, gateway):
        before = gateway.http_requests
        received = self.exchange(
            gateway, b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked"
                     b"\r\n\r\n10\r\nGET /healthz HTTP/1.1\r\n\r\n")
        assert received.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert received.count(b"HTTP/1.1 ") == 1   # the chunk went unread
        assert b"Connection: close" in received
        assert gateway.http_requests == before

    def test_bare_http10_request_is_answered_then_closed(self, gateway):
        received = self.exchange(gateway, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert received.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in received


class TestShutdown:
    def test_stop_with_an_idle_keep_alive_client_is_silent(self, engine,
                                                           caplog):
        """A client parked between requests ends on EOF, not on a
        cancellation that asyncio logs as an exception in a callback."""
        import http.client

        gateway = PromptGateway(engine, GatewayConfig(port=0)).start()
        connection = http.client.HTTPConnection(*gateway.address)
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()   # now idle, still open
            with caplog.at_level("DEBUG", logger="asyncio"):
                gateway.stop()
            assert not gateway._loop_thread.is_alive()
            assert [r for r in caplog.records
                    if r.levelname in ("WARNING", "ERROR")] == []
        finally:
            connection.close()


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self, engine):
        gateway = PromptGateway(engine, GatewayConfig(
            port=0, max_queue=1, max_batch=2))
        gateway._tick = lambda: False   # stall the worker: nothing admits
        gateway.start()
        try:
            host, port = gateway.address
            with GatewayClient(host, port,
                               retry=RetryPolicy(max_attempts=1)) as client:
                outcome = {}

                def park():
                    try:
                        outcome["response"] = client.query(0, "first in line")
                    except Exception as error:
                        outcome["error"] = error

                waiter = threading.Thread(target=park)
                waiter.start()
                assert wait_until(lambda: gateway.accepted == 1)
                # The queue (depth 1) is now full: next request bounces.
                status, decoded, retry_after = client._once(
                    "POST", "/v1/query", {"user_id": 0, "text": "overflow"})
                assert status == 429
                assert decoded["status"] == 429
                assert retry_after is not None and retry_after > 0
                assert gateway.rejected == 1
                # Un-stall the worker: the parked request completes.
                del gateway.__dict__["_tick"]
                gateway._work.set()
                waiter.join(timeout=30)
                assert not waiter.is_alive()
                assert "response" in outcome, outcome.get("error")
                assert outcome["response"].user_id == 0
        finally:
            gateway.stop()

    def test_client_retries_429_until_admitted(self, engine):
        # A stalled gateway that un-stalls after the first rejection:
        # the client's backoff loop should land the request on attempt 2+.
        gateway = PromptGateway(engine, GatewayConfig(
            port=0, max_queue=1, max_batch=2))
        gateway._tick = lambda: False
        gateway.start()
        try:
            host, port = gateway.address
            with GatewayClient(host, port) as blocker, \
                    GatewayClient(host, port) as retrier:
                outcome = {}
                waiter = threading.Thread(
                    target=lambda: outcome.update(
                        first=blocker.query(0, "hold the only seat")))
                waiter.start()
                assert wait_until(lambda: gateway.accepted == 1)

                release = threading.Timer(
                    0.3, lambda: (gateway.__dict__.pop("_tick", None),
                                  gateway._work.set()))
                release.start()
                response = retrier.query(0, "keep knocking")
                assert response.user_id == 0
                assert retrier.retries >= 1
                waiter.join(timeout=30)
                assert "first" in outcome
        finally:
            gateway.stop()


class TestTraceReplay:
    def test_poisson_replay_completes_against_live_gateway(
            self, client, setup):
        _, tok = setup
        generation = GenerationConfig(max_new_tokens=3, temperature=0.0,
                                      eos_id=tok.eos_id)
        texts = [s.input_text for s in stream_for(0, 4, seed=9)]
        config = TraceConfig(n_users=2, rate_rps=40.0, duration_s=0.5,
                             seed=5)
        trace = build_trace(config, texts)
        report = replay(client, trace, generation=generation,
                        max_workers=4)
        assert report.n_requests == len(trace) > 0
        assert report.completed == report.n_requests
        assert report.transport_errors == 0
        assert report.p99_s() >= report.p50_s() > 0.0
        summary = report.summary()
        assert summary["completed"] == report.completed
