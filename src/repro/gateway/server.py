"""The async HTTP serving gateway in front of :class:`PromptServeEngine`.

Architecture — four kinds of thread around one engine:

* **Event-loop thread** — an asyncio HTTP/1.1 server (pure stdlib, see
  :mod:`repro.gateway.http`).  Handlers parse and validate payloads,
  apply *acceptance* control (a bounded queue; 429 + ``Retry-After``
  when full), then park on a future.  Handlers never touch the engine's
  hot path, so slow decodes cannot stall accepts, health checks, or
  rejections.
* **Worker thread** — the decode driver.  It owns the serving hot loop:
  each tick it expires queued requests past their deadline, admits the
  oldest queued queries into the free decode-batch slots (strict arrival
  order) through ``engine.begin_query``, resolves the futures of queries
  already finished (answered at admission) back into the event loop,
  runs one ``engine.run_decode_round`` (every in-flight answer advances
  one token in a single batched forward), and resolves the generations
  it retired.
* **The tune thread** (``gateway-tune``) — tune requests run
  ``engine.submit`` here, one at a time, at the lowest CPU priority the
  OS offers (nice 19 on Linux, where niceness is per thread).  A tune
  trains off the engine lock and takes it only to publish, so its epoch
  runs *beside* decode rounds; the low priority is what keeps the core
  for them, and queries keep their latency while a tune is in flight.
* **Executor threads** — stats requests run the engine's (internally
  locked) ``stats`` off the event loop, between decode rounds.

Backpressure is the gateway's alone: ``GatewayConfig.max_queue`` bounds
*accepted-but-unadmitted* work (beyond it, HTTP 429 with a
``Retry-After`` hint derived from observed service time), and
``max_batch`` bounds decoder occupancy — queued queries cross from the
queue into the decoder in arrival order as slots free.

Cancellation: a client that disconnects while its query is queued or
decoding frees its slot within one round (the generation retires with
the tokens produced so far); a request that misses its deadline gets a
structured 504 carrying the partial answer.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..serve import (PromptServeEngine, QueryRequest, QueryResponse,
                     SnapshotError)
from .http import HTTPError, HTTPRequest, read_request, render_response
from .validation import (
    ValidationError,
    parse_query_request,
    parse_tune_request,
)

__all__ = ["GatewayConfig", "PromptGateway", "query_response_to_dict",
           "query_response_from_dict"]

IDLE_WAIT_S = 0.02   # worker sleep when nothing is pending


@dataclass(frozen=True)
class GatewayConfig:
    """Deployment knobs of one gateway instance."""

    host: str = "127.0.0.1"
    port: int = 0                 # 0 = bind an ephemeral port
    max_queue: int = 64           # accepted-but-unadmitted bound (429 beyond)
    max_batch: int = 8            # decode-batch slots the worker keeps full

    def __post_init__(self):
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")


@dataclass
class QueuedQuery:
    """One accepted query waiting for a decode-batch slot.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp (None =
    no SLO).  ``cancelled`` flips when the HTTP client disconnects while
    still queued — the worker then drops the entry without admitting it.
    """

    request: QueryRequest
    enqueued_at: float
    deadline: float | None = None
    cancelled: bool = False
    # Resolves the HTTP handler's future with (status, payload, headers).
    complete: Callable | None = field(default=None, repr=False)


def _then_check(method: Callable) -> Callable:
    """``method``, then the reader's check for a watched answer."""
    def checked(self: "_WatchedReader", *args) -> None:
        method(self, *args)
        self._check()
    return checked


class _WatchedReader(asyncio.StreamReader):
    """A connection's stream reader that watches for input unread.

    While a query is in flight its client sends nothing (the gateway does
    not pipeline), so any input — a byte, EOF or a transport error — means
    the client is gone.  :meth:`watch` fails the query's answer future
    with ``ConnectionResetError`` when input arrives, or at once if some
    is already waiting, without a read, a task or a wakeup of its own.
    """

    _answer: asyncio.Future | None = None

    def watch(self, answer: asyncio.Future | None) -> None:
        """Watch for input on behalf of ``answer``; None stops watching."""
        self._answer = answer
        self._check()

    def _check(self) -> None:
        # StreamReader's own state: bytes buffered, EOF seen, error set.
        if self._answer is None or not (self._buffer or self._eof
                                        or self._exception is not None):
            return
        answer, self._answer = self._answer, None
        if not answer.done():
            answer.set_exception(ConnectionResetError(
                "client disconnected mid-query"))

    feed_data = _then_check(asyncio.StreamReader.feed_data)
    feed_eof = _then_check(asyncio.StreamReader.feed_eof)
    set_exception = _then_check(asyncio.StreamReader.set_exception)


def _background_priority() -> None:
    """Lower the calling thread to the lowest CPU priority (nice 19).

    Only on Linux, where niceness belongs to the thread (``setpriority``
    of its native id); elsewhere it would renice the whole process, so
    this is a no-op.  It is never raised back: an unprivileged process
    cannot.  A kernel that refuses leaves the thread at normal priority.
    """
    if sys.platform.startswith("linux"):
        with contextlib.suppress(OSError):
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)


def query_response_to_dict(response: QueryResponse, *,
                           finish_reason: str | None = None) -> dict:
    """The JSON wire form of a :class:`QueryResponse`.

    Floats serialize via ``repr`` (exact round-trip), so a response
    rebuilt with :func:`query_response_from_dict` compares equal to the
    in-process original — the gateway's byte-identical contract.
    """
    payload = {
        "user_id": response.user_id,
        "text": response.text,
        "answer": response.answer,
        "ovt_index": response.ovt_index,
        "scores": list(response.scores),
        "n_ovts": response.n_ovts,
        "backend": response.backend,
        "latency_ns": response.latency_ns,
        "energy_pj": response.energy_pj,
        "request_id": response.request_id,
    }
    if finish_reason is not None:
        payload["finish_reason"] = finish_reason
    return payload


def query_response_from_dict(payload: dict) -> QueryResponse:
    """Rebuild the typed response a direct engine call would have returned."""
    return QueryResponse(
        user_id=payload["user_id"],
        text=payload["text"],
        answer=payload["answer"],
        ovt_index=payload["ovt_index"],
        scores=tuple(float(s) for s in payload["scores"]),
        n_ovts=payload["n_ovts"],
        backend=payload["backend"],
        latency_ns=payload["latency_ns"],
        energy_pj=payload["energy_pj"],
        request_id=payload["request_id"],
    )


class PromptGateway:
    """HTTP front-end + admission control + decode-loop driver.

    Usage::

        gateway = PromptGateway(engine, GatewayConfig(port=0)).start()
        host, port = gateway.address
        ...                       # curl / GatewayClient traffic
        gateway.stop()

    Endpoints: ``POST /v1/tune``, ``POST /v1/query`` (body may carry
    ``deadline_ms``), ``GET /v1/stats``, ``GET /healthz``.
    """

    def __init__(self, engine: PromptServeEngine,
                 config: GatewayConfig | None = None):
        self.engine = engine
        self.config = config if config is not None else GatewayConfig()
        self.address: tuple[str, int] | None = None
        # -- accepted-but-unadmitted queue (event loop appends, worker
        #    drains); one lock covers the queue and the admitted list.
        self._qlock = threading.Lock()
        self._queue: deque[QueuedQuery] = deque()
        self._admitted: list[tuple[QueuedQuery, object]] = []
        self._work = threading.Event()
        self._stop = threading.Event()
        # -- counters (worker/loop threads; ints, so GIL-atomic enough
        #    for telemetry)
        self.started_at: float | None = None
        self.http_requests = 0
        self.accepted = 0
        self.rejected = 0            # 429s at the gateway queue
        self.completed = 0
        self.validation_failures = 0
        self.deadline_misses = 0     # 504s (queued or mid-decode)
        self.disconnects = 0         # client gone before the answer
        self._service_ewma_s: float | None = None
        # -- runtime
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        # Connections parked between requests (event-loop thread only).
        self._idle: set[asyncio.StreamWriter] = set()
        self._loop_thread: threading.Thread | None = None
        self._worker_thread: threading.Thread | None = None
        self._tune_executor: ThreadPoolExecutor | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PromptGateway":
        """Bind, start serving, and return once the port is live."""
        if self._loop_thread is not None:
            raise RuntimeError("gateway already started")
        self._tune_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-tune",
            initializer=_background_priority)
        ready = threading.Event()
        self._loop_thread = threading.Thread(
            target=self._run_event_loop, args=(ready,),
            name="gateway-http", daemon=True)
        self._loop_thread.start()
        ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError("gateway failed to start") \
                from self._startup_error
        if self.address is None:
            raise RuntimeError("gateway did not bind within 10s")
        self._worker_thread = threading.Thread(
            target=self._worker_loop, name="gateway-worker", daemon=True)
        self._worker_thread.start()
        self.started_at = time.monotonic()
        return self

    def stop(self) -> None:
        """Stop accepting, shed queued work (503), and join the threads."""
        self._stop.set()
        self._work.set()
        if self._worker_thread is not None:
            self._worker_thread.join(timeout=10.0)
        if self._loop is not None and self._shutdown is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._shutdown.set)
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=10.0)
        if self._tune_executor is not None:
            self._tune_executor.shutdown(wait=True)

    def __enter__(self) -> "PromptGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event-loop thread
    # ------------------------------------------------------------------
    def _run_event_loop(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._serve(ready))
        except BaseException as error:   # surface bind failures to start()
            self._startup_error = error
        finally:
            ready.set()

    async def _serve(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await self._loop.create_server(
            lambda: asyncio.StreamReaderProtocol(_WatchedReader(),
                                                 self._handle_connection),
            self.config.host, self.config.port)
        self.address = server.sockets[0].getsockname()[:2]
        ready.set()
        async with server:
            await self._shutdown.wait()
            # A keep-alive client parked between requests would sit in
            # read_request until asyncio.run cancels its handler (which
            # asyncio logs as an exception in a callback): close those
            # sockets so the handlers end on EOF, and give the ones with
            # a response still to write the time to write it.
            for writer in self._idle:
                writer.close()
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                await asyncio.wait(handlers, timeout=5.0)

    async def _handle_connection(self, reader: _WatchedReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while not self._stop.is_set():
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except HTTPError as error:
                    writer.write(render_response(
                        error.status, error.body(), keep_alive=False))
                    await writer.drain()
                    return
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                self.http_requests += 1
                keep_alive = request.keep_alive
                status, payload, extra = await self._dispatch(request, reader)
                writer.write(render_response(status, payload,
                                             keep_alive=keep_alive,
                                             extra_headers=extra))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: HTTPRequest,
                        reader: _WatchedReader,
                        ) -> tuple[int, dict, dict | None]:
        try:
            route = (request.method, request.path)
            if route == ("POST", "/v1/query"):
                return await self._handle_query(request, reader)
            if route == ("POST", "/v1/tune"):
                return await self._handle_tune(request)
            if route == ("GET", "/v1/stats"):
                return await self._handle_stats()
            if route == ("GET", "/healthz"):
                return 200, {"status": "ok",
                             "uptime_s": (time.monotonic() - self.started_at
                                          if self.started_at else 0.0)}, None
            if request.path in ("/v1/query", "/v1/tune", "/v1/stats",
                                "/healthz"):
                return 405, {"error": f"method {request.method} not "
                                      f"allowed for {request.path}",
                             "status": 405}, None
            return 404, {"error": f"no route for {request.path}",
                         "status": 404}, None
        except ValidationError as error:
            self.validation_failures += 1
            return error.status, error.body(), None
        except HTTPError as error:
            extra = None
            if error.retry_after is not None:
                extra = {"Retry-After": f"{error.retry_after:.2f}"}
            return error.status, error.body(), extra
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError):
            raise   # client gone: close the connection, write nothing
        except Exception as error:
            # Defensive catch-all: an engine bug answers 500, it never
            # tears down the connection loop with a raw traceback.
            return 500, {"error": f"internal error: "
                                  f"{type(error).__name__}: {error}",
                         "status": 500}, None

    # -- query ---------------------------------------------------------
    async def _handle_query(self, request: HTTPRequest,
                            reader: _WatchedReader,
                            ) -> tuple[int, dict, dict | None]:
        payload = request.json()
        deadline_s = self._parse_deadline(payload)
        query = parse_query_request(payload)
        now = time.monotonic()
        deadline = None if deadline_s is None else now + deadline_s
        with self._qlock:
            if self._stop.is_set():
                raise HTTPError(503, "gateway shutting down")
            if len(self._queue) >= self.config.max_queue:
                self.rejected += 1
                raise HTTPError(429, "request queue full",
                                retry_after=self._retry_after_hint())
            future = self._loop.create_future()
            queued = QueuedQuery(
                request=query, enqueued_at=now, deadline=deadline,
                complete=self._completer(future))
            self._queue.append(queued)
            self.accepted += 1
        self._work.set()
        return await self._await_answer(queued, future, reader)

    def _parse_deadline(self, payload: dict) -> float | None:
        value = payload.get("deadline_ms")
        if value is None:
            return None
        # json.loads reads NaN and Infinity: a deadline that is never
        # reached would switch the SLO off, so both are refused like a
        # negative one — as is an integer past the largest float.
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 < value <= sys.float_info.max:
            raise ValidationError(
                "deadline_ms", "'deadline_ms' must be a positive, finite "
                               "number")
        return float(value) / 1e3

    def _completer(self, future: asyncio.Future):
        """A thread-safe resolver the worker calls with the final status
        and payload."""
        loop = self._loop

        def resolve(status: int, payload: dict) -> None:
            def _set() -> None:
                if not future.done():
                    future.set_result((status, payload, None))
            with contextlib.suppress(RuntimeError):   # loop already closed
                loop.call_soon_threadsafe(_set)

        return resolve

    async def _await_answer(self, queued: QueuedQuery,
                            future: asyncio.Future,
                            reader: _WatchedReader,
                            ) -> tuple[int, dict, dict | None]:
        """Wait for the worker's answer, watching for client disconnect.

        HTTP/1.1 keep-alive clients never send a second request before
        this response, so input meanwhile means either EOF (disconnect)
        or pipelining, which the gateway does not support — both cancel
        the in-flight generation and free its batch slot within one
        round.  The watch is the connection's reader failing the answer's
        future: no second task, no ``asyncio.wait``.
        """
        reader.watch(future)
        try:
            return await future
        except ConnectionResetError:
            # Peer vanished (or tried to pipeline) mid-generation.
            queued.cancelled = True
            self.disconnects += 1
            self._work.set()
            raise
        finally:
            reader.watch(None)

    def _retry_after_hint(self) -> float:
        service = self._service_ewma_s if self._service_ewma_s else 0.5
        backlog = len(self._queue) + len(self._admitted)
        return round(
            max(0.05, service * max(1, backlog) / self.config.max_batch), 2)

    # -- tune / stats (engine entry points are internally locked) ------
    async def _handle_tune(self, request: HTTPRequest,
                           ) -> tuple[int, dict, dict | None]:
        tune = parse_tune_request(request.json())
        try:
            response = await self._loop.run_in_executor(
                self._tune_executor, self.engine.submit, tune)
        except KeyError as error:
            # The session was dropped mid-tune: nothing was absorbed, and
            # the client is told so rather than the samples vanishing.
            return 404, {"error": str(error), "status": 404,
                         "user_id": tune.user_id,
                         "request_id": tune.request_id}, None
        return 200, {
            "user_id": response.user_id,
            "accepted": response.accepted,
            "epochs_fired": response.epochs_fired,
            "library_size": response.library_size,
            "request_id": response.request_id,
        }, None

    async def _handle_stats(self) -> tuple[int, dict, dict | None]:
        engine_stats = await self._loop.run_in_executor(
            None, self.engine.stats)
        with self._qlock:
            gateway_stats = {
                "queue_depth": len(self._queue),
                "in_flight": len(self._admitted),
                "max_queue": self.config.max_queue,
                "max_batch": self.config.max_batch,
                "http_requests": self.http_requests,
                "accepted": self.accepted,
                "rejected": self.rejected,
                "completed": self.completed,
                "validation_failures": self.validation_failures,
                "deadline_misses": self.deadline_misses,
                "disconnects": self.disconnects,
            }
        return 200, {"gateway": gateway_stats, "engine": engine_stats}, None

    # ------------------------------------------------------------------
    # Worker thread — the decode driver
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                busy = self._tick()
            except Exception as error:
                # A tick must never silently kill the decode driver:
                # answer every in-flight request with a 500 and keep
                # serving the queue.
                self._shed_admitted(error)
                busy = True
            if not busy:
                self._work.wait(timeout=IDLE_WAIT_S)
                self._work.clear()
        self._shed_all()

    def _shed_admitted(self, error: Exception) -> None:
        with self._qlock:
            admitted = list(self._admitted)
            self._admitted = []
        for queued, pending in admitted:
            with contextlib.suppress(Exception):
                self.engine.cancel_query(pending)
            queued.complete(500, {
                "error": f"decode failed: {type(error).__name__}: {error}",
                "status": 500})

    def _tick(self) -> bool:
        """One worker iteration; returns True when it did any work."""
        now = time.monotonic()
        self._drop_dead_queued(now)
        admitted_now = self._admit()
        self._cancel_disconnected()
        # A query answered at admission replies before the round, not
        # after another user's token.
        resolved = self._resolve_finished()
        progressed = self._drive_round()
        resolved += self._resolve_finished()
        return bool(admitted_now or progressed or resolved)

    def _drop_dead_queued(self, now: float) -> None:
        """Shed queued entries that were cancelled or missed their SLO."""
        with self._qlock:
            dead = [q for q in self._queue
                    if q.cancelled or (q.deadline is not None
                                       and now >= q.deadline)]
            for queued in dead:
                self._queue.remove(queued)
        for queued in dead:
            if queued.cancelled:
                continue   # disconnect: nobody is waiting for the reply
            self.deadline_misses += 1
            queued.complete(504, {
                "error": "deadline exceeded before admission",
                "status": 504,
                "user_id": queued.request.user_id,
                "request_id": queued.request.request_id,
                "partial_answer": "",
                "finish_reason": "deadline",
            })

    def _admit(self) -> int:
        """The oldest queued queries take the free decode slots."""
        with self._qlock:
            slots = self.config.max_batch - len(self._admitted)
            picks: list[QueuedQuery] = []
            while self._queue and len(picks) < slots:
                picks.append(self._queue.popleft())
        admitted = 0
        for queued in picks:
            try:
                pending = self.engine.begin_query(queued.request,
                                                  deadline=queued.deadline)
            except KeyError as error:
                queued.complete(404, {"error": str(error), "status": 404,
                                      "user_id": queued.request.user_id,
                                      "request_id":
                                          queued.request.request_id})
            except Exception as error:
                if (isinstance(error, ValueError)
                        and not isinstance(error, SnapshotError)):
                    # The query cannot be served as posed (e.g. a text
                    # that leaves no room to generate): the client's
                    # mistake, not the engine's.
                    self.validation_failures += 1
                    queued.complete(400, ValidationError(
                        "text", str(error)).body())
                else:
                    queued.complete(500, {"error": f"admission failed: "
                                                   f"{type(error).__name__}: "
                                                   f"{error}",
                                          "status": 500})
            else:
                with self._qlock:
                    self._admitted.append((queued, pending))
                admitted += 1
        return admitted

    def _cancel_disconnected(self) -> None:
        with self._qlock:
            gone = [(q, p) for q, p in self._admitted if q.cancelled]
        for queued, pending in gone:
            self.engine.cancel_query(pending)   # no-op if already done

    def _drive_round(self) -> bool:
        with self._qlock:
            live = any(not p.done for _, p in self._admitted)
        if not live:
            return False
        self.engine.run_decode_round()
        return True

    def _resolve_finished(self) -> int:
        with self._qlock:
            finished = [(q, p) for q, p in self._admitted if p.done]
            self._admitted = [(q, p) for q, p in self._admitted
                              if not p.done]
        for queued, pending in finished:
            self._observe_service(queued)
            response = pending.response
            if queued.cancelled:
                continue   # disconnect: reply socket is gone
            if pending.finish_reason == "deadline":
                self.deadline_misses += 1
                queued.complete(504, {
                    "error": "deadline exceeded",
                    "status": 504,
                    "user_id": response.user_id,
                    "request_id": response.request_id,
                    "partial_answer": response.answer,
                    "finish_reason": "deadline",
                })
            else:
                self.completed += 1
                queued.complete(200, query_response_to_dict(
                    response, finish_reason=pending.finish_reason))
        return len(finished)

    def _observe_service(self, queued: QueuedQuery) -> None:
        service = time.monotonic() - queued.enqueued_at
        if self._service_ewma_s is None:
            self._service_ewma_s = service
        else:
            self._service_ewma_s += 0.2 * (service - self._service_ewma_s)

    def _shed_all(self) -> None:
        """On shutdown: answer everything still waiting with 503."""
        with self._qlock:
            queued = list(self._queue)
            admitted = list(self._admitted)
            self._queue.clear()
            self._admitted = []
        for entry in queued:
            entry.complete(503, {"error": "gateway shutting down",
                                 "status": 503})
        for entry, pending in admitted:
            self.engine.cancel_query(pending)
            entry.complete(503, {"error": "gateway shutting down",
                                 "status": 503})
