"""A blocking gateway client: connection pooling, timeouts, retries.

The client side of the serving edge, on the wire layer the server uses
(:mod:`repro.gateway.http`): each request leaves as the one buffer
:func:`~repro.gateway.http.render_request` builds, in one ``sendall``
on a keep-alive socket with ``TCP_NODELAY`` set, and each response is
read back by :func:`~repro.gateway.http.read_response`, whose status-line,
header and ``Content-Length`` framing is the parser the server reads
requests with.  Around that:

* **Connection pooling** — completed keep-alive connections return to a
  bounded pool (a ``Connection: close`` answer closes its socket);
  concurrent callers (the load generator drives this from a thread
  pool) each check one out, so steady-state traffic performs no TCP
  handshakes.
* **Timeouts** — one socket timeout bounds connect/send/receive.
* **Retry with jittered exponential backoff** — 429/503 responses (the
  gateway's backpressure signals) honour ``Retry-After`` and retry up to
  a budget; transport errors (a refused or reset socket, a timeout, a
  truncated or malformed response) retry only when re-sending is safe
  (queries are repeatable, tune submissions are not — a half-sent tune
  must surface, not silently double-train).

Errors are typed: :class:`GatewayError` carries the HTTP status and the
structured body (including the ``field`` of a 400 validation failure);
:class:`DeadlineExceeded` adds the partial answer of a 504.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..data.lamp import Sample
from ..llm.generation import GenerationConfig
from ..serve import QueryResponse, TuneResponse
from ..utils import rng_from_seed
from .http import HTTPError, read_response, render_request
from .server import query_response_from_dict
from .validation import generation_to_dict

__all__ = ["GatewayClient", "GatewayError", "DeadlineExceeded",
           "RetryPolicy"]


class GatewayError(Exception):
    """A non-2xx gateway answer (or transport failure after retries)."""

    def __init__(self, status: int, payload: dict | None = None,
                 message: str | None = None):
        self.status = status
        self.payload = payload or {}
        self.field = self.payload.get("field")
        super().__init__(message or self.payload.get("error")
                         or f"gateway answered {status}")


class DeadlineExceeded(GatewayError):
    """A 504: the deadline passed; ``partial_answer`` holds the prefix."""

    def __init__(self, payload: dict):
        super().__init__(504, payload)
        self.partial_answer = payload.get("partial_answer", "")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff shape for 429/503 (and safe transport) retries."""

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5          # uniform extra fraction of the delay
    retry_statuses: tuple[int, ...] = (429, 503)

    def delay(self, attempt: int, retry_after: float | None,
              rng: np.random.Generator) -> float:
        """Delay before retry ``attempt`` (0-based), jittered.

        ``rng`` only needs a ``.random()`` method — an injected
        ``np.random.Generator`` in production, anything duck-compatible
        in tests."""
        backoff = min(self.backoff_cap_s,
                      self.backoff_base_s * (2.0 ** attempt))
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return backoff * (1.0 + self.jitter * rng.random())


class GatewayClient:
    """Pooled, retrying HTTP client for one :class:`PromptGateway`."""

    def __init__(self, host: str, port: int, *,
                 timeout_s: float = 60.0,
                 pool_size: int = 8,
                 retry: RetryPolicy | None = None,
                 seed: int | None = None,
                 rng: np.random.Generator | None = None):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.pool_size = pool_size
        self.retry = retry if retry is not None else RetryPolicy()
        # Backoff jitter draws from a seeded generator so a replayed
        # trace sleeps the same schedule; callers may inject their own
        # stream (e.g. one spawned per client by the load harness).
        self._rng = rng if rng is not None else rng_from_seed(
            0 if seed is None else seed)
        self._pool: list[socket.socket] = []
        self._lock = threading.Lock()
        self.retries = 0          # total retry sleeps taken
        self.requests_sent = 0

    # ------------------------------------------------------------------
    # Pool
    # ------------------------------------------------------------------
    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        connection = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout_s)
        # A request is one small write: send it now, not after the ACK
        # of the last one (Nagle).
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def _checkin(self, connection: socket.socket) -> None:
        with self._lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(connection)
                return
        connection.close()

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for connection in pool:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport with retry
    # ------------------------------------------------------------------
    def _once(self, method: str, path: str, payload: dict | None,
              ) -> tuple[int, dict, float | None]:
        wire = render_request(method, path, payload,
                              host=f"{self.host}:{self.port}")
        connection = self._checkout()
        try:
            connection.sendall(wire)
            response = read_response(connection)
        except BaseException:
            connection.close()
            raise
        if response.keep_alive:
            self._checkin(connection)
        else:
            connection.close()
        try:
            decoded = json.loads(response.body) if response.body else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            decoded = {}
        if not isinstance(decoded, dict):
            decoded = {}
        return response.status, decoded, response.retry_after

    def _request(self, method: str, path: str, payload: dict | None = None,
                 *, retry_transport: bool = True) -> dict:
        """One logical request; retries per policy; raises GatewayError."""
        last_error: Exception | None = None
        for attempt in range(max(1, self.retry.max_attempts)):
            retry_after = None
            try:
                self.requests_sent += 1
                status, decoded, retry_after = self._once(method, path,
                                                          payload)
            except (OSError, HTTPError) as error:
                last_error = error
                if not retry_transport:
                    raise GatewayError(
                        0, None, f"transport failure (not retried: "
                                 f"request may have been processed): "
                                 f"{error}") from error
            else:
                if status < 300:
                    return decoded
                if status == 504:
                    raise DeadlineExceeded(decoded)
                if status not in self.retry.retry_statuses:
                    raise GatewayError(status, decoded)
                last_error = GatewayError(status, decoded)
            if attempt + 1 >= max(1, self.retry.max_attempts):
                break
            self.retries += 1
            time.sleep(self.retry.delay(attempt, retry_after, self._rng))
        if isinstance(last_error, GatewayError):
            raise last_error
        raise GatewayError(0, None,
                           f"transport failure after "
                           f"{self.retry.max_attempts} attempts: "
                           f"{last_error}") from last_error

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def tune(self, user_id: int,
             samples: Iterable[Sample] | Sequence[dict], *,
             request_id: str = "") -> TuneResponse:
        """Submit one user's training samples (Sample objects or dicts)."""
        wire_samples = []
        for sample in samples:
            if isinstance(sample, Sample):
                wire_samples.append({
                    "task": sample.task,
                    "input_text": sample.input_text,
                    "target_text": sample.target_text,
                    "domain": sample.domain,
                })
            else:
                wire_samples.append(dict(sample))
        payload = {"user_id": user_id, "samples": wire_samples,
                   "request_id": request_id}
        # A tune that half-sent must not silently re-send: the server may
        # have absorbed the samples, and training twice changes the
        # library.  429/503 answers are still retried (the engine never
        # saw the request).
        decoded = self._request("POST", "/v1/tune", payload,
                                retry_transport=False)
        return TuneResponse(
            user_id=decoded["user_id"],
            accepted=decoded["accepted"],
            epochs_fired=decoded["epochs_fired"],
            library_size=decoded["library_size"],
            request_id=decoded.get("request_id", ""),
        )

    def query(self, user_id: int, text: str, *,
              generation: GenerationConfig | None = None,
              request_id: str = "",
              deadline_ms: float | None = None) -> QueryResponse:
        """Ask one query; returns the same typed :class:`QueryResponse`
        a direct ``engine.query`` call would (byte-identical fields)."""
        payload: dict = {"user_id": user_id, "text": text,
                         "request_id": request_id}
        if generation is not None:
            payload["generation"] = generation_to_dict(generation)
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        decoded = self._request("POST", "/v1/query", payload)
        return query_response_from_dict(decoded)
