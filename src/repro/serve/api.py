"""Typed request/response objects of the serving API.

Every interaction with :class:`~repro.serve.PromptServeEngine` is a small
immutable dataclass: training data arrives as :class:`TuneRequest`s,
queries as :class:`QueryRequest`s, and answers come back as
:class:`QueryResponse`s that carry the generated text *plus* the retrieval
telemetry an operator needs (which OVT was selected, the per-OVT
similarity scores, and the analytic latency/energy estimate of the
in-memory search from :mod:`repro.cim.energy`).

:class:`PendingQuery` is the one mutable object: the handle returned by
:meth:`~repro.serve.PromptServeEngine.begin_query` for a query admitted to
the continuous-batching decoder.  It fills with a :class:`QueryResponse`
once the generation retires (EOS, token budget, or cancellation)."""

from __future__ import annotations

from dataclasses import dataclass

from ..data.lamp import Sample
from ..llm.generation import GenerationConfig

__all__ = ["TuneRequest", "TuneResponse", "QueryRequest", "QueryResponse",
           "PendingQuery"]


@dataclass(frozen=True)
class TuneRequest:
    """A batch of one user's interactions for the training pipeline."""

    user_id: int
    samples: tuple[Sample, ...]
    request_id: str = ""

    def __post_init__(self):
        if not isinstance(self.samples, tuple):
            object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("a TuneRequest needs at least one sample")


@dataclass(frozen=True)
class TuneResponse:
    """Outcome of absorbing one :class:`TuneRequest`."""

    user_id: int
    accepted: int            # samples absorbed into the user's buffer
    epochs_fired: int        # training epochs the request triggered
    library_size: int        # OVTs stored for this user afterwards
    request_id: str = ""


@dataclass(frozen=True)
class QueryRequest:
    """One user query for the inference path."""

    user_id: int
    text: str
    generation: GenerationConfig | None = None   # engine default when None
    request_id: str = ""

    def __post_init__(self):
        if not self.text.strip():   # tokenizes to nothing
            raise ValueError("a QueryRequest needs non-blank text")


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`, with retrieval telemetry."""

    user_id: int
    text: str                          # the query, echoed back
    answer: str                        # generated continuation
    ovt_index: int                     # which stored OVT was retrieved
    scores: tuple[float, ...] = ()     # WMSDP similarity per stored OVT
    n_ovts: int = 0                    # library size at answer time
    backend: str = ""                  # the device's CiM tech: RRAM / FeFET
    latency_ns: float = 0.0            # simulated search latency: the
    energy_pj: float = 0.0             # deployment's banks, priced once
    request_id: str = ""

    @property
    def latency_us(self) -> float:
        return self.latency_ns * 1e-3

    @property
    def energy_uj(self) -> float:
        return self.energy_pj * 1e-6


class PendingQuery:
    """A query admitted to the engine's continuous-batching decoder.

    Returned by :meth:`~repro.serve.PromptServeEngine.begin_query`; each
    :meth:`~repro.serve.PromptServeEngine.run_decode_round` advances it by
    at most one token.  Once the generation retires, :attr:`response`
    holds the same :class:`QueryResponse` the query would have got served
    alone; one whose prefill slot already holds an answer decoded under
    its config is done at admission.  The handle is self-contained —
    retrieval telemetry is snapshotted at admission and the decode state
    lives in the underlying sequence — so evicting the owning session
    mid-flight can neither corrupt this query nor any other in the batch.
    """

    __slots__ = ("request", "response", "cancelled",
                 "_sequence", "_session", "_slot", "_retrieval",
                 "_admitted_at")

    def __init__(self, request: QueryRequest):
        self.request = request
        self.response: QueryResponse | None = None
        self.cancelled = False
        self._admitted_at = 0.0   # perf_counter at admission (latency stat)

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def user_id(self) -> int:
        return self.request.user_id

    @property
    def finish_reason(self) -> str | None:
        """Why the generation retired: ``"eos"``, ``"length"``,
        ``"context"``, ``"cancelled"``, ``"deadline"`` — or None while
        still in flight."""
        return self._sequence.finish_reason

    def __repr__(self) -> str:
        status = ("cancelled" if self.cancelled
                  else "done" if self.done else "pending")
        return f"PendingQuery(user={self.user_id}, {status})"
