"""Multi-user serving layer for NVCiM-PT.

The paper's deployment story is many edge users, each with a personal OVT
library programmed onto NVM, served at low latency over one shared frozen
base model.  This package is that story as an API:

* :class:`PromptServeEngine` — owns the shared model/tokenizer and a
  bounded LRU cache of per-user sessions (limited on-device NVM).
* :class:`UserSession` — one user's training pipeline plus the NVM
  deployment each published epoch programs.
* :class:`TuneRequest` / :class:`QueryRequest` / :class:`QueryResponse` —
  the typed request/response surface, with retrieval telemetry (selected
  OVT, similarity scores, analytic latency/energy) on every answer.
* :class:`PendingQuery` — a query in the continuous-batching decoder:
  ``answer_batch`` (or ``begin_query`` + ``run_decode_round``) advances
  every user's answer one token per round through a single batched
  forward, token-identical to sequential serving.
* :class:`SessionSnapshot` / :class:`SessionStore` — durable sessions: a
  user's trained library, buffer and NVM state as a versioned binary
  blob that LRU eviction spills and session lookups transparently
  restore, byte-identically and without re-running a tuner step.

Quickstart::

    engine = PromptServeEngine(model, tokenizer,
                               FrameworkConfig.preset("table1"))
    engine.submit(TuneRequest(user_id=7, samples=tuple(stream)))
    response = engine.query(QueryRequest(user_id=7, text="..."))
    print(response.answer, response.ovt_index, response.latency_us)
"""

from .api import (
    PendingQuery,
    QueryRequest,
    QueryResponse,
    TuneRequest,
    TuneResponse,
)
from .engine import PromptServeEngine
from .metrics import LatencyHistogram
from .session import UserSession
from .snapshot import SessionSnapshot, SnapshotError
from .store import SessionStore

__all__ = [
    "PromptServeEngine", "UserSession", "LatencyHistogram",
    "TuneRequest", "TuneResponse", "QueryRequest", "QueryResponse",
    "PendingQuery", "SessionSnapshot", "SnapshotError", "SessionStore",
]
