"""Async serving gateway: the HTTP edge in front of the serving engine.

This package turns :class:`~repro.serve.PromptServeEngine` into a
network service without adding dependencies: a minimal HTTP/1.1 layer on
asyncio streams (:mod:`~repro.gateway.http`), typed request validation
(:mod:`~repro.gateway.validation`), the server itself
(:mod:`~repro.gateway.server`) with bounded-queue admission control, FIFO
round admission and a worker thread driving the engine's
continuous-batching decode rounds, and a pooled retrying client
(:mod:`~repro.gateway.client`).

The wire contract is exact: a query answered over HTTP is byte-identical
to the same ``engine.query`` call made in-process.
"""

from .client import (DeadlineExceeded, GatewayClient, GatewayError,
                     RetryPolicy)
from .server import (GatewayConfig, PromptGateway, query_response_from_dict,
                     query_response_to_dict)
from .validation import (ValidationError, parse_query_request,
                         parse_tune_request)

__all__ = [
    "PromptGateway", "GatewayConfig",
    "GatewayClient", "GatewayError", "DeadlineExceeded", "RetryPolicy",
    "ValidationError", "parse_query_request", "parse_tune_request",
    "query_response_to_dict", "query_response_from_dict",
]
