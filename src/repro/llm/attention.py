"""Multi-head causal self-attention weights, with external key/value prefixes.

The KV-prefix hook is what makes prefix tuning and P-tuning v2 possible:
both inject trained ``(key, value)`` matrices that every query position may
attend to, ahead of the causal window.

This module holds the projections and the mask; the arithmetic — serving
and training alike — runs graph-free in :mod:`repro.llm.infer` (its
gradient in :mod:`repro.llm.vjp`).  The autograd attention it replaced is
the reference in ``tests/oracles/graph.py``.
"""

from __future__ import annotations

import numpy as np

from ..ag import Linear, Module
from ..utils import rng_from_seed

__all__ = ["MultiHeadSelfAttention", "KVPrefix"]

# A per-layer prefix: (keys, values), each of shape (1, heads, P, d_head).
KVPrefix = tuple[np.ndarray, np.ndarray]


class MultiHeadSelfAttention(Module):
    """Standard causal self-attention; optional KV prefix of length P."""

    def __init__(self, d_model: int, n_heads: int, *,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        rng = rng or rng_from_seed(0)
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        self.q_proj = Linear(d_model, d_model, rng=rng)
        self.k_proj = Linear(d_model, d_model, rng=rng)
        self.v_proj = Linear(d_model, d_model, rng=rng)
        self.out_proj = Linear(d_model, d_model, rng=rng)

    def _check_kv(self, k: np.ndarray, v: np.ndarray, what: str) -> None:
        if k.shape != v.shape:
            raise ValueError(f"{what} keys/values must share a shape")
        if k.shape[1] != self.n_heads or k.shape[3] != self.d_head:
            raise ValueError(
                f"{what} shaped {k.shape} incompatible with "
                f"{self.n_heads} heads of size {self.d_head}"
            )

    @staticmethod
    def _causal_mask(length: int, prefix_len: int,
                     past_len: int = 0) -> np.ndarray:
        """Boolean mask, True = blocked. Shape (T, P+T_past+T).

        Query ``i`` sits at absolute position ``past_len + i``; it sees the
        whole prefix, every cached position, and tokens up to itself.
        """
        token_part = np.triu(np.ones((length, past_len + length), dtype=bool),
                             k=past_len + 1)
        if prefix_len == 0:
            return token_part
        prefix_part = np.zeros((length, prefix_len), dtype=bool)
        return np.concatenate([prefix_part, token_part], axis=1)
