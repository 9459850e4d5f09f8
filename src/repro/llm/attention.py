"""Multi-head causal self-attention with external key/value prefixes.

The KV-prefix hook is what makes prefix tuning and P-tuning v2 possible:
both inject trained ``(key, value)`` matrices that every query position may
attend to, ahead of the causal window.

This module is the *training* attention: it records an autograd graph and
always sees whole sequences.  Serving-time attention (prefill, the batched
decode round, speculative verify) runs the same arithmetic graph-free, over
cached keys/values, in :mod:`repro.llm.infer`.
"""

from __future__ import annotations

import numpy as np

from ..ag import Linear, Module, Tensor, cat, softmax
from ..utils import rng_from_seed

__all__ = ["MultiHeadSelfAttention", "KVPrefix"]

# A per-layer prefix: (keys, values), each of shape (batch, heads, P, d_head).
KVPrefix = tuple[Tensor, Tensor]

_NEG_INF = -1e9


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

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _check_kv(self, k: Tensor | np.ndarray, v: Tensor | np.ndarray,
                  what: str) -> None:
        if k.shape != v.shape:
            raise ValueError(f"{what} keys/values must share a shape")
        if k.shape[1] != self.n_heads or k.shape[3] != self.d_head:
            raise ValueError(
                f"{what} shaped {k.shape} incompatible with "
                f"{self.n_heads} heads of size {self.d_head}"
            )

    def forward(
        self,
        x: Tensor,
        prefix_kv: KVPrefix | None = None,
        key_padding_mask: np.ndarray | None = None,
    ) -> Tensor:
        """Attend over ``x`` (batch, T, d_model), optionally over a prefix.

        Prefix keys/values are visible to *all* query positions; the causal
        mask applies only among the real tokens.

        ``key_padding_mask`` is a boolean (batch, T) array, True at
        padded token positions: those keys receive zero attention weight
        from every query.  Prefix keys are trained conditioning and are
        never padded, so the mask covers only the real token positions.
        """
        batch, length, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, length)
        k = self._split_heads(self.k_proj(x), batch, length)
        v = self._split_heads(self.v_proj(x), batch, length)

        prefix_len = 0
        if prefix_kv is not None:
            pk, pv = prefix_kv
            self._check_kv(pk, pv, "prefix")
            prefix_len = pk.shape[2]
            k = cat([pk, k], axis=2)
            v = cat([pv, v], axis=2)

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.d_head))
        mask = self._causal_mask(length, prefix_len)
        if key_padding_mask is not None:
            padded = np.asarray(key_padding_mask, dtype=bool)
            if padded.shape != (batch, length):
                raise ValueError(
                    f"key_padding_mask shaped {padded.shape} incompatible "
                    f"with batch {batch} and {length} token keys"
                )
            if prefix_len:
                padded = np.concatenate(
                    [np.zeros((batch, prefix_len), dtype=bool), padded], axis=1)
            mask = mask[None, None, :, :] | padded[:, None, None, :]
        scores = scores.masked_fill(mask, _NEG_INF)
        weights = softmax(scores, axis=-1)
        context = weights @ v  # (batch, heads, T, d_head)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, length, self.d_model)
        return self.out_proj(merged)

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
