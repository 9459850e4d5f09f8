"""Per-layer key/value caches for incremental decoding.

A :class:`KVCache` holds, for every transformer layer, the keys and values
of all positions processed so far: float32 ndarrays shaped ``(batch, heads,
T, d_head)`` — nothing autograd ever consumes a cache, so there is no
``Tensor`` here.  Caches are value-immutable: prefill and every decode
round (:mod:`repro.llm.infer`) return a *new* cache whose arrays extend the
old one (the old cache and its arrays are never mutated), so a prefill
cache can be shared safely between many decodes — the basis of the serving
engine's prefill reuse.

A :class:`BatchedKVCache` groups many single-sequence caches so one decode
round can advance them together even though their cached lengths are
ragged (different users' prompts, admitted at different times).  Because
single-sequence caches are value-immutable, :meth:`BatchedKVCache.stack`
and :meth:`BatchedKVCache.split` are O(batch) reference operations — no
array is ever copied or padded.  Keeping each sequence's rows compact
(rather than right-padding to the longest and masking) is what lets the
batched decode round reproduce each sequence decoded alone, bit for bit:
padded reductions change numpy's summation tree and drift by ulps.

Trained KV *prefixes* (prefix tuning / P-tuning v2) are deliberately not
stored here: they are constant conditioning (``Tensor`` pairs, trained
through the autograd forward) re-attached on every step, while the cache
only accumulates real positions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["KVCache", "BatchedKVCache"]

# One layer's cached (keys, values), each (batch, heads, T, d_head) float32.
KVArrays = tuple[np.ndarray, np.ndarray]


class KVCache:
    """Immutable-by-convention container of one ``(key, value)`` pair per layer."""

    __slots__ = ("_layers",)

    def __init__(self, layers: list[KVArrays]):
        if not layers:
            raise ValueError("KVCache needs at least one layer")
        lengths = {kv[0].shape[2] for kv in layers}
        if len(lengths) != 1:
            raise ValueError(
                f"all layers must cache the same number of positions, "
                f"got lengths {sorted(lengths)}"
            )
        self._layers = list(layers)

    # ------------------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return len(self._layers)

    @property
    def seq_len(self) -> int:
        """Number of positions cached (soft-prompt rows count as positions)."""
        return self._layers[0][0].shape[2]

    @property
    def batch_size(self) -> int:
        return self._layers[0][0].shape[0]

    def layer(self, index: int) -> KVArrays:
        """The cached ``(key, value)`` pair of one layer."""
        return self._layers[index]

    def memory_bytes(self) -> int:
        """Approximate cache footprint (for serving telemetry)."""
        return sum(k.nbytes + v.nbytes for k, v in self._layers)

    def truncate(self, length: int, *, copy: bool = True) -> "KVCache":
        """A new cache covering only the first ``length`` positions.

        This is the rollback primitive of speculative decoding: a verify
        forward extends the cache with every *drafted* position, and the
        rejected suffix is discarded by truncating back to the accepted
        length.  The original cache is untouched (value-immutability is
        the contract everything else relies on).  With ``copy=True`` the
        kept rows are copied so the truncated cache never pins the
        rejected arrays alive; ``copy=False`` returns zero-copy views
        for hot paths that drop the source within a round anyway (the
        rejected tail is at most a few positions, so pinning it costs
        almost nothing).
        """
        if not 1 <= length <= self.seq_len:
            raise ValueError(
                f"cannot truncate a {self.seq_len}-position cache to "
                f"{length} positions"
            )
        if length == self.seq_len:
            return self
        layers = [(k[:, :, :length], v[:, :, :length])
                  for k, v in self._layers]
        if copy:
            layers = [(np.ascontiguousarray(k), np.ascontiguousarray(v))
                      for k, v in layers]
        return KVCache(layers)

    def __len__(self) -> int:
        return self.n_layers

    def __repr__(self) -> str:
        return (f"KVCache(n_layers={self.n_layers}, seq_len={self.seq_len}, "
                f"batch={self.batch_size})")


class BatchedKVCache:
    """A ragged batch of single-sequence caches advancing in lockstep.

    Each member cache must have ``batch_size == 1`` and the same number of
    layers; their sequence lengths may differ (that is the point — a decode
    round serves users whose prompts were different lengths and who were
    admitted at different times).  The container is as immutable as its
    members: a decode round builds a *new* :class:`BatchedKVCache` from the
    extended per-sequence caches.
    """

    __slots__ = ("_caches",)

    def __init__(self, caches: Sequence[KVCache]):
        caches = list(caches)
        if not caches:
            raise ValueError("BatchedKVCache needs at least one sequence")
        layer_counts = {cache.n_layers for cache in caches}
        if len(layer_counts) != 1:
            raise ValueError(
                f"all sequences must cache the same number of layers, "
                f"got {sorted(layer_counts)}"
            )
        for cache in caches:
            if cache.batch_size != 1:
                raise ValueError(
                    f"BatchedKVCache members must be single-sequence "
                    f"(batch 1), got batch {cache.batch_size}"
                )
        self._caches = caches

    # ------------------------------------------------------------------
    @classmethod
    def stack(cls, caches: Sequence[KVCache]) -> "BatchedKVCache":
        """Group single-sequence caches into one ragged batch (no copies)."""
        return cls(caches)

    def split(self) -> list[KVCache]:
        """The member caches, in batch order (no copies)."""
        return list(self._caches)

    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        return len(self._caches)

    @property
    def n_layers(self) -> int:
        return self._caches[0].n_layers

    @property
    def lengths(self) -> np.ndarray:
        """Cached positions per sequence (soft-prompt rows included)."""
        return np.array([cache.seq_len for cache in self._caches],
                        dtype=np.int64)

    def sequence(self, index: int) -> KVCache:
        """One sequence's cache."""
        return self._caches[index]

    def layer_slices(self, index: int) -> list[KVArrays]:
        """One layer's cached ``(key, value)`` pair for every sequence."""
        return [cache.layer(index) for cache in self._caches]

    def memory_bytes(self) -> int:
        """Aggregate KV footprint (for serving telemetry)."""
        return sum(cache.memory_bytes() for cache in self._caches)

    def __len__(self) -> int:
        return self.batch_size

    def __repr__(self) -> str:
        return (f"BatchedKVCache(batch={self.batch_size}, "
                f"n_layers={self.n_layers}, "
                f"lengths={self.lengths.tolist()})")
