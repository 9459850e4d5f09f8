"""Per-layer key/value storage for incremental decoding, in two roles.

Both hold, for every transformer layer, keys and values as float32 ndarrays
shaped ``(batch, heads, T, d_head)`` — nothing autograd ever consumes them,
so there is no ``Tensor`` here.

* :class:`KVCache` is the *shared, immutable* one: what :func:`prefill
  <repro.llm.generation.prefill>` returns (a stacked prefill's batch
  cache :meth:`~KVCache.split` into one per sequence) and the serving
  engine's prefill LRU keeps.  Nothing ever writes to its arrays, so one
  prefill can seed any number of decodes.  (The draft model's per-sequence cache is the same
  class: :func:`repro.llm.infer.extend` returns a new one per catch-up.)
* :class:`KVBuffer` is the *private, preallocated* one: at admission each
  decoding sequence copies its prefill cache, once, into buffers sized for
  every position it may still decode, and from then on a decode round
  writes its new rows in place at the cursor (``seq_len``).  Rolling back
  rejected speculation is an assignment to the cursor; the rows past it
  are scratch the next round overwrites.  A buffer is one row of a
  :class:`KVSlab` that a scheduler's admissions share, so sequences
  admitted together attend through one view under
  :mod:`~repro.llm.infer`'s grouping rule, bit for bit as decoded alone.

A trained KV *prefix* (prefix tuning / P-tuning v2) is constant
conditioning, not a cached position: a :class:`KVCache` never holds it,
and a :class:`KVBuffer` lays it down once at the head of each layer's
arrays, ahead of position 0, so every attention slice starts with it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KVCache", "KVSlab", "KVBuffer"]

# One layer's (keys, values), each (batch, heads, T, d_head) float32.
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

    def split(self) -> list[KVCache]:
        """One single-sequence cache per batch row, each viewing its row
        of this cache's arrays (C-contiguous, like the arrays)."""
        return [KVCache([(k[row:row + 1], v[row:row + 1])
                         for k, v in self._layers])
                for row in range(self.batch_size)]

    def memory_bytes(self) -> int:
        """Approximate cache footprint (for serving telemetry)."""
        return sum(k.nbytes + v.nbytes for k, v in self._layers)

    def __len__(self) -> int:
        return self.n_layers

    def __repr__(self) -> str:
        return (f"KVCache(n_layers={self.n_layers}, seq_len={self.seq_len}, "
                f"batch={self.batch_size})")


class KVSlab:
    """K/V storage the buffers of up to ``n_slots`` sequences share: per
    layer ``(keys, values)`` shaped ``(n_slots, heads, width, d_head)``,
    one slot (row) a :class:`KVBuffer`, claimed in order and never given
    back — so sequences admitted one after another sit in consecutive
    slots and the span forward views a group of them whole."""

    __slots__ = ("layers", "claimed")

    def __init__(self, cache: KVCache, width: int, n_slots: int):
        _, heads, _, d_head = cache.layer(0)[0].shape   # cache's geometry
        shape = (n_slots, heads, width, d_head)
        self.layers: list[KVArrays] = [
            (np.empty(shape, np.float32), np.empty(shape, np.float32))
            for _ in range(cache.n_layers)]
        self.claimed = 0

    def fits(self, rows: int) -> bool:
        """Whether a buffer of ``rows`` rows a layer can claim a slot."""
        n_slots, _, width, _ = self.layers[0][0].shape
        return self.claimed < n_slots and rows <= width


class KVBuffer:
    """One decoding sequence's private K/V storage, allocated once.

    Per layer, a ``(keys, values)`` pair shaped ``(1, heads, prefix_len +
    capacity, d_head)``: ``prefix_kv`` (one trained ndarray pair per
    layer, or None) in rows ``[:prefix_len]``, then ``cache`` — copied, so
    the shared prefill cache stays untouched — then room up to
    ``capacity`` positions: views of row :attr:`slot` of :attr:`slab` (of
    a one-slot slab of its own when none is given).  ``seq_len`` is the
    cursor, the number of positions that hold real keys/values:
    :meth:`~repro.llm.transformer.TinyCausalLM.decode_span` writes at it
    and advances it; assigning a smaller value discards a rejected suffix.
    """

    __slots__ = ("_layers", "slab", "slot", "prefix_len", "capacity",
                 "seq_len")

    def __init__(self, cache: KVCache, capacity: int,
                 prefix_kv: list | None = None, slab: KVSlab | None = None):
        if cache.batch_size != 1:
            raise ValueError(
                f"a KVBuffer holds one sequence (batch 1), got batch "
                f"{cache.batch_size}"
            )
        if capacity < cache.seq_len:
            raise ValueError(
                f"capacity {capacity} cannot hold the {cache.seq_len} "
                f"positions already cached"
            )
        if prefix_kv is not None and len(prefix_kv) != cache.n_layers:
            raise ValueError(
                f"prefix_kv has {len(prefix_kv)} entries for "
                f"{cache.n_layers} layers"
            )
        self.prefix_len = 0 if prefix_kv is None else prefix_kv[0][0].shape[2]
        self.capacity = capacity
        self.seq_len = cache.seq_len
        filled = self.prefix_len + cache.seq_len
        rows = self.prefix_len + capacity
        _, heads, _, d_head = cache.layer(0)[0].shape
        if slab is None:
            slab = KVSlab(cache, rows, 1)
        elif not slab.fits(rows):
            raise ValueError(f"no slot of {rows} rows left in the slab")
        self.slab, self.slot = slab, slab.claimed
        slab.claimed += 1
        self._layers: list[KVArrays] = []
        for index, store in enumerate(slab.layers):
            pair = tuple(buf[self.slot:self.slot + 1, :, :rows]
                         for buf in store)
            for which, buf in enumerate(pair):
                if prefix_kv is not None:
                    prefix = prefix_kv[index][which]
                    if prefix.shape != (1, heads, self.prefix_len, d_head):
                        raise ValueError(
                            f"prefix shaped {prefix.shape} incompatible "
                            f"with {heads} heads of size {d_head} and a "
                            f"{self.prefix_len}-row prefix"
                        )
                    buf[:, :, :self.prefix_len] = prefix
                buf[:, :, self.prefix_len:filled] = cache.layer(index)[which]
            self._layers.append(pair)

    @property
    def n_layers(self) -> int:
        return len(self._layers)

    def layer(self, index: int) -> KVArrays:
        """One layer's whole ``(keys, values)`` buffers — the arrays
        themselves, every call: rows ``[:prefix_len + seq_len]`` are live."""
        return self._layers[index]

    def __repr__(self) -> str:
        return (f"KVBuffer(n_layers={self.n_layers}, seq_len={self.seq_len}, "
                f"capacity={self.capacity}, prefix_len={self.prefix_len})")
