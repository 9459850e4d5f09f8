"""OVT retrieval engines: the paper's SSA, and MIPS as the baseline.

Both engines store encoded OVT matrices on NVM crossbars (one column per
OVT and per scale) and answer queries with in-memory matrix multiplies.
The Weighted Multi-Scale Dot Product (Eq. 5) is

    WMSDP(e, p) = sum_i w_i * (Pool_i(e) . Pool_i(p)) / sum_i w_i

with scales {1, 2, 4} and weights {1.0, 0.8, 0.6}; MIPS is the degenerate
single-scale, weight-1 case.  Each scale's pooled query and stored
column are unit vectors, so each term is a per-scale cosine: SSA scores
a weighted mean of cosines and MIPS the scale-1 cosine, not a raw inner
product.

Queries batch end to end: :meth:`CiMSearchEngine.query_batch` scores every
pending query against every scale with one :meth:`CiMMatrix.matmat` per
scale, and a query scores the same alone as in any batch.  The strategy
is a name in :data:`RETRIEVAL_REGISTRY`, selected with
``FrameworkConfig(retrieval=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cim.accelerator import CiMMatrix, MitigationHooks
from ..cim.energy import RetrievalCostReport, cim_cost
from ..nvm.crossbar import CrossbarStats
from ..nvm.device_models import NVMDevice
from ..utils import (
    checked_states,
    load_state,
    pack_state,
    rng_from_seed,
    spawn_generators,
    state_generator,
)
from .pooling import multi_scale_batch

__all__ = ["SearchConfig", "SSA_CONFIG", "MIPS_CONFIG", "CiMSearchEngine",
           "RETRIEVAL_REGISTRY"]


@dataclass(frozen=True)
class SearchConfig:
    """Scales/weights of the search plus the NVM array geometry."""

    scales: tuple[int, ...] = (1, 2, 4)
    weights: tuple[float, ...] = (1.0, 0.8, 0.6)
    pad_length: int = 16
    adc_bits: int = 8

    def __post_init__(self):
        if len(self.scales) != len(self.weights):
            raise ValueError("scales and weights must pair up")
        if not self.scales:
            raise ValueError("need at least one scale")
        for scale in self.scales:
            if self.pad_length % scale != 0:
                raise ValueError(
                    f"pad_length {self.pad_length} not divisible by {scale}"
                )
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")


SSA_CONFIG = SearchConfig(scales=(1, 2, 4), weights=(1.0, 0.8, 0.6))
MIPS_CONFIG = SearchConfig(scales=(1,), weights=(1.0,))
RETRIEVAL_REGISTRY = {"ssa": SSA_CONFIG, "mips": MIPS_CONFIG}


class CiMSearchEngine:
    """Stores encoded OVTs on NVM and retrieves by WMSDP / MIPS.

    Each scale's ``(rows, n_ovts)`` matrix is one *store*, a
    :class:`CiMMatrix`.
    """

    # The device model is configuration: restore targets an engine
    # already built with the same device (snapshot stores its name).
    _SNAPSHOT_EXCLUDED = ("device",)

    def __init__(
        self,
        device: NVMDevice,
        *,
        sigma: float = 0.1,
        config: SearchConfig = SSA_CONFIG,
        mitigation: MitigationHooks | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.device = device
        self.sigma = sigma
        self.config = config
        self.mitigation = mitigation
        self._rng = rng or rng_from_seed(0)
        self._stores: dict[int, CiMMatrix] = {}
        self._norms: dict[int, np.ndarray] = {}
        self._row_counts: list[int] = []
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def n_stored(self) -> int:
        return self._count

    def build(self, encoded_ovts: list[np.ndarray]) -> None:
        """Program the scaled copies of every OVT into crossbars.

        ``encoded_ovts`` are (tokens, code_dim) matrices in the autoencoder
        space.  Re-building reprograms all arrays, exactly like rewriting
        the NVM.  The noise is a new draw only when *this* engine is
        rebuilt (each build spawns the next children of its generator).
        A new engine built from an equal generator — as every
        :class:`~repro.core.NVCiMDeployment` under one config is, for any
        user and after any re-tune — programs each tile from the same
        state, so a cell whose level and tile position are unchanged
        keeps its conductance bit for bit.
        """
        if not encoded_ovts:
            raise ValueError("need at least one OVT to build the store")
        self._row_counts = [m.shape[0] for m in encoded_ovts]
        self._count = len(encoded_ovts)
        self._stores.clear()
        self._norms = {}
        # One spawned stream per scale store: a store's programming noise
        # depends only on its position in the build, not on how many
        # tiles (hence draws) the stores built before it needed.
        store_rngs = iter(spawn_generators(self._rng,
                                           len(self.config.scales)))
        pooled = multi_scale_batch(encoded_ovts, self.config.scales,
                                   self.config.pad_length)
        for scale in self.config.scales:
            columns = []
            norms = []
            for vector in pooled[scale]:
                norm = float(np.linalg.norm(vector))
                if norm > 0:
                    vector = vector / norm
                columns.append(vector)
                norms.append(norm if norm > 0 else 1.0)
            self._norms[scale] = np.asarray(norms, dtype=np.float32)
            stacked = np.stack(columns, axis=1)  # (rows, n_ovts)
            self._stores[scale] = CiMMatrix(
                stacked, self.device, sigma=self.sigma,
                adc_bits=self.config.adc_bits,
                mitigation=self.mitigation, rng=next(store_rngs),
            )

    def query_batch(self, encoded_queries: Sequence[np.ndarray]) -> np.ndarray:
        """Scores of many queries at once, shape (batch, n_stored).

        All queries are pooled together, normalised per scale and scored
        against each scale's store with a single :meth:`CiMMatrix.matmat`
        — one batched in-memory GMM per scale instead of ``batch x
        scales`` matvecs.  Row ``i`` is what ``encoded_queries[i]``
        scores alone.
        """
        self._require_built()
        if len(encoded_queries) == 0:
            raise ValueError("query_batch needs at least one query")
        pooled = multi_scale_batch(encoded_queries, self.config.scales,
                                   self.config.pad_length)
        total = np.zeros((len(encoded_queries), self._count),
                         dtype=np.float64)
        for scale, weight in zip(self.config.scales, self.config.weights):
            vectors = pooled[scale]
            # Each row's own dot product, as np.linalg.norm takes it.
            norms = np.sqrt(np.vecdot(vectors, vectors))
            norms[norms == 0.0] = 1.0
            similarity = self._stores[scale].matmat(vectors / norms[:, None])
            total += np.multiply(similarity, weight, dtype=np.float64)
        return (total / sum(self.config.weights)).astype(np.float32)

    def restore(self, index: int) -> np.ndarray:
        """Read OVT ``index`` back from NVM (noisy), (tokens, code_dim).

        Only the tiles covering the stored column are read (a column-range
        read), so ``cell_reads`` bills the restore for exactly the cells
        it touches instead of the entire scale-1 store.
        """
        self._require_built()
        if not 0 <= index < self._count:
            raise IndexError(f"OVT index {index} out of range")
        if 1 not in self.config.scales:
            raise RuntimeError("restore requires the scale-1 store")
        column = self._stores[1].read_columns(index, index + 1)[:, 0]
        # Stored columns are unit vectors; the norm travels digitally.
        column = column * self._norms[1][index]
        code_dim = column.size // self.config.pad_length
        full = column.reshape(self.config.pad_length, code_dim)
        return full[:self._row_counts[index]].copy()

    def aggregate_stats(self) -> CrossbarStats:
        """Operation counters summed over every scale's store.

        Each store sums its bank's counter vectors, so this is cheap
        enough for per-request serving telemetry.
        """
        total = CrossbarStats()
        for store in self._stores.values():
            total.add(store.aggregate_stats())
        return total

    def query_cost(self) -> RetrievalCostReport:
        """What one query costs: one MVM over every tile of every scale
        store's bank, priced for the device's technology."""
        self._require_built()
        return cim_cost(self.device.kind, self._count,
                        [store.bank.extent for store in self._stores.values()])

    def nvm_bytes(self) -> int:
        """Resident bytes of every scale store's tile bank (see
        :attr:`TileBank.nbytes`)."""
        return sum(store.nbytes for store in self._stores.values())

    def _require_built(self) -> None:
        if self._count == 0:
            raise RuntimeError("search engine is empty; call build() first")

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture of the built store's durable state.

        The per-scale store snapshots (each :class:`CiMMatrix`'s
        conductances, counters and generator states under ``"stores"``)
        plus this engine's own generator as one packed state row
        (``rng_state``, see :func:`repro.utils.pack_state`) — everything
        :meth:`from_snapshot` needs to rebuild the stores bit-identically
        without reprogramming.
        """
        self._require_built()
        return {
            "count": self._count,
            "row_counts": list(self._row_counts),
            "sigma": self.sigma,
            "norms": {str(scale): norms.copy()
                      for scale, norms in self._norms.items()},
            "rng_state": pack_state(self._rng),
            "stores": {
                str(scale): store.snapshot()
                for scale, store in self._stores.items()},
        }

    def _check_snapshot(self, snap: dict) -> None:
        """Refuse parts that disagree about what the engine holds:
        per-scale sections (``stores``, ``norms``) that are not
        exactly ``config.scales``, or ``row_counts`` / norms that are not
        ``count`` long."""
        scales = sorted(self.config.scales)
        for part in ("stores", "norms"):
            held = sorted(int(scale) for scale in snap[part])
            if held != scales:
                raise ValueError(f"snapshot {part} cover scales {held}, "
                                 f"the search uses {scales}")
        count = int(snap["count"])
        shapes = {np.shape(norms) for norms in snap["norms"].values()}
        if len(snap["row_counts"]) != count or shapes != {(count,)}:
            raise ValueError(
                f"snapshot of {count} OVTs holds "
                f"{len(snap['row_counts'])} row counts and norms of "
                f"shapes {sorted(shapes)}")

    @classmethod
    def from_snapshot(
        cls,
        snap: dict,
        device: NVMDevice,
        *,
        config: SearchConfig = SSA_CONFIG,
        mitigation: MitigationHooks | None = None,
    ) -> "CiMSearchEngine":
        """Rebuild a store from a :meth:`snapshot`, bit-identically.

        No crossbar is programmed: every scale store comes back through
        :meth:`CiMMatrix.from_snapshot`, counters and generator states
        included, and the engine's generator is a
        :func:`~repro.utils.state_generator` set to the packed
        ``rng_state``, so nothing is seeded only to be overwritten (like a
        bank's, it carries a state, not a seed sequence to spawn from: a
        re-deploy builds a new engine).  A section whose parts
        disagree (see :meth:`_check_snapshot`), a state that is not one
        PCG64 state, or a store that is not ``(rows_s, count)`` —
        ``pad_length // s`` pooled tokens of one code width — is a
        ``ValueError`` here rather than an error on every query.
        """
        self = cls(device, sigma=float(snap["sigma"]), config=config,
                   mitigation=mitigation, rng=state_generator())
        self._check_snapshot(snap)
        rng_state = checked_states(np.asarray(snap["rng_state"])[None], 1)[0]
        count = int(snap["count"])
        stores = {int(scale): CiMMatrix.from_snapshot(
                      store, device, mitigation=self.mitigation)
                  for scale, store in snap["stores"].items()}
        first = min(stores)
        code_dim = stores[first].shape[0] * first // config.pad_length
        for scale, store in stores.items():
            shape = (config.pad_length // scale * code_dim, count)
            if tuple(store.shape) != shape:
                raise ValueError(f"the scale-{scale} store holds a "
                                 f"{tuple(store.shape)} matrix, not {shape}")
        self._count = count
        self._row_counts = [int(n) for n in snap["row_counts"]]
        self._norms = {int(scale): np.array(norms, dtype=np.float32)
                       for scale, norms in snap["norms"].items()}
        self._stores = stores
        load_state(self._rng, rng_state)
        return self
