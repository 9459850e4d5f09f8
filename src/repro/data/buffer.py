"""The edge device's bounded data buffer.

User-generated samples accumulate here together with their embedding-layer
representations (the ``E(x)`` of the paper's Fig. 3).  When the buffer is
full, representative selection consumes it: representatives go to prompt
tuning, the remainder updates the autoencoder.
"""

from __future__ import annotations

import numpy as np

from .lamp import Sample

__all__ = ["DataBuffer"]


class DataBuffer:
    """Fixed-capacity FIFO of (sample, embedding) pairs."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self._samples: list[Sample] = []
        self._embeddings: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def is_full(self) -> bool:
        return len(self._samples) >= self.capacity

    @property
    def samples(self) -> list[Sample]:
        return list(self._samples)

    def embedding_matrix(self) -> np.ndarray:
        """All stored embeddings stacked to (n, d)."""
        if not self._embeddings:
            raise ValueError("buffer is empty")
        return np.stack(self._embeddings)

    # ------------------------------------------------------------------
    def add(self, sample: Sample, embedding: np.ndarray) -> None:
        """Store a sample; oldest entries are evicted once full."""
        embedding = np.asarray(embedding, dtype=np.float32).reshape(-1)
        if self._embeddings and embedding.shape != self._embeddings[0].shape:
            raise ValueError(
                f"embedding dim {embedding.shape} differs from stored "
                f"{self._embeddings[0].shape}"
            )
        if self.is_full:
            self._samples.pop(0)
            self._embeddings.pop(0)
        self._samples.append(sample)
        self._embeddings.append(embedding)

    def copy(self) -> "DataBuffer":
        """An independent buffer with the same entries (which are never
        mutated, so they are shared)."""
        twin = DataBuffer(self.capacity)
        twin._samples = list(self._samples)
        twin._embeddings = list(self._embeddings)
        return twin

    def clear(self) -> None:
        self._samples.clear()
        self._embeddings.clear()

    def take_all(self) -> tuple[list[Sample], np.ndarray]:
        """Drain the buffer, returning its contents."""
        samples = self.samples
        embeddings = self.embedding_matrix()
        self.clear()
        return samples, embeddings
