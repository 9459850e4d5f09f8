"""Single-query retrieval, as the tests read it.

Serving scores queries in batches (``CiMSearchEngine.query_batch``) and
takes each row's argmax; a test that asks about one query asks the same
way, through these helpers, and the digital :func:`wmsdp_reference` is
what a noise-free store must score.  Pooling is written out long-hand,
one matrix at a time (:func:`pad_rows`, :func:`avg_pool_rows`,
:func:`multi_scale_vectors`): what each row of
``repro.retrieval.multi_scale_batch`` must equal bit for bit.
"""

import numpy as np

from repro.retrieval import SSA_CONFIG, SearchConfig


def pad_rows(matrix: np.ndarray, length: int) -> np.ndarray:
    """Zero-pad or truncate ``matrix`` to exactly ``length`` rows."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D token matrix")
    if length <= 0:
        raise ValueError("length must be positive")
    rows, dims = matrix.shape
    if rows >= length:
        return matrix[:length].copy()
    out = np.zeros((length, dims), dtype=np.float32)
    out[:rows] = matrix
    return out


def avg_pool_rows(matrix: np.ndarray, scale: int) -> np.ndarray:
    """Average non-overlapping windows of ``scale`` rows.

    The row count must be divisible by ``scale`` (callers pad first).
    Scale 1 is the identity.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale == 1:
        return matrix.copy()
    rows, dims = matrix.shape
    if rows % scale != 0:
        raise ValueError(f"{rows} rows not divisible by scale {scale}")
    return matrix.reshape(rows // scale, scale, dims).mean(axis=1)


def multi_scale_vectors(matrix: np.ndarray, scales: tuple[int, ...],
                        length: int) -> dict[int, np.ndarray]:
    """Flattened pooled representations of ``matrix`` at each scale."""
    padded = pad_rows(matrix, length)
    return {scale: avg_pool_rows(padded, scale).reshape(-1)
            for scale in scales}


def query_scores(engine, encoded_query: np.ndarray) -> np.ndarray:
    """WMSDP similarity of one query against every stored OVT: the
    batch-of-one case of ``query_batch``."""
    return engine.query_batch([encoded_query])[0]


def best_match(engine, encoded_query: np.ndarray) -> int:
    """Index of the stored OVT the search picks for one query."""
    return int(np.argmax(query_scores(engine, encoded_query)))


def retrieve(deployment, input_text: str) -> int:
    """Index of the OVT a deployment's search picks for this input."""
    return best_match(deployment.engine, deployment.encode_query(input_text))


def _unit(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    return vector if norm == 0.0 else vector / norm


def wmsdp_reference(query: np.ndarray, candidate: np.ndarray,
                    config: SearchConfig = SSA_CONFIG) -> float:
    """Noise-free WMSDP between two token matrices (digital reference)."""
    q_vectors = multi_scale_vectors(query, config.scales, config.pad_length)
    c_vectors = multi_scale_vectors(candidate, config.scales, config.pad_length)
    total = 0.0
    for scale, weight in zip(config.scales, config.weights):
        q, c = _unit(q_vectors[scale]), _unit(c_vectors[scale])
        total += weight * float(q @ c)
    return total / sum(config.weights)
