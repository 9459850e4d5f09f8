"""Single-query retrieval, as the tests read it.

Serving scores queries in batches (``CiMSearchEngine.query_batch``) and
takes each row's argmax; a test that asks about one query asks the same
way, through these helpers, and the digital :func:`wmsdp_reference` is
what a noise-free store must score.
"""

import numpy as np

from repro.retrieval import SSA_CONFIG, SearchConfig, multi_scale_vectors


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
