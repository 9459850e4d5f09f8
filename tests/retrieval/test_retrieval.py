"""Tests for pooling, WMSDP and the CiM search engines."""

import contextlib

import numpy as np
import pytest

from repro.nvm import get_device
from repro.retrieval import (
    MIPS_CONFIG,
    SSA_CONFIG,
    CiMSearchEngine,
    SearchConfig,
    multi_scale_batch,
)
from repro.serve.codec import decode_value, encode_value
from repro.utils import STATE_WORDS
from tests.oracles.legacy_rngs import dict_form
from tests.oracles.per_tile_cim import per_tile_stores
from tests.oracles.retrieval import (
    best_match,
    multi_scale_vectors,
    query_scores,
    wmsdp_reference,
)

RNG = np.random.default_rng(31)


def pooled(matrix, scale, length):
    """One matrix's pooled vector at one scale."""
    return multi_scale_batch([matrix], (scale,), length)[scale][0]


class TestPooling:
    def test_pad_extends_with_zeros(self):
        out = pooled(np.ones((3, 4)), 1, 6).reshape(6, 4)
        np.testing.assert_allclose(out[:3], 1.0)
        np.testing.assert_allclose(out[3:], 0.0)

    def test_pad_truncates(self):
        out = pooled(np.arange(20).reshape(10, 2), 1, 4)
        assert out.shape == (8,)
        np.testing.assert_allclose(out.reshape(4, 2)[3], [6, 7])

    def test_pad_validation(self):
        with pytest.raises(ValueError):
            pooled(np.ones(4), 1, 2)
        with pytest.raises(ValueError):
            pooled(np.ones((2, 2)), 1, 0)

    def test_scale1_identity(self):
        x = RNG.normal(size=(8, 3)).astype(np.float32)
        np.testing.assert_allclose(pooled(x, 1, 8), x.reshape(-1))

    def test_scale2_averages_pairs(self):
        x = np.array([[1.0], [3.0], [5.0], [7.0]], dtype=np.float32)
        np.testing.assert_allclose(pooled(x, 2, 4), [2.0, 6.0])

    def test_indivisible_rows_rejected(self):
        with pytest.raises(ValueError):
            pooled(np.ones((5, 2)), 2, 5)
        with pytest.raises(ValueError):
            pooled(np.ones((4, 2)), 0, 4)

    def test_multi_scale_shapes(self):
        vectors = multi_scale_batch([RNG.normal(size=(10, 6))], (1, 2, 4), 16)
        assert vectors[1].shape == (1, 96)
        assert vectors[2].shape == (1, 48)
        assert vectors[4].shape == (1, 24)

    @pytest.mark.parametrize("dims", [1, 3, 48])
    def test_batch_rows_are_each_matrix_alone(self, dims):
        """Truncated, padded, all-zero and dims-of-one matrices pooled
        together equal each pooled alone the long way (pad, then a window
        mean), bit for bit."""
        matrices = [RNG.normal(size=(rows, dims)).astype(np.float32)
                    for rows in (1, 7, 16, 23)]
        matrices.append(np.zeros((5, dims)))
        batch = multi_scale_batch(matrices, (1, 2, 4, 8), 16)
        for i, matrix in enumerate(matrices):
            alone = multi_scale_vectors(matrix, (1, 2, 4, 8), 16)
            for scale, vectors in batch.items():
                assert vectors.dtype == np.float32
                assert np.array_equal(vectors[i], alone[scale])

    def test_batch_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            multi_scale_batch([np.ones((2, 2)), np.ones(4)], (1,), 2)
        with pytest.raises(ValueError, match="positive"):
            multi_scale_batch([np.ones((2, 2))], (1,), 0)
        with pytest.raises(ValueError, match="divisible"):
            multi_scale_batch([np.ones((2, 2))], (1, 4), 6)

    def test_pooling_preserves_mean(self):
        x = RNG.normal(size=(16, 4)).astype(np.float32)
        np.testing.assert_allclose(pooled(x, 4, 16).reshape(4, 4).mean(axis=0),
                                   x.mean(axis=0), atol=1e-6)


class TestSearchConfig:
    def test_defaults_match_paper(self):
        assert SSA_CONFIG.scales == (1, 2, 4)
        assert SSA_CONFIG.weights == (1.0, 0.8, 0.6)
        assert MIPS_CONFIG.scales == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(scales=(1, 2), weights=(1.0,))
        with pytest.raises(ValueError):
            SearchConfig(scales=(3,), weights=(1.0,))  # 16 % 3 != 0
        with pytest.raises(ValueError):
            SearchConfig(scales=(1,), weights=(0.0,))
        with pytest.raises(ValueError):
            SearchConfig(scales=(), weights=())


class TestWMSDPReference:
    def test_self_similarity_highest(self):
        mats = [RNG.normal(size=(8, 6)).astype(np.float32) for _ in range(5)]
        for i, query in enumerate(mats):
            scores = [wmsdp_reference(query, m) for m in mats]
            assert int(np.argmax(scores)) == i

    def test_normalized_self_similarity_is_one(self):
        m = RNG.normal(size=(8, 6)).astype(np.float32)
        assert wmsdp_reference(m, m) == pytest.approx(1.0, abs=1e-5)

    def test_mips_equals_cosine_of_flattened_matrices(self):
        config = SearchConfig(scales=(1,), weights=(1.0,))
        a = RNG.normal(size=(16, 4)).astype(np.float32).reshape(-1)
        b = RNG.normal(size=(16, 4)).astype(np.float32).reshape(-1)
        expected = float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))
        assert wmsdp_reference(a.reshape(16, 4), b.reshape(16, 4),
                               config) == pytest.approx(expected, rel=1e-5)

    def test_weights_influence_score(self):
        a = RNG.normal(size=(16, 4)).astype(np.float32)
        b = RNG.normal(size=(16, 4)).astype(np.float32)
        heavy_coarse = SearchConfig(scales=(1, 4), weights=(0.1, 2.0))
        heavy_fine = SearchConfig(scales=(1, 4), weights=(2.0, 0.1))
        assert (wmsdp_reference(a, b, heavy_coarse)
                != pytest.approx(wmsdp_reference(a, b, heavy_fine)))


class TestCiMSearchEngine:
    def _ovts(self, n=6, rows=8, dim=12):
        return [RNG.normal(size=(rows, dim)).astype(np.float32)
                for _ in range(n)]

    def _engine(self, sigma=0.0, config=SSA_CONFIG, seed=0):
        return CiMSearchEngine(get_device("NVM-3"), sigma=sigma,
                               config=config,
                               rng=np.random.default_rng(seed))

    def test_retrieves_self_without_noise(self):
        ovts = self._ovts()
        engine = self._engine(sigma=0.0)
        engine.build(ovts)
        for i, ovt in enumerate(ovts):
            assert best_match(engine, ovt) == i

    def test_cim_scores_close_to_digital_without_noise(self):
        """Noise-free crossbars score what the digital WMSDP reference
        scores, up to the ADC and conductance quantization."""
        ovts = self._ovts(4)
        engine = self._engine(sigma=0.0)
        engine.build(ovts)
        query = RNG.normal(size=(9, 12)).astype(np.float32)
        np.testing.assert_allclose(
            query_scores(engine, query),
            [wmsdp_reference(query, ovt) for ovt in ovts], atol=0.02)

    @pytest.mark.parametrize("config", [SSA_CONFIG, MIPS_CONFIG],
                             ids=["ssa", "mips"])
    def test_scores_are_per_scale_cosines(self, config):
        """Each scale's pooled query and stored column are unit
        vectors: rescaling the query or any stored OVT
        leaves every score where it was, for SSA and MIPS alike."""
        ovts = self._ovts(4)
        plain = self._engine(sigma=0.0, config=config)
        plain.build(ovts)
        scaled = self._engine(sigma=0.0, config=config)
        scaled.build([ovt * factor
                      for ovt, factor in zip(ovts, (0.2, 1.0, 5.0, 40.0))])
        query = RNG.normal(size=(9, 12)).astype(np.float32)
        np.testing.assert_allclose(query_scores(scaled, query * 7.0),
                                   query_scores(plain, query), atol=1e-6)

    def test_restore_roundtrip_without_noise(self):
        ovts = self._ovts(3)
        engine = self._engine(sigma=0.0)
        engine.build(ovts)
        restored = engine.restore(1)
        assert restored.shape == ovts[1].shape
        np.testing.assert_allclose(restored, ovts[1], atol=0.02)

    def test_restore_works_when_scale_one_not_first(self):
        """Regression: restore used to require scales[0] == 1, wrongly
        failing configs where the scale-1 store exists later in the tuple."""
        config = SearchConfig(scales=(2, 1, 4), weights=(0.8, 1.0, 0.6))
        ovts = self._ovts(3)
        engine = self._engine(sigma=0.0, config=config)
        engine.build(ovts)
        restored = engine.restore(2)
        assert restored.shape == ovts[2].shape
        np.testing.assert_allclose(restored, ovts[2], atol=0.02)

    def test_restore_without_scale_one_store_rejected(self):
        config = SearchConfig(scales=(2, 4), weights=(1.0, 0.8))
        engine = self._engine(sigma=0.0, config=config)
        engine.build(self._ovts(2))
        with pytest.raises(RuntimeError):
            engine.restore(0)

    def test_restore_noise_grows_with_sigma(self):
        ovts = self._ovts(3)
        errors = []
        for sigma in (0.02, 0.2):
            engine = self._engine(sigma=sigma, seed=5)
            engine.build(ovts)
            errors.append(np.abs(engine.restore(0) - ovts[0]).mean())
        assert errors[0] < errors[1]

    def test_ssa_more_noise_robust_than_mips(self):
        """The paper's core retrieval claim, as a statistical property."""
        ovts = [RNG.normal(size=(8, 12)).astype(np.float32) for _ in range(8)]
        hits = {"ssa": 0, "mips": 0}
        for trial in range(12):
            for name, config in (("ssa", SSA_CONFIG), ("mips", MIPS_CONFIG)):
                engine = CiMSearchEngine(get_device("NVM-3"), sigma=0.3,
                                         config=config,
                                         rng=np.random.default_rng(trial))
                engine.build(ovts)
                # Query = noisy version of a stored OVT.
                probe_rng = np.random.default_rng(100 + trial)
                target = trial % len(ovts)
                query = ovts[target] + probe_rng.normal(
                    0, 0.4, ovts[target].shape).astype(np.float32)
                hits[name] += best_match(engine, query) == target
        assert hits["ssa"] >= hits["mips"]

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            self._engine().build([])

    def test_query_before_build_rejected(self):
        with pytest.raises(RuntimeError):
            query_scores(self._engine(), np.zeros((4, 12)))

    def test_restore_index_checked(self):
        engine = self._engine(sigma=0.0)
        engine.build(self._ovts(2))
        with pytest.raises(IndexError):
            engine.restore(5)

    def test_rebuild_replaces_store(self):
        engine = self._engine(sigma=0.0)
        engine.build(self._ovts(4))
        fresh = self._ovts(2)
        engine.build(fresh)
        assert engine.n_stored == 2
        assert best_match(engine, fresh[1]) == 1

    def test_snapshot_parts_must_agree(self):
        """A snapshot whose stores are one OVT wider than ``count`` says,
        or that lost a scale, is refused at restore — not by every later
        query."""
        engine = self._engine(sigma=0.1)
        engine.build(self._ovts(3))
        narrow = engine.snapshot()
        narrow.update(count=2, row_counts=narrow["row_counts"][:2],
                      norms={s: n[:2] for s, n in narrow["norms"].items()})
        missing = engine.snapshot()
        del missing["stores"]["2"]
        for snap, reason in ((narrow, r"\(192, 3\) matrix, not \(192, 2\)"),
                             (missing, "stores cover scales")):
            with pytest.raises(ValueError, match=reason):
                CiMSearchEngine.from_snapshot(snap, get_device("NVM-3"))
        rebuilt = CiMSearchEngine.from_snapshot(engine.snapshot(),
                                                get_device("NVM-3"))
        query = self._ovts(1)[0]
        assert np.array_equal(query_scores(rebuilt, query),
                              query_scores(engine, query))


    def test_old_form_rng_dicts_are_refused(self):
        """An earlier build's engine snapshot — its own generator under
        ``rng`` and each bank's under ``rngs``, as PCG64 state dicts —
        is not read: this build restores only packed rows."""
        engine = self._engine(sigma=0.1)
        engine.build(self._ovts(3))
        snap = engine.snapshot()
        assert snap["rng_state"].dtype == np.uint64
        assert snap["rng_state"].shape == (STATE_WORDS,)
        old = decode_value(encode_value(dict_form(snap)))
        assert "rng_state" not in old and old["rng"]["name"] == "PCG64"
        with pytest.raises(KeyError, match="rng_state"):
            CiMSearchEngine.from_snapshot(old, get_device("NVM-3"))
        # The bank dicts alone are refused too, behind a packed engine row.
        old["rng_state"] = snap["rng_state"]
        with pytest.raises(KeyError, match="rng_states"):
            CiMSearchEngine.from_snapshot(old, get_device("NVM-3"))

    @pytest.mark.parametrize("state", [
        np.zeros(STATE_WORDS, dtype=np.int64),       # not uint64
        np.zeros(STATE_WORDS - 1, dtype=np.uint64),  # a word short
        np.zeros(STATE_WORDS, dtype=np.uint64),      # an even increment
    ])
    def test_malformed_rng_state_refused(self, state):
        engine = self._engine(sigma=0.1)
        engine.build(self._ovts(2))
        snap = dict(engine.snapshot(), rng_state=state)
        with pytest.raises(ValueError, match="generator states"):
            CiMSearchEngine.from_snapshot(snap, get_device("NVM-3"))

class TestBatchedQueries:
    def _ovts(self, n=6, rows=8, dim=12):
        return [RNG.normal(size=(rows, dim)).astype(np.float32)
                for _ in range(n)]

    def _engine(self, sigma=0.0, config=SSA_CONFIG, seed=0):
        return CiMSearchEngine(get_device("NVM-3"), sigma=sigma,
                               config=config,
                               rng=np.random.default_rng(seed))

    def _build(self, engine, ovts, vectorized=True):
        """Program the stores: TileBank, or the per-tile oracle's."""
        with contextlib.nullcontext() if vectorized else per_tile_stores():
            engine.build(ovts)

    def _queries(self, n=5):
        return [RNG.normal(size=(rows, 12)).astype(np.float32)
                for rows in range(6, 6 + n)]

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_batch_matches_sequential(self, vectorized):
        engine = self._engine(sigma=0.1)
        self._build(engine, self._ovts(), vectorized)
        queries = self._queries()
        batched = engine.query_batch(queries)
        sequential = np.stack([query_scores(engine, q) for q in queries])
        np.testing.assert_allclose(batched, sequential,
                                   rtol=1e-5, atol=1e-6)
        assert np.argmax(batched, axis=1).tolist() == \
            [best_match(engine, q) for q in queries]

    def test_batched_scores_bitwise_stable_on_cim(self):
        """Batch width must not change a query's score (the serve layer
        snapshots scores into responses, sequential or batched)."""
        engine = self._engine(sigma=0.1)
        engine.build(self._ovts())
        queries = self._queries(4)
        batched = engine.query_batch(queries)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(batched[i], query_scores(engine, q))

    def test_retrieve_batch_breaks_ties_like_sequential(self):
        """Duplicate OVTs score exact ties on noise-free crossbars; argmax
        must resolve them identically in both paths."""
        ovt = RNG.normal(size=(8, 12)).astype(np.float32)
        engine = self._engine(sigma=0.0)
        engine.build([ovt.copy(), ovt.copy(), ovt.copy()])
        queries = [ovt, ovt + 0.1, ovt * 2.0]
        assert np.argmax(engine.query_batch(queries), axis=1).tolist() == \
            [best_match(engine, q) for q in queries] == [0, 0, 0]

    def test_empty_batch_rejected(self):
        engine = self._engine()
        engine.build(self._ovts(2))
        with pytest.raises(ValueError):
            engine.query_batch([])

    def test_restore_reads_only_covering_tiles(self):
        engine = self._engine(sigma=0.0)
        engine.build(self._ovts(4))
        before = engine.aggregate_stats().cell_reads
        engine.restore(2)
        delta = engine.aggregate_stats().cell_reads - before
        scale1 = engine._stores[1]
        rows, n_ovts = scale1.shape
        # One stored column out of four: the occupied rows of one column
        # per slice, a quarter of what the store holds.
        assert 0 < delta == scale1.n_slices * rows
        assert delta * n_ovts == scale1.aggregate_stats().cells_programmed

    def test_aggregate_stats_layout_parity(self):
        """Counters exactly, scores to float tolerance, same picks, same
        restored OVT — TileBank stores vs the per-tile oracle's."""
        ovts = self._ovts(4)
        queries = self._queries(3)
        totals, scores, picks, restored = [], [], [], []
        for vectorized in (False, True):
            engine = self._engine(sigma=0.1)
            self._build(engine, ovts, vectorized)
            scores.append(engine.query_batch(queries))
            picks.append([int(i) for i in np.argmax(scores[-1], axis=1)])
            restored.append(engine.restore(1))
            totals.append(engine.aggregate_stats())
        assert totals[0] == totals[1]
        np.testing.assert_allclose(scores[0], scores[1],
                                   rtol=1e-3, atol=1e-3)
        assert picks[0] == picks[1]
        np.testing.assert_array_equal(restored[0], restored[1])
