"""Tests for the NVCiM-PT framework orchestration."""

import numpy as np
import pytest

from repro.core import (
    FrameworkConfig,
    NVCiMDeployment,
    OVTLibrary,
    OVTTrainingPipeline,
)
from repro.compression import AutoencoderConfig, OVTAutoencoder
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.nvm import TileBank
from repro.serve import PromptServeEngine
from repro.tuning import TuningConfig, VirtualTokens
from tests.engine_calls import answer_text, tune_one
from tests.oracles.generation import session_answer_sequential
from tests.oracles.per_tile_cim import tile_conductance
from tests.oracles.retrieval import retrieve


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def fast_config(**overrides):
    defaults = dict(buffer_capacity=10, device_name="NVM-3", sigma=0.1,
                    tuning=TuningConfig(steps=6, lr=0.05), seed=0)
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


class TestFrameworkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrameworkConfig(buffer_capacity=0)
        with pytest.raises(ValueError):
            FrameworkConfig(retrieval="knn")

    def test_search_config_derivation(self):
        assert FrameworkConfig(retrieval="ssa").search_config().scales == (1, 2, 4)
        assert FrameworkConfig(retrieval="mips").search_config().scales == (1,)

    def test_noise_config_inherits_sigma(self):
        config = FrameworkConfig(sigma=0.07)
        assert config.noise_config().sigma == 0.07


class TestTrainingPipeline:
    def test_epoch_fires_when_buffer_full(self, setup):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config())
        fired = [pipeline.observe(s) for s in stream_for(0, 10)]
        assert fired[-1] and not any(fired[:-1])
        assert len(pipeline.library.ovts) >= 1
        assert pipeline.library.autoencoder.is_trained

    def test_partial_buffer_trains_nothing(self, setup):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config())
        pipeline.run(stream_for(0, 7))
        assert len(pipeline.library.ovts) == 0

    def test_ovts_accumulate_across_epochs(self, setup):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config())
        pipeline.run(stream_for(0, 10))
        first = len(pipeline.library.ovts)
        pipeline.run(stream_for(0, 10, seed=1))
        assert len(pipeline.library.ovts) > first

    def test_k_follows_buffer_size(self, setup):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config())
        pipeline.run(stream_for(0, 10))
        # Eq. 2 with bs=10, b0=10: k = n_min = 2.
        assert len(pipeline.library.ovts) == 2

    def test_noise_aware_flag_recorded(self, setup):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok,
                                       fast_config(noise_aware=False))
        assert pipeline.library.noise_aware is False


class TestDeployment:
    def _library(self, setup, **overrides):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config(**overrides))
        pipeline.run(stream_for(0, 10))
        return pipeline.library

    def test_empty_library_rejected(self, setup):
        model, tok = setup
        ae = OVTAutoencoder(AutoencoderConfig(input_dim=model.config.d_model))
        empty = OVTLibrary(ovts=[], autoencoder=ae, noise_aware=True)
        with pytest.raises(ValueError):
            NVCiMDeployment(model, tok, empty, fast_config())

    def test_untrained_autoencoder_rejected(self, setup):
        model, tok = setup
        ae = OVTAutoencoder(AutoencoderConfig(input_dim=model.config.d_model))
        library = OVTLibrary(
            ovts=[VirtualTokens(np.zeros((4, model.config.d_model)))],
            autoencoder=ae, noise_aware=True)
        with pytest.raises(ValueError):
            NVCiMDeployment(model, tok, library, fast_config())

    def test_retrieve_returns_valid_index(self, setup):
        model, tok = setup
        library = self._library(setup)
        deployment = NVCiMDeployment(model, tok, library, fast_config())
        index = retrieve(deployment, stream_for(0, 1)[0].input_text)
        assert 0 <= index < len(library.ovts)

    def test_restored_prompt_shape_and_scale(self, setup):
        model, tok = setup
        library = self._library(setup)
        deployment = NVCiMDeployment(model, tok, library, fast_config())
        prompt = deployment.restored_prompt(0)
        original = library.ovts[0].matrix
        assert prompt.shape == original.shape
        # The restored prompt keeps the original magnitude (scale metadata).
        assert 0.3 < np.abs(prompt).max() / np.abs(original).max() < 3.0

    def test_answer_produces_text(self, setup):
        model, tok = setup
        library = self._library(setup)
        engine = PromptServeEngine(model, tok, fast_config())
        engine.load_session(0, library)
        out = answer_text(engine, 0, stream_for(0, 1)[0].input_text,
                          GenerationConfig(max_new_tokens=3,
                                           temperature=0.0,
                                           eos_id=tok.eos_id))
        assert isinstance(out, str)

    def test_noise_free_restore_is_exact_in_code_space(self, setup):
        """At sigma 0 the crossbars hand back every OVT's codes up to the
        conductance quantization, well inside 1e-4."""
        model, tok = setup
        library = self._library(setup, sigma=0.0)
        deployment = NVCiMDeployment(model, tok, library,
                                     fast_config(sigma=0.0))
        for index, ovt in enumerate(library.ovts):
            codes, _ = library.autoencoder.encode_matrix(ovt.matrix)
            np.testing.assert_allclose(deployment.engine.restore(index),
                                       codes, atol=1e-4)

    def test_mitigation_wired_through(self, setup):
        model, tok = setup
        library = self._library(setup)
        deployment = NVCiMDeployment(model, tok, library,
                                     fast_config(mitigation="cxdnn"))
        engine_matrix = deployment.engine._stores[1]
        assert "column_gain" in engine_matrix.calibration


class TestProgrammingNoiseStreams:
    """Every deployment under one config programs each tile from the same
    generator state: the search engine's stream is derived from
    ``(config.seed, "deployment", device, mitigation, retrieval)`` alone,
    not from the user or the re-tune.  So a re-deploy is not a fresh
    noise draw.  Pinned as it is; independent per-deployment streams
    would be a declared re-baseline (ROADMAP items 1 and 3)."""

    @staticmethod
    def programmed(setup, library, monkeypatch):
        """The deployment of ``library`` and, per scale store, the packed
        generator states its bank was programmed from."""
        model, tok = setup
        states = []
        program = TileBank.program

        def recording(bank, levels):
            states.append(bank._rng_states.copy())
            program(bank, levels)

        with monkeypatch.context() as patch:
            patch.setattr(TileBank, "program", recording)
            deployment = NVCiMDeployment(model, tok, library, fast_config())
        return deployment, states

    @staticmethod
    def library(setup, user_id, epochs=1):
        model, tok = setup
        pipeline = OVTTrainingPipeline(model, tok, fast_config())
        libraries = []
        for epoch in range(epochs):
            pipeline.run(stream_for(user_id, 10, seed=epoch))
            libraries.append(pipeline.library)
        return libraries

    def test_two_users_program_every_tile_from_equal_states(
            self, setup, monkeypatch):
        (first,) = self.library(setup, 0)
        (second,) = self.library(setup, 1)
        _, states_0 = self.programmed(setup, first, monkeypatch)
        _, states_1 = self.programmed(setup, second, monkeypatch)
        assert len(states_0) == len(states_1) == 3   # SSA's scales 1, 2, 4
        for store_0, store_1 in zip(states_0, states_1):
            tiles = min(len(store_0), len(store_1))
            assert np.array_equal(store_0[:tiles], store_1[:tiles])
        # The stores differ from each other: one stream per scale store.
        assert not np.array_equal(states_0[0][:1], states_0[1][:1])

    def test_a_redeploy_keeps_every_unchanged_cell_bit_for_bit(
            self, setup, monkeypatch):
        before, after = self.library(setup, 0, epochs=2)
        assert len(after.ovts) > len(before.ovts)
        old, _ = self.programmed(setup, before, monkeypatch)
        new, _ = self.programmed(setup, after, monkeypatch)
        kept = moved = 0
        for scale, old_store in old.engine._stores.items():
            old_bank = old_store.bank
            new_bank = new.engine._stores[scale].bank
            for index in range(min(old_bank.n_tiles, new_bank.n_tiles)):
                old_all = tile_conductance(old_bank, index)
                new_all = tile_conductance(new_bank, index)
                rows, cols = np.minimum(old_all.shape, new_all.shape)
                same = (old_bank.tile(index).target_levels[:rows, :cols]
                        == new_bank.tile(index).target_levels[:rows, :cols])
                old_cells = old_all[:rows, :cols]
                new_cells = new_all[:rows, :cols]
                assert np.array_equal(old_cells[same], new_cells[same])
                assert not (old_cells[~same] == new_cells[~same]).any()
                kept += int(same.sum())
                moved += int((~same).sum())
        assert kept and moved   # neither side of the claim is vacuous


class TestOneSessionEngine:
    """One user is a ``PromptServeEngine`` with one session, fed one
    sample at a time."""

    @staticmethod
    def _engine(setup):
        model, tok = setup
        engine = PromptServeEngine(model, tok, fast_config(), max_sessions=1)
        return engine, engine.session(0)

    def test_observe_then_answer(self, setup):
        _, tok = setup
        engine, _ = self._engine(setup)
        with pytest.raises(RuntimeError):
            answer_text(engine, 0, "movie about robot space tag")
        for sample in stream_for(0, 10):
            tune_one(engine, 0, sample)
        out = answer_text(engine, 0, stream_for(0, 1)[0].input_text,
                          GenerationConfig(max_new_tokens=3,
                                           temperature=0.0,
                                           eos_id=tok.eos_id))
        assert isinstance(out, str)

    def test_answer_is_served_by_the_engine(self, setup):
        """Same bytes as the engine-less oracle
        (``tests/oracles/generation.py``), and the query is on the
        engine's books."""
        _, tok = setup
        engine, session = self._engine(setup)
        for sample in stream_for(0, 10):
            tune_one(engine, 0, sample)
        text = stream_for(0, 1)[0].input_text
        for generation in (GenerationConfig(max_new_tokens=6,
                                            temperature=0.0,
                                            eos_id=tok.eos_id),
                           None):                    # the paper defaults
            served = engine.stats()["requests_served"]
            out = answer_text(engine, 0, text, generation)
            assert out.encode() == session_answer_sequential(
                session, text,
                generation or engine.default_generation()).encode()
            stats = engine.stats()
            assert stats["requests_served"] == served + 1
        assert stats["admitted"] == stats["latency_ms"]["count"] == 2
        # ``query`` keeps no answer on the slot, so the second config
        # decodes from the first one's prefill.
        assert stats["prefill_hits"] == stats["prefill_rows"] == 1
        assert stats["answer_hits"] == 0

    def test_deployment_rebuilt_after_new_epoch(self, setup):
        engine, session = self._engine(setup)
        for sample in stream_for(0, 10):
            tune_one(engine, 0, sample)
        answer_text(engine, 0, stream_for(0, 1)[0].input_text,
                    GenerationConfig(max_new_tokens=1))
        first = session._deployment
        for sample in stream_for(0, 10, seed=2):
            tune_one(engine, 0, sample)
        # Re-programmed when the epoch published, not by the next query.
        rebuilt = session._deployment
        assert rebuilt is not None and rebuilt is not first
        assert rebuilt.library is session.library
        answer_text(engine, 0, stream_for(0, 1)[0].input_text,
                    GenerationConfig(max_new_tokens=1))
        assert session._deployment is rebuilt
