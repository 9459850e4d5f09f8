"""Tests for the prompt tuning methods on a tiny pretrained model."""

import numpy as np
import pytest

from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import (GenerationConfig, PretrainConfig, build_model,
                       prefill, pretrain_lm)
from repro.tuning import (
    DEPTTuner,
    IGNORE_INDEX,
    PTuningV2Tuner,
    PromptArtifact,
    PrefixTuner,
    TuningConfig,
    VanillaPromptTuner,
    VirtualTokens,
    build_training_ids,
    generate_with_artifact,
    make_target_vector,
    train_prompt_parameters,
)
from repro.ag import Parameter
from repro.tuning.dept import RANK
from repro.tuning.trainer import BATCH_SIZE

CFG = TuningConfig(steps=12, lr=0.05, seed=0)


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    user = make_user(0, seed=0)
    samples = make_dataset("LaMP-2").generate(user, 6, seed=1)
    return model, tok, samples


class TestSequencePlumbing:
    def test_build_training_ids(self, setup):
        _, tok, samples = setup
        full, mask = build_training_ids(samples[0], tok)
        input_len = tok.encode(samples[0].input_text).size
        assert full[-1] == tok.eos_id
        assert not mask[:input_len].any()
        assert mask[input_len:].all()

    def test_make_target_vector_alignment(self):
        full = np.array([10, 11, 12, 13])
        mask = np.array([False, False, True, True])
        targets = make_target_vector(full, mask, prompt_len=2)
        # length = 2 + 4 - 1 = 5; position p predicts full[p - 2 + 1]
        assert targets.tolist() == [IGNORE_INDEX, IGNORE_INDEX, IGNORE_INDEX,
                                    12, 13]

    def test_virtual_tokens_validation(self):
        with pytest.raises(ValueError):
            VirtualTokens(np.zeros(5))
        vt = VirtualTokens(np.zeros((4, 8)))
        assert vt.n_tokens == 4 and vt.d_model == 8
        copy = vt.copy()
        copy.matrix[0, 0] = 1.0
        assert vt.matrix[0, 0] == 0.0

    def test_tuning_config_validation(self):
        with pytest.raises(ValueError):
            TuningConfig(n_virtual_tokens=0)
        with pytest.raises(ValueError):
            TuningConfig(steps=0)
        with pytest.raises(ValueError):
            TuningConfig(anchor_weight=-1.0)


class TestTrainingLoop:
    """``train_prompt_parameters`` steps on minibatches of ``BATCH_SIZE``
    (8) samples, or on all of them when there are no more than that."""

    @staticmethod
    def batches_seen(samples, steps=5):
        weight = Parameter(np.zeros(3, dtype=np.float32))
        seen = []

        def step(batch):
            seen.append(list(batch))
            weight.grad = np.ones(3, dtype=np.float32)
            return 1.0
        history = train_prompt_parameters(
            [weight], step, samples, TuningConfig(steps=steps, seed=0))
        assert history == [1.0] * steps
        return seen

    def test_minibatch_is_eight_distinct_samples(self):
        samples = list(range(20))
        seen = self.batches_seen(samples)
        assert BATCH_SIZE == 8
        for batch in seen:
            assert len(batch) == len(set(batch)) == BATCH_SIZE
            assert set(batch) <= set(samples)
        assert len({tuple(batch) for batch in seen}) > 1   # redrawn per step

    def test_few_samples_train_on_all_of_them(self):
        samples = list(range(BATCH_SIZE))
        assert self.batches_seen(samples) == [samples] * 5


class TestVanillaPromptTuner:
    def test_produces_soft_prompt_artifact(self, setup):
        model, tok, samples = setup
        artifact = VanillaPromptTuner(model, tok, CFG).fit(samples[:1])
        assert artifact.soft_prompt is not None
        assert artifact.soft_prompt.matrix.shape == (8, model.config.d_model)
        assert artifact.method == "vanilla-pt"

    def test_single_sample_records_domain(self, setup):
        model, tok, samples = setup
        artifact = VanillaPromptTuner(model, tok, CFG).fit(samples[:1])
        assert artifact.soft_prompt.domain == samples[0].domain
        assert artifact.soft_prompt.source == samples[0]

    def test_training_reduces_loss(self, setup):
        model, tok, samples = setup
        from repro.tuning import prompt_loss_and_grad
        artifact = VanillaPromptTuner(model, tok, CFG).fit(samples[:1])
        from repro.tuning.vanilla import initial_prompt_matrix
        init = initial_prompt_matrix(model, tok, samples[:1], 8,
                                     np.random.default_rng(0))
        before, _ = prompt_loss_and_grad(model, init, samples[:1], tok)
        after, _ = prompt_loss_and_grad(model, artifact.soft_prompt.matrix,
                                        samples[:1], tok)
        assert after < before

    def test_base_model_unchanged(self, setup):
        model, tok, samples = setup
        before = model.lm_head.weight.data.copy()
        emb_before = model.token_embedding.weight.data.copy()
        VanillaPromptTuner(model, tok, CFG).fit(samples[:2])
        np.testing.assert_array_equal(model.lm_head.weight.data, before)
        np.testing.assert_array_equal(model.token_embedding.weight.data,
                                      emb_before)

    def test_anchor_limits_drift(self, setup):
        model, tok, samples = setup
        from repro.tuning.vanilla import initial_prompt_matrix
        init = initial_prompt_matrix(model, tok, samples[:1], 8,
                                     np.random.default_rng(0))
        loose = VanillaPromptTuner(
            model, tok, TuningConfig(steps=12, lr=0.05, anchor_weight=0.0)
        ).fit(samples[:1]).soft_prompt.matrix
        tight = VanillaPromptTuner(
            model, tok, TuningConfig(steps=12, lr=0.05, anchor_weight=50.0)
        ).fit(samples[:1]).soft_prompt.matrix
        assert (np.linalg.norm(tight - init)
                < np.linalg.norm(loose - init))

    def test_transform_hook_called(self, setup):
        """The additive-noise hook sees the prompt before every forward
        pass; returning None adds nothing."""
        model, tok, samples = setup
        calls = []

        def spy(prompt):
            assert isinstance(prompt, np.ndarray)
            assert prompt.shape == (8, model.config.d_model)
            calls.append(1)
            return None

        spied = VanillaPromptTuner(model, tok, CFG).fit(samples[:1],
                                                        transform=spy)
        plain = VanillaPromptTuner(model, tok, CFG).fit(samples[:1])
        assert len(calls) == CFG.steps
        assert np.array_equal(spied.soft_prompt.matrix,
                              plain.soft_prompt.matrix)

    def test_empty_samples_rejected(self, setup):
        model, tok, _ = setup
        with pytest.raises(ValueError):
            VanillaPromptTuner(model, tok, CFG).fit([])


class TestOtherTuners:
    def test_prefix_tuner_shapes(self, setup):
        model, tok, samples = setup
        artifact = PrefixTuner(model, tok, CFG).fit(samples[:2])
        assert artifact.soft_prompt is None
        assert len(artifact.prefix_kv) == model.config.n_layers
        keys, values = artifact.prefix_kv[0]
        heads = model.config.n_heads
        d_head = model.config.d_model // heads
        assert keys.shape == (1, heads, 8, d_head)
        assert values.shape == (1, heads, 8, d_head)

    def test_ptuning_v2_shapes(self, setup):
        model, tok, samples = setup
        artifact = PTuningV2Tuner(model, tok, CFG).fit(samples[:2])
        assert len(artifact.prefix_kv) == model.config.n_layers
        assert artifact.method == "p-tuning-v2"

    def test_dept_produces_prompt_and_delta(self, setup):
        model, tok, samples = setup
        artifact = DEPTTuner(model, tok, CFG).fit(samples[:2])
        assert artifact.soft_prompt.n_tokens == 4  # half of 8
        assert artifact.embedding_delta.shape == (
            model.config.vocab_size, model.config.d_model)

    def test_dept_rank_is_a_constant(self, setup):
        """No ``rank=`` to mis-set: the embedding delta has rank ``RANK``."""
        model, tok, samples = setup
        with pytest.raises(TypeError):
            DEPTTuner(model, tok, CFG, rank=0)
        delta = DEPTTuner(model, tok, CFG).fit(samples[:2]).embedding_delta
        assert np.linalg.matrix_rank(delta) == RANK

    def test_prefix_width_is_a_constant(self, setup):
        """``hidden_dim=0`` used to train an all-zero prefix without a
        word; the reparameterisation width is now ``HIDDEN_DIM``."""
        model, tok, samples = setup
        with pytest.raises(TypeError):
            PrefixTuner(model, tok, CFG, hidden_dim=0)
        artifact = PrefixTuner(model, tok, CFG).fit(samples[:2])
        assert all(np.abs(half).max() > 0
                   for pair in artifact.prefix_kv for half in pair)


class TestArtifactApplication:
    def test_generate_with_none_is_zero_shot(self, setup):
        model, tok, samples = setup
        text = generate_with_artifact(model, tok, None, samples[0].input_text,
                                      GenerationConfig(max_new_tokens=3,
                                                       temperature=0.0))
        assert isinstance(text, str)

    def test_soft_prompt_affects_next_token_distribution(self, setup):
        model, tok, samples = setup
        ids = tok.encode(samples[0].input_text)
        base = prefill(model, ids).last_logits
        prompt = np.random.default_rng(0).normal(
            0, 3.0, (8, model.config.d_model)).astype(np.float32)
        prompted = prefill(model, ids, soft_prompt=prompt).last_logits
        assert not np.allclose(base, prompted, atol=1e-3)

    def test_dept_answer_without_writing_the_shared_table(
            self, setup, monkeypatch):
        """A DEPT artifact decodes on a copy whose embedding table is
        ``weight + delta`` — the answer a model with that table gives —
        while the shared model's table stays the same array, unchanged,
        through the whole decode."""
        import copy

        from repro.tuning import apply
        model, tok, samples = setup
        artifact = DEPTTuner(model, tok, CFG).fit(samples[:2])
        table = model.token_embedding.weight.data
        before = table.copy()
        generation = GenerationConfig(max_new_tokens=5, temperature=0.0,
                                      eos_id=tok.eos_id)
        shifted = copy.deepcopy(model)
        shifted.token_embedding.weight.data = before + artifact.embedding_delta
        expected = generate_with_artifact(
            shifted, tok, PromptArtifact(soft_prompt=artifact.soft_prompt),
            samples[0].input_text, generation)

        decode = apply.generate
        seen = []

        def spy(decoding_model, *args, **kwargs):
            assert model.token_embedding.weight.data is table
            assert np.array_equal(table, before)
            seen.append(decoding_model.token_embedding.weight.data)
            return decode(decoding_model, *args, **kwargs)
        monkeypatch.setattr(apply, "generate", spy)
        answer = generate_with_artifact(model, tok, artifact,
                                        samples[0].input_text, generation)
        assert answer == expected
        assert len(seen) == 1 and seen[0] is not table
        assert model.token_embedding.weight.data is table
        assert np.array_equal(table, before)

    def test_embedding_delta_shape_checked(self, setup):
        model, tok, samples = setup
        artifact = PromptArtifact(embedding_delta=np.ones((2, 2)))
        with pytest.raises(ValueError, match="embedding delta"):
            generate_with_artifact(model, tok, artifact,
                                   samples[0].input_text,
                                   GenerationConfig(max_new_tokens=1))

    def test_prefix_artifact_generation_runs(self, setup):
        model, tok, samples = setup
        artifact = PrefixTuner(model, tok, CFG).fit(samples[:1])
        text = generate_with_artifact(model, tok, artifact,
                                      samples[0].input_text,
                                      GenerationConfig(max_new_tokens=3))
        assert isinstance(text, str)
