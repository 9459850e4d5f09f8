"""Batched padded training forwards must match the per-sample oracle
(``tests/oracles/tuning.py``: the mean of unpadded singleton batches).

The matrix: {vanilla soft prompt, noise-aware} x {uniform, ragged lengths}
x {with/without prefix-KV}, checking both loss values and prompt-parameter
gradients, plus the padding-mask semantics the equivalence rests on
(padded keys get zero attention weight; padded positions contribute no
loss or gradient).  The soft-prompt rows run through the autograd graph;
the prefix and padding rows through the production, graph-free forward
(``repro.llm.infer.extend``) and backward (``repro.llm.vjp``).
"""

import numpy as np
import pytest

from repro.ag import Parameter, Tensor
from repro.core.noise_training import NoiseInjectionConfig, NoiseInjector
from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import LMConfig, TinyCausalLM, build_model, infer
from repro.llm.vjp import soft_prompt_vjp
from repro.tuning import (
    DEPTTuner,
    IGNORE_INDEX,
    TuningConfig,
    VanillaPromptTuner,
    build_training_batch,
    build_training_ids,
    initial_prompt_matrix,
    make_target_vector,
    prefix_loss_and_grad,
)
from repro.tuning import dept, vanilla
from tests.oracles.tuning import (prompt_loss_for_batch, singleton_mean,
                                  train_per_sample)

LOSS_TOL = 1e-5
GRAD_TOL = 1e-5


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    user = make_user(0, seed=0)
    uniform = make_dataset("LaMP-2").generate(user, 6, seed=1)
    ragged = []
    for name in ("LaMP-1", "LaMP-2", "LaMP-3", "LaMP-5"):
        ragged.extend(make_dataset(name).generate(user, 2, seed=1))
    lengths = {build_training_ids(s, tok)[0].size for s in ragged}
    assert len(lengths) > 1, "ragged fixture must mix sequence lengths"
    return model, tok, uniform, ragged


def _prompt_init(model, tok, samples):
    return initial_prompt_matrix(model, tok, samples, 8,
                                 np.random.default_rng(0))


def _prefixes(model, n_tokens=4, seed=3):
    cfg = model.config
    d_head = cfg.d_model // cfg.n_heads
    rng = np.random.default_rng(seed)
    return [
        tuple(rng.normal(0.0, 0.2, (1, cfg.n_heads, n_tokens, d_head))
              .astype(np.float32) for _ in range(2))
        for _ in range(cfg.n_layers)
    ]


class TestLossAndGradientEquivalence:
    @pytest.mark.parametrize("lengths", ["uniform", "ragged"])
    @pytest.mark.parametrize("noise_seed", [None, 11],
                             ids=["vanilla", "noise-aware"])
    def test_soft_prompt(self, setup, lengths, noise_seed):
        model, tok, uniform, ragged = setup
        samples = uniform if lengths == "uniform" else ragged
        init = _prompt_init(model, tok, samples)
        results = []
        for batched in (False, True):
            prompt = Parameter(init.copy())
            effective = prompt
            if noise_seed is not None:
                effective = prompt + Tensor(NoiseInjector(
                    NoiseInjectionConfig(seed=noise_seed))(init))
            def loss_fn(batch):
                return prompt_loss_for_batch(model, effective, batch, tok)
            loss = (loss_fn(samples) if batched
                    else singleton_mean(loss_fn, samples))
            loss.backward()
            results.append((float(loss.data), prompt.grad.copy()))
        (loss_ref, grad_ref), (loss_bat, grad_bat) = results
        assert abs(loss_ref - loss_bat) <= LOSS_TOL
        np.testing.assert_allclose(grad_bat, grad_ref, atol=GRAD_TOL)

    @pytest.mark.parametrize("lengths", ["uniform", "ragged"])
    def test_with_prefix_kv(self, setup, lengths):
        model, tok, uniform, ragged = setup
        samples = uniform if lengths == "uniform" else ragged
        prefixes = _prefixes(model)
        loss_bat, grads_bat = prefix_loss_and_grad(model, prefixes, samples,
                                                   tok)
        alone = [prefix_loss_and_grad(model, prefixes, [sample], tok)
                 for sample in samples]
        loss_ref = sum(float(loss) for loss, _ in alone) / len(samples)
        assert abs(loss_ref - float(loss_bat)) <= LOSS_TOL
        for layer, pair in enumerate(grads_bat):
            for which, bat in enumerate(pair):
                ref = sum(grads[layer][which] for _, grads in alone)
                np.testing.assert_allclose(bat, ref / len(samples),
                                           atol=GRAD_TOL)

    def test_full_training_run_equivalence(self, setup, monkeypatch):
        """End to end: batched and reference training walk the same
        optimisation trajectory and land on the same prompt."""
        model, tok, _, ragged = setup
        config = TuningConfig(steps=5, lr=0.05, seed=0)
        artifacts = {}
        for batched in (True, False):
            if not batched:
                train_per_sample(monkeypatch, vanilla)
            artifacts[batched] = VanillaPromptTuner(model, tok, config).fit(
                ragged)
        np.testing.assert_allclose(artifacts[True].soft_prompt.matrix,
                                   artifacts[False].soft_prompt.matrix,
                                   atol=1e-4)

    def test_dept_training_run_equivalence(self, setup, monkeypatch):
        """DEPT's batched loss (delta-table gather + broadcast prompt) must
        walk the same trajectory as its per-sample reference."""
        model, tok, _, ragged = setup
        config = TuningConfig(steps=3, lr=0.05, seed=0)
        artifacts = {}
        for batched in (True, False):
            if not batched:
                train_per_sample(monkeypatch, dept)
            artifacts[batched] = DEPTTuner(model, tok, config).fit(ragged)
        np.testing.assert_allclose(artifacts[True].soft_prompt.matrix,
                                   artifacts[False].soft_prompt.matrix,
                                   atol=1e-4)
        np.testing.assert_allclose(artifacts[True].embedding_delta,
                                   artifacts[False].embedding_delta,
                                   atol=1e-4)


class TestPaddingMaskSemantics:
    def test_padded_keys_get_zero_attention_weight(self):
        model = TinyCausalLM(LMConfig(vocab_size=23, d_model=16, n_heads=2,
                                      n_layers=1, d_ff=24), seed=1)
        x = np.random.default_rng(2).normal(size=(2, 6, 16)).astype(
            np.float32)
        mask = np.zeros((2, 6), dtype=bool)
        mask[0, 4:] = True
        mask[1, 3:] = True
        # The attention weights the training forward records: the tape
        # holds ln1's record, then the attention's (q, keys, values,
        # weights, mask, merged).
        tape = []
        infer.extend(model, x, key_padding_mask=mask, tape=tape)
        weights = tape[1][3]
        assert np.all(weights[0, :, :, 4:] == 0.0)
        assert np.all(weights[1, :, :, 3:] == 0.0)
        sums = weights.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), rtol=1e-5)

    def test_real_positions_unaffected_by_padding(self, setup):
        """Logits of real positions in a padded batched forward equal the
        per-sample unpadded forward, regardless of the pad filler id."""
        model, tok, _, ragged = setup
        batch = build_training_batch(ragged, tok)

        def logits(ids, mask=None):
            hidden, _ = infer.extend(
                model, infer.embed(model.token_embedding, ids),
                key_padding_mask=mask)
            return infer.logits(model, hidden)

        padded = logits(batch.input_ids, batch.key_padding_mask)
        for i, sample in enumerate(ragged):
            t = int(batch.lengths[i])
            alone = logits(batch.input_ids[i, :t][None, :])[0]
            np.testing.assert_allclose(padded[i, :t], alone, atol=1e-5)

    def test_loss_invariant_to_pad_filler_id(self, setup):
        model, tok, _, ragged = setup
        init = _prompt_init(model, tok, ragged)
        losses, grads = [], []
        for filler in (tok.pad_id, 7):
            batch = build_training_batch(ragged, tok, prompt_len=8)
            ids = np.where(batch.key_padding_mask, filler,
                           batch.input_ids)
            loss, grad, _ = soft_prompt_vjp(
                model, init, infer.embed(model.token_embedding, ids),
                batch.key_padding_mask, batch.targets, IGNORE_INDEX)
            losses.append(float(loss))
            grads.append(grad)
        assert losses[0] == pytest.approx(losses[1], abs=1e-6)
        np.testing.assert_allclose(grads[0], grads[1], atol=1e-6)

    def test_padded_positions_carry_ignore_index_targets(self, setup):
        _, tok, _, ragged = setup
        batch = build_training_batch(ragged, tok, prompt_len=3)
        for i in range(batch.batch_size):
            t = int(batch.lengths[i])
            assert np.all(batch.targets[i, 3 + t:] == IGNORE_INDEX)
            assert np.all(batch.targets[i, :3] == IGNORE_INDEX)
            assert np.any(batch.targets[i] != IGNORE_INDEX)

    def test_mask_shape_validated(self, setup):
        model, tok, _, ragged = setup
        batch = build_training_batch(ragged, tok)
        with pytest.raises(ValueError, match="key_padding_mask"):
            infer.extend(model, infer.embed(model.token_embedding,
                                            batch.input_ids),
                         key_padding_mask=batch.key_padding_mask[:, :-1])


class TestBuildTrainingBatch:
    def test_matches_per_sample_plumbing(self, setup):
        _, tok, _, ragged = setup
        prompt_len = 5
        batch = build_training_batch(ragged, tok, prompt_len=prompt_len)
        for i, sample in enumerate(ragged):
            full_ids, loss_positions = build_training_ids(sample, tok)
            t = full_ids.size - 1
            assert int(batch.lengths[i]) == t
            np.testing.assert_array_equal(batch.input_ids[i, :t],
                                          full_ids[:-1])
            assert not batch.key_padding_mask[i, :t].any()
            assert batch.key_padding_mask[i, t:].all()
            expected = make_target_vector(full_ids, loss_positions,
                                          prompt_len)
            np.testing.assert_array_equal(batch.targets[i, :expected.size],
                                          expected)

    def test_empty_batch_rejected(self, setup):
        _, tok, _, _ = setup
        with pytest.raises(ValueError):
            build_training_batch([], tok)
