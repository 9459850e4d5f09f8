"""The graph-free inference core's contract (``repro.llm.infer``).

Each kernel must equal its ``repro.ag`` counterpart under
``np.array_equal`` — not ``allclose`` — because the serving stack's
byte-identity matrices (batched == sequential, speculative == greedy) are
built on it; and the two forwards built on the kernels must equal the
autograd forward (over a cache: ``tests/oracles/generation.py``) while
building no graph.
"""

import numpy as np
import pytest

from repro import ag
from repro.ag import Tensor, no_grad
from repro.core import FrameworkConfig
from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import (
    DecodeScheduler,
    GenerationConfig,
    KVBuffer,
    KVSlab,
    SpeculativeDecoder,
    TinyCausalLM,
    build_model,
    generate,
    infer,
    prefill,
)
from repro.llm.transformer import LMConfig
from repro.serve import PromptServeEngine, QueryRequest, TuneRequest
from tests.oracles import graph
from tests.oracles.generation import forward_cached

VOCAB = 23
LAYOUTS = {"rows": (5, 1, 16), "sequence": (1, 7, 16)}


def tiny_model(seed=0):
    return TinyCausalLM(LMConfig(vocab_size=VOCAB, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24, max_seq_len=64),
                        seed=seed)


def tiny_engine():
    """A serving engine with one tuned user (untrained base model: only
    the code path matters here) and a query for that user."""
    tok = build_tokenizer()
    engine = PromptServeEngine(build_model("phi-2-sim", tok.vocab_size), tok,
                               FrameworkConfig.preset("fast"))
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 10, seed=0)
    engine.submit(TuneRequest(user_id=0, samples=tuple(samples)))
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0)
    return engine, QueryRequest(user_id=0, text=samples[0].input_text,
                                generation=generation)


def activations(layout, seed=0, width=None):
    shape = LAYOUTS[layout]
    if width is not None:
        shape = shape[:2] + (width,)
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def make_prefix(model, length=3, seed=4):
    rng = np.random.default_rng(seed)
    heads = model.config.n_heads
    d_head = model.config.d_model // heads
    return [tuple(rng.normal(size=(1, heads, length, d_head))
                  .astype(np.float32) for _ in range(2))
            for _ in range(model.config.n_layers)]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
class TestKernelsEqualAutogradOps:
    def test_layer_norm(self, layout):
        rng = np.random.default_rng(1)
        layer = ag.LayerNorm(16)
        layer.weight.data[:] = rng.normal(1.0, 0.3, 16)
        layer.bias.data[:] = rng.normal(0.0, 0.3, 16)
        x = activations(layout) * 3.0 + 1.0
        assert np.array_equal(infer.layer_norm(x, layer),
                              graph.layer_norm(layer, Tensor(x)).data)

    @pytest.mark.parametrize("bits", [None, 8, 4])
    @pytest.mark.parametrize("bias", [True, False])
    def test_affine(self, layout, bits, bias):
        layer = ag.Linear(16, 40, bias=bias, rng=np.random.default_rng(2))
        if bias:
            layer.bias.data[:] = np.random.default_rng(3).normal(size=40)
        if bits is not None:
            layer = ag.QuantizedLinear.from_linear(layer, bits=bits,
                                                   group_size=8)
        x = activations(layout, seed=4)
        assert np.array_equal(infer.affine(layer, x), layer(Tensor(x)).data)

    def test_gelu(self, layout):
        x = activations(layout, seed=5) * 4.0
        assert np.array_equal(infer.gelu(x), ag.gelu(Tensor(x)).data)

    def test_softmax_overwrites_with_ag_softmax(self, layout):
        scores = activations(layout, seed=6) * 5.0
        expected = graph.softmax(Tensor(scores), axis=-1).data
        out = infer.softmax_(scores)
        assert out is scores
        assert np.array_equal(out, expected)

    def test_mlp_and_logits(self, layout):
        model = tiny_model(seed=7)
        block = model.blocks[1]
        x = activations(layout, seed=8)
        with no_grad():
            t = Tensor(x)
            expected = t + block.ff2(ag.gelu(block.ff1(
                graph.layer_norm(block.ln2, t))))
            expected_logits = model.lm_head(graph.layer_norm(model.ln_final,
                                                             t))
        assert np.array_equal(infer.mlp(block, x), expected.data)
        assert np.array_equal(infer.logits(model, x), expected_logits.data)


class TestEmbed:
    def test_equals_embedding_forward(self):
        table = ag.Embedding(VOCAB, 16, rng=np.random.default_rng(0))
        ids = np.array([[0, 5], [VOCAB - 1, 2]])
        assert np.array_equal(infer.embed(table, ids),
                              graph.embedding(table, ids).data)

    @pytest.mark.parametrize("bad", [-1, VOCAB])
    def test_out_of_range_ids_raise_instead_of_wrapping(self, bad):
        table = ag.Embedding(VOCAB, 16, rng=np.random.default_rng(0))
        with pytest.raises(IndexError, match="out of range"):
            infer.embed(table, np.array([1, bad]))

    def test_id_equal_to_vocab_size_raises_through_the_forwards(self):
        model = tiny_model()
        with pytest.raises(IndexError, match="out of range"):
            prefill(model, np.array([1, VOCAB]))
        caches = [KVBuffer(prefill(model, np.array([1, 2])).cache, 8)]
        with pytest.raises(IndexError, match="out of range"):
            model.decode_span([np.array([3, VOCAB])], caches)
        with pytest.raises(IndexError, match="out of range"):
            model.decode_round(np.array([VOCAB]), caches)
        assert caches[0].seq_len == 2   # a refused span advances nothing


class TestStackedPrefill:
    """Equal-length prompts run as one ``(G, T, d)`` stack: each is
    bitwise its own forward — the autograd oracle's — whatever else
    shares the stack (the stacking rule)."""

    @staticmethod
    def prompts(model, count, length, soft_rows, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(1, model.config.vocab_size, size=(count, length))
        soft = None if soft_rows is None else rng.normal(
            size=(count, soft_rows, model.config.d_model)).astype(np.float32)
        return ids, soft

    def assert_stack_equals_oracle(self, model, ids, soft, prefix=None):
        states = prefill(model, ids, soft_prompt=soft, prefix_kv=prefix)
        assert isinstance(states, list) and len(states) == len(ids)
        for g, state in enumerate(states):
            embeddings = graph.embed(model, ids[g][None])
            if soft is not None:
                embeddings = graph.cat([Tensor(soft[g][None]), embeddings],
                                       axis=1)
            with no_grad():
                logits, cache = forward_cached(model, embeddings=embeddings,
                                               prefix_kv=prefix)
            assert np.array_equal(state.last_logits, logits.data[0, -1])
            assert (state.n_tokens, state.virtual_len) == (
                ids.shape[1], 0 if soft is None else soft.shape[1])
            assert state.prefix_kv is prefix
            assert state.cache.batch_size == 1
            for layer in range(model.config.n_layers):
                for which in (0, 1):
                    own = state.cache.layer(layer)[which]
                    assert own.flags.c_contiguous
                    assert np.array_equal(own, cache.layer(layer)[which])

    @pytest.mark.parametrize("soft_rows", [None, 3])
    @pytest.mark.parametrize("prefixed", [False, True])
    def test_stacks_with_soft_prompts_and_prefixes(self, soft_rows,
                                                   prefixed):
        model = tiny_model(seed=3)
        ids, soft = self.prompts(model, 5, 4, soft_rows, seed=14)
        self.assert_stack_equals_oracle(
            model, ids, soft, make_prefix(model, 3, 42) if prefixed else None)

    def test_the_serving_shape_at_the_served_width(self):
        """Eight prompts of 7 tokens behind 8 soft-prompt rows (every
        spine batch) on phi-2-sim's geometry."""
        tok = build_tokenizer()
        model = build_model("phi-2-sim", tok.vocab_size)
        self.assert_stack_equals_oracle(
            model, *self.prompts(model, 8, 7, 8, seed=15))

    def test_one_prompt_is_the_stack_of_one(self):
        model = tiny_model(seed=3)
        ids, soft = self.prompts(model, 1, 6, 2, seed=16)
        alone = prefill(model, ids[0], soft_prompt=soft[0])
        (stacked,) = prefill(model, ids, soft_prompt=soft)
        assert np.array_equal(alone.last_logits, stacked.last_logits)
        for layer in range(model.config.n_layers):
            for which in (0, 1):
                assert np.array_equal(alone.cache.layer(layer)[which],
                                      stacked.cache.layer(layer)[which])

    def test_a_stack_is_refused_like_one_prompt(self):
        model = tiny_model(seed=3)
        with pytest.raises(ValueError, match="no room to generate"):
            prefill(model, np.ones((2, 64), dtype=np.int64))
        with pytest.raises(ValueError, match="at least one prompt token"):
            prefill(model, np.zeros((2, 0), dtype=np.int64))


def autograd_steps(model, state, span):
    """Logits rows and cache of feeding ``span`` to the autograd oracle one
    token at a time (what one-token rounds compute)."""
    cache, rows = state.cache, []
    for token in span:
        with no_grad():
            out, cache = forward_cached(model, np.array([[token]]),
                                        past=cache, prefix_kv=state.prefix_kv)
        rows.append(out.data[0, 0])
    return np.stack(rows), cache


def assert_spans_equal_autograd(model, states, spans, logits, caches,
                                fed_before=None):
    """Each sequence's logits rows and written K/V rows are bitwise the
    oracle's, token by token (after ``fed_before[s]``, fed earlier)."""
    row = 0
    for s, (state, span, cache) in enumerate(zip(states, spans, caches)):
        before = [] if fed_before is None else list(fed_before[s])
        alone, alone_cache = autograd_steps(model, state, before + list(span))
        assert np.array_equal(logits[row:row + len(span), 0],
                              alone[len(before):])
        row += len(span)
        assert cache.seq_len == alone_cache.seq_len
        live = slice(cache.prefix_len, cache.prefix_len + cache.seq_len)
        for layer in range(model.config.n_layers):
            for which in (0, 1):
                assert np.array_equal(cache.layer(layer)[which][:, :, live],
                                      alone_cache.layer(layer)[which])
    assert row == logits.shape[0]


def slab_buffers(states, extra, layout, order=None):
    """One buffer per state with room for ``extra`` more positions: in
    slots of one shared slab (claimed in ``order``) or each its own."""
    slab = None
    if layout == "slab":
        slab = KVSlab(states[0].cache, 3 + max(s.seq_len for s in states)
                      + extra, len(states))
    caches = [None] * len(states)
    for i in order or range(len(states)):
        state = states[i]
        caches[i] = KVBuffer(state.cache, state.seq_len + extra,
                             state.prefix_kv, slab)
    return caches


# ----------------------------------------------------------------------
class TestSpanForward:
    @pytest.mark.parametrize("layout", ["slab", "private"])
    @pytest.mark.parametrize("prefixed", [False, True])
    def test_equal_length_rows_equal_the_autograd_step(self, prefixed,
                                                       layout):
        """Four rows attending over one length form one group: a view of
        four consecutive slab slots, or a gather of private buffers."""
        model = tiny_model(seed=2)
        rng = np.random.default_rng(10)
        prefix = make_prefix(model, 3, 40) if prefixed else None
        states = [prefill(model, rng.integers(1, VOCAB, size=6),
                          prefix_kv=prefix) for _ in range(4)]
        caches = slab_buffers(states, 2, layout)
        if layout == "slab":
            assert [cache.slot for cache in caches] == [0, 1, 2, 3]
        fed = np.zeros((4, 0), dtype=np.int64)
        for _ in range(2):     # the second round writes behind the first
            tokens = rng.integers(1, VOCAB, size=(4, 1))
            logits = model.decode_round(tokens, caches)
            assert_spans_equal_autograd(model, states, tokens, logits,
                                        caches, fed)
            fed = np.concatenate([fed, tokens], axis=1)

    @pytest.mark.parametrize("order", [None, (4, 0, 5, 2, 1, 3)])
    def test_a_round_of_two_groups_and_a_singleton(self, order):
        """Lengths 5, 5, 8, 8, 8 and 3: groups of two and three rows and a
        lone row, in slab slots claimed in order or shuffled (gathers)."""
        model = tiny_model(seed=4)
        rng = np.random.default_rng(12)
        states = [prefill(model, rng.integers(1, VOCAB, size=length))
                  for length in (5, 5, 8, 8, 8, 3)]
        caches = slab_buffers(states, 1, "slab", order)
        assert infer.length_groups(
            [cache.seq_len for cache in caches], [1] * 6) == {
                6: [0, 1], 9: [2, 3, 4], 4: [5]}
        tokens = rng.integers(1, VOCAB, size=6)
        logits = model.decode_round(tokens, caches)
        assert_spans_equal_autograd(model, states, tokens[:, None], logits,
                                    caches)

    def test_verify_spans_group_by_attended_length(self):
        """Equal starts, ragged spans: row i of every span attends over
        the same length, so the rows group across sequences."""
        model = tiny_model(seed=5)
        rng = np.random.default_rng(13)
        states = [prefill(model, rng.integers(1, VOCAB, size=7))
                  for _ in range(4)]
        spans = [rng.integers(1, VOCAB, size=n) for n in (3, 1, 2, 1)]
        assert infer.length_groups([7] * 4, [3, 1, 2, 1]) == {
            8: [0, 3, 4, 6], 9: [1, 5], 10: [2]}
        caches = slab_buffers(states, 3, "slab")
        logits = model.decode_span(spans, caches)
        assert_spans_equal_autograd(model, states, spans, logits, caches)

    @pytest.mark.parametrize("prefixed", [False, True])
    def test_length_one_spans_equal_decode_round_and_autograd(self, prefixed):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(9)
        prefixes = None
        if prefixed:   # mixed: sequence 1 decodes without a prefix
            prefixes = [make_prefix(model, 3, 40), None,
                        make_prefix(model, 2, 41)]
        states = [prefill(model, rng.integers(1, VOCAB, size=length),
                          prefix_kv=None if prefixes is None else prefixes[i])
                  for i, length in enumerate((4, 9, 6))]
        tokens = np.array([3, 7, 11])

        def buffers():
            return [KVBuffer(state.cache, state.seq_len + 1, state.prefix_kv)
                    for state in states]

        round_caches, span_caches = buffers(), buffers()
        round_logits = model.decode_round(tokens, round_caches)
        span_logits = model.decode_span(
            [tokens[i:i + 1] for i in range(3)], span_caches)
        assert round_logits.shape == (3, 1, VOCAB)
        assert np.array_equal(span_logits, round_logits)

        for i, state in enumerate(states):
            with no_grad():
                alone, alone_cache = forward_cached(
                    model, tokens[i:i + 1][None, :], past=state.cache,
                    prefix_kv=state.prefix_kv)
            assert np.array_equal(round_logits[i], alone.data[0])
            for cache in (round_caches[i], span_caches[i]):
                assert cache.seq_len == alone_cache.seq_len
                live = slice(cache.prefix_len,
                             cache.prefix_len + cache.seq_len)
                for layer in range(model.config.n_layers):
                    for which in (0, 1):
                        assert np.array_equal(
                            cache.layer(layer)[which][:, :, live],
                            alone_cache.layer(layer)[which])

    def test_prefixed_sequences_get_views_not_copies(self):
        """The prefix is laid down once, at the head of the sequence's own
        buffer; a round attends over slices of that buffer and writes its
        row into it — it never rebuilds prefix + cache."""
        model = tiny_model(seed=2)
        prefix = make_prefix(model, 3)
        state = prefill(model, np.array([1, 2, 3]), prefix_kv=prefix)
        cache = KVBuffer(state.cache, 4, prefix)
        keys = cache.layer(0)[0]
        model.decode_round(np.array([4]), [cache])
        assert cache.layer(0)[0] is keys
        assert (cache.prefix_len, cache.seq_len) == (3, 4)
        assert keys.shape[2] == 3 + 4
        assert np.array_equal(keys[:, :, :3], prefix[0][0])

    def test_a_span_that_overruns_its_buffer_is_refused(self):
        model = tiny_model()
        caches = [KVBuffer(prefill(model, np.array([1, 2, 3])).cache, 4)]
        with pytest.raises(ValueError, match="overruns a buffer of 4"):
            model.decode_span([np.array([4, 5])], caches)
        assert caches[0].seq_len == 3
        model.decode_span([np.array([4])], caches)      # exactly fits


class TestExtendForward:
    @pytest.mark.parametrize("conditioning",
                             ["plain", "soft", "prefix", "both"])
    def test_prefill_equals_autograd_forward(self, conditioning):
        model = tiny_model(seed=3)
        ids = np.array([3, 7, 1, 4, 9, 2])
        soft = prefix = None
        if conditioning in ("soft", "both"):
            soft = np.random.default_rng(5).normal(
                size=(4, model.config.d_model)).astype(np.float32)
        if conditioning in ("prefix", "both"):
            prefix = make_prefix(model)
        with no_grad():
            if soft is None:
                logits, cache = forward_cached(model, ids[None, :],
                                               prefix_kv=prefix)
            else:
                full = graph.cat([Tensor(soft[None]),
                                  graph.embed(model, ids[None, :])], axis=1)
                logits, cache = forward_cached(model, embeddings=full,
                                               prefix_kv=prefix)
        state = prefill(model, ids, soft_prompt=soft, prefix_kv=prefix)
        assert np.array_equal(state.last_logits, logits.data[0, -1])
        assert state.seq_len == cache.seq_len
        for layer in range(model.config.n_layers):
            for which in (0, 1):
                assert np.array_equal(state.cache.layer(layer)[which],
                                      cache.layer(layer)[which])

    def test_extend_over_a_past_cache_equals_autograd_forward(self):
        model = tiny_model(seed=3)
        ids = np.array([3, 7, 1, 4, 9, 2, 8])
        past = prefill(model, ids[:3]).cache
        hidden, cache = infer.extend(
            model, infer.embed(model.token_embedding, ids[3:])[None],
            past=past)
        with no_grad():
            logits, expected = forward_cached(model, ids[None, 3:], past=past)
        assert np.array_equal(infer.logits(model, hidden), logits.data)
        assert np.array_equal(cache.layer(1)[1], expected.layer(1)[1])

    def test_extend_validates_like_forward(self):
        model = tiny_model()
        x = np.zeros((1, 3, model.config.d_model), dtype=np.float32)
        with pytest.raises(ValueError, match="prefix_kv has 1 entries"):
            infer.extend(model, x, prefix_kv=make_prefix(model)[:1])
        with pytest.raises(ValueError, match="max_seq_len"):
            infer.extend(model, np.zeros((1, 65, 16), dtype=np.float32))
        deeper = TinyCausalLM(LMConfig(vocab_size=VOCAB, d_model=16,
                                       n_heads=2, n_layers=3, d_ff=24))
        with pytest.raises(ValueError, match="layers"):
            infer.extend(model, x,
                         past=prefill(deeper, np.array([1, 2])).cache)


# ----------------------------------------------------------------------
class TestGraphFree:
    def test_prefill_and_a_scheduler_round_build_no_graph_nodes(
            self, monkeypatch):
        """No ``Tensor`` at all on the inference path — not a graph node
        (``_make``), not even a wrapper (``__init__``): ``generate``, a
        plain and a speculative scheduler round, and a whole served query
        (retrieve, restore, prefill, decode)."""
        model = tiny_model()
        engine, request = tiny_engine()
        made = {"_make": 0, "__init__": 0}
        for name in made:
            def counting(*args, _name=name, _original=getattr(Tensor, name),
                         **kwargs):
                made[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(Tensor, name, staticmethod(counting)
                                if name == "_make" else counting)
        config = GenerationConfig(max_new_tokens=4, temperature=0.0)
        assert generate(model, np.array([1, 2, 3]), config).size == 4
        # Its own draft: both proposals confirmed, plus the bonus token.
        draft = SpeculativeDecoder(model, threshold=0.0)
        for speculative, tokens in ((None, 2), (draft, 6)):
            scheduler = DecodeScheduler(model, speculative=speculative)
            for ids in (np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8])):
                scheduler.admit(prefill(model, ids), config, prompt_ids=ids)
            assert scheduler.decode_round().tokens_emitted == tokens
        assert engine.query(request).answer
        assert made == {"_make": 0, "__init__": 0}
