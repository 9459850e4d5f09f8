"""The weight-quantized execution path: numerics, kernel, conversion."""

import copy

import numpy as np
import pytest

from repro.ag import (
    Linear,
    Module,
    Parameter,
    QuantizedLinear,
    Tensor,
    iter_modules,
    quantize_groups,
)
from repro.llm import (
    QUANTIZATION_BITS,
    TinyCausalLM,
    infer,
    quantization_stats,
    quantize_model,
    quantize_model_weights,
)
from repro.llm.transformer import LMConfig

RNG = np.random.default_rng(11)


def tiny_model(vocab=19, seed=0):
    return TinyCausalLM(LMConfig(vocab_size=vocab, d_model=16, n_heads=2,
                                 n_layers=2, d_ff=24, max_seq_len=48),
                        seed=seed)


def reference_quantize_array(weights, bits=4, group_size=32):
    """The historical per-group Python loop, verbatim (regression oracle)."""
    weights = np.asarray(weights, dtype=np.float32)
    q_max = 2 ** (bits - 1) - 1
    out = np.empty_like(weights)
    rows = weights.shape[0]
    for start in range(0, rows, group_size):
        block = weights[start:start + group_size]
        scale = np.abs(block).max() / q_max
        if scale == 0.0:
            out[start:start + group_size] = 0.0
            continue
        quantized = np.clip(np.round(block / scale), -q_max - 1, q_max)
        out[start:start + group_size] = quantized * scale
    return out


def fake_quant(weights, bits=4, group_size=32):
    """``weights`` as :func:`quantize_model_weights` leaves a Linear's."""
    linear = Linear(*weights.shape)
    linear.weight.data = np.asarray(weights, dtype=np.float32)
    quantize_model_weights(linear, bits=bits, group_size=group_size)
    return linear.weight.data


class TestFakeQuant:
    @pytest.mark.parametrize("rows,cols,group_size,bits", [
        (64, 32, 32, 4),      # exact multiple
        (70, 16, 32, 8),      # ragged tail
        (33, 7, 16, 8),       # one-row tail
        (5, 3, 8, 4),         # single partial group
        (96, 48, 31, 4),      # group size not a power of two
        (1, 1, 32, 4),        # degenerate
    ])
    def test_bit_identical_to_loop(self, rows, cols, group_size, bits):
        weights = RNG.normal(size=(rows, cols)).astype(np.float32)
        fast = fake_quant(weights, bits, group_size)
        slow = reference_quantize_array(weights, bits, group_size)
        assert fast.dtype == np.float32
        assert (fast == slow).all()

    def test_all_zero_group_stays_zero(self):
        weights = RNG.normal(size=(64, 8)).astype(np.float32)
        weights[:32] = 0.0
        out = fake_quant(weights, 4, 32)
        assert (out[:32] == 0.0).all()
        assert (out == reference_quantize_array(weights, 4, 32)).all()

    def test_tail_group_scale_ignores_padding(self):
        # 40 rows, group 32: the 8-row tail's scale must come from those
        # 8 rows only, not from anything the vectorized reshape padded in.
        weights = np.ones((40, 4), dtype=np.float32)
        weights[32:] = 0.5
        _, scales = quantize_groups(weights, 8, 32)
        assert scales[1] == np.float32(0.5 / 127)

    def test_grid_error_bounded_by_half_scale(self):
        weights = RNG.normal(size=(128, 24)).astype(np.float32)
        for bits in (4, 8):
            codes, scales = quantize_groups(weights, bits, 32)
            deq = codes.astype(np.float32) * np.repeat(scales, 32)[:, None]
            for g in range(4):
                block_err = np.abs(deq[g * 32:(g + 1) * 32]
                                   - weights[g * 32:(g + 1) * 32]).max()
                assert block_err <= scales[g] / 2 + 1e-7

    def test_error_monotone_in_bits(self):
        weights = RNG.normal(size=(96, 40)).astype(np.float32)
        int4, int8 = (np.sqrt(np.mean((fake_quant(weights, bits) - weights)
                                      ** 2)) for bits in (4, 8))
        assert int4 > int8 > 0.0

    def test_validation(self):
        weights = RNG.normal(size=(8, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            quantize_groups(weights, bits=1)
        with pytest.raises(ValueError):
            quantize_groups(weights, bits=9)
        with pytest.raises(ValueError):
            quantize_groups(weights, group_size=0)
        with pytest.raises(ValueError):
            quantize_groups(weights.reshape(-1))

    @pytest.mark.parametrize("bits", [2, 6])
    def test_only_the_packed_widths(self, bits):
        """Fake-quant goes through ``QuantizedLinear``: 4 or 8 bits."""
        with pytest.raises(ValueError, match="bits 4 or 8"):
            fake_quant(RNG.normal(size=(8, 4)), bits)

    @pytest.mark.parametrize("bits", [2, 6])
    def test_grid_refuses_an_unpackable_width(self, bits):
        """``quantize_groups`` refuses a width no layer packs before it
        quantizes anything."""
        with pytest.raises(ValueError, match="bits 4 or 8"):
            quantize_groups(RNG.normal(size=(8, 4)), bits)


class TestQuantizedLinearKernel:
    @pytest.mark.parametrize("bits,in_f,out_f", [
        (8, 64, 96), (4, 64, 96),
        (8, 97, 33), (4, 97, 33),     # odd in_features exercises packing pad
    ])
    def test_fused_matches_reference(self, bits, in_f, out_f):
        linear = Linear(in_f, out_f)
        linear.weight.data = RNG.normal(size=(in_f, out_f)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=bits, group_size=32)
        x = RNG.normal(size=(3, 2, in_f)).astype(np.float32)
        fused = layer.affine_numpy(x)
        reference = x @ layer.dequantized_weight() + layer.bias.data
        scale = max(1.0, float(np.abs(reference).max()))
        assert float(np.abs(fused - reference).max()) <= 2e-4 * scale

    @pytest.mark.parametrize("bits", [8, 4])
    def test_dequantized_weight_matches_reference_loop(self, bits):
        linear = Linear(80, 40)
        linear.weight.data = RNG.normal(size=(80, 40)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=bits, group_size=32)
        expected = reference_quantize_array(linear.weight.data, bits, 32)
        assert (layer.dequantized_weight() == expected).all()

    def test_int4_pack_round_trip(self):
        linear = Linear(33, 17)   # odd input dim: one padding nibble
        linear.weight.data = RNG.normal(size=(33, 17)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=4, group_size=8)
        codes, scales = quantize_groups(linear.weight.data, 4, 8)
        row_scales = np.repeat(scales, 8)[:33]
        assert (layer.dequantized_weight()
                == codes.astype(np.float32) * row_scales[:, None]).all()
        assert layer.qweight.shape == (17, 17)   # ceil(33 / 2) packed bytes
        assert layer.qweight.dtype == np.uint8

    @pytest.mark.parametrize("bits", [8, 4])
    def test_batch_layout_bitwise_determinism(self, bits):
        # A (B, 1, d) decode batch must produce, per row, exactly the bits
        # that row gets when served alone — the serving stack's byte-identity
        # contract across batch compositions rests on this.
        linear = Linear(128, 256)
        linear.weight.data = RNG.normal(size=(128, 256)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=bits, group_size=32)
        x = RNG.normal(size=(8, 1, 128)).astype(np.float32)
        batched = layer.affine_numpy(x)
        for i in range(8):
            assert (layer.affine_numpy(x[i:i + 1]) == batched[i:i + 1]).all()

    def test_weight_is_frozen_but_input_grads_flow(self):
        linear = Linear(48, 32)
        linear.weight.data = RNG.normal(size=(48, 32)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=8, group_size=16)
        assert layer.parameters() == [layer.bias]   # no weight Parameter
        x = Tensor(RNG.normal(size=(2, 5, 48)).astype(np.float32),
                   requires_grad=True)
        layer(x).sum().backward()
        expected = np.ones((2, 5, 32), np.float32) @ layer.dequantized_weight().T
        assert np.allclose(x.grad, expected, atol=1e-4)
        assert np.allclose(layer.bias.grad, 10.0)

    def test_bias_none_supported(self):
        linear = Linear(24, 12, bias=False)
        linear.weight.data = RNG.normal(size=(24, 12)).astype(np.float32)
        layer = QuantizedLinear.from_linear(linear, bits=8, group_size=8)
        x = RNG.normal(size=(4, 24)).astype(np.float32)
        assert np.allclose(layer.affine_numpy(x),
                           x @ layer.dequantized_weight(), atol=1e-4)

    def test_byte_accounting(self):
        linear = Linear(64, 128)
        int8 = QuantizedLinear.from_linear(linear, bits=8, group_size=32)
        int4 = QuantizedLinear.from_linear(linear, bits=4, group_size=32)
        assert int8.dense_nbytes == 64 * 128 * 4
        assert int8.weight_nbytes == 64 * 128 + 2 * 4      # codes + 2 scales
        assert int4.weight_nbytes == 32 * 128 + 2 * 4      # two per byte
        # the resident-memory contract: int4 at most 0.3x float32
        assert int4.weight_nbytes <= 0.3 * int4.dense_nbytes
        assert int8.weight_nbytes <= 0.3 * int8.dense_nbytes


class TestModelConversion:
    def test_converts_every_linear_and_stays_float_elsewhere(self):
        model = tiny_model()
        n_linear = sum(isinstance(m, Linear) for m in iter_modules(model))
        converted = quantize_model(model, "int8")
        assert converted == n_linear
        assert not any(isinstance(m, Linear) for m in iter_modules(model))
        # embeddings and LayerNorm untouched
        assert model.token_embedding.weight.data.dtype == np.float32
        stats = quantization_stats(model)
        assert stats["quantized_layers"] == converted
        assert stats["weight_bytes_saved"] > 0

    def test_idempotent_and_mismatch_guarded(self):
        model = tiny_model()
        first = quantize_model(model, "int4", 32)
        assert first > 0
        assert quantize_model(model, "int4", 32) == 0
        with pytest.raises(ValueError):
            quantize_model(model, "int8", 32)
        with pytest.raises(ValueError):
            quantize_model(model, "int4", 16)
        with pytest.raises(ValueError):
            quantize_model(tiny_model(), "int2")

    def test_tied_and_dict_held_submodules_convert_once(self):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.shared = Linear(8, 8)
                self.alias = self.shared                  # tied weights
                self.heads = {"a": Linear(8, 4), "b": Linear(8, 4)}

        holder = Holder()
        assert quantize_model(holder, "int8", 4) == 3     # shared counts once
        assert holder.alias is holder.shared
        assert isinstance(holder.shared, QuantizedLinear)
        assert all(isinstance(h, QuantizedLinear)
                   for h in holder.heads.values())

    def test_fake_quant_walk_dedupes_shared_weights(self):
        class Holder(Module):
            def __init__(self):
                super().__init__()
                self.shared = Linear(8, 8)
                self.alias = self.shared
                self.heads = {"a": Linear(8, 4)}

        holder = Holder()
        holder.shared.weight.data = RNG.normal(size=(8, 8)).astype(np.float32)
        once = reference_quantize_array(holder.shared.weight.data, 4, 4)
        count = quantize_model_weights(holder, bits=4, group_size=4)
        assert count == 2      # shared visited once, dict head found
        # visited once: the weight sits on the 4-bit grid of the *original*
        # values, not a grid-of-a-grid from double application
        assert (holder.shared.weight.data == once).all()

    def test_quantized_model_forward_close_to_fake_quant(self):
        model = tiny_model(seed=3)
        fake = copy.deepcopy(model)
        quantize_model_weights(fake, bits=8, group_size=32)
        quantize_model(model, "int8", 32)
        ids = np.array([[1, 2, 3, 4]])

        def logits(lm):
            hidden, _ = infer.extend(lm, infer.embed(lm.token_embedding, ids))
            return infer.logits(lm, hidden)

        assert np.allclose(logits(model), logits(fake), atol=1e-3)

    def test_modes_match_registry(self):
        assert QUANTIZATION_BITS == {"int8": 8, "int4": 4}


class TestIterModules:
    def test_dedup_and_containers(self):
        class Inner(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(4, 4)

        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.inner = Inner()
                self.twice = self.inner
                self.stack = [Linear(4, 4), (Linear(4, 4),)]
                self.table = {"x": Linear(4, 4)}
                self.p = Parameter(np.zeros(3, np.float32))

        outer = Outer()
        found = list(iter_modules(outer))
        assert len(found) == len(set(map(id, found)))
        assert sum(isinstance(m, Linear) for m in found) == 4
        assert found[0] is outer
