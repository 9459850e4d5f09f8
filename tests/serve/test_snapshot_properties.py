"""Property tests: snapshot round-trips across the configuration space.

Hypothesis drives device model x sigma x adc_bits x layout through the
NVM-layer codecs; plain parametrization covers the session round-trip
across tuner types (training is too slow per example for hypothesis).
"""

import dataclasses

import numpy as np
import pytest

from repro.cim import CiMMatrix
from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.nvm import available_devices, get_device
from repro.retrieval import SSA_CONFIG, CiMSearchEngine
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionSnapshot,
    TuneRequest,
)
from repro.serve.codec import decode_value, encode_value
from tests.oracles.codec import encode_reference
from tests.oracles.crossbar import whole_tiles
from tests.oracles.generation import session_answer_sequential
from tests.oracles.retrieval import query_scores

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

DEVICES = st.sampled_from(available_devices())
SIGMAS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3])
ADC_BITS = st.integers(min_value=4, max_value=10)


def codec_roundtrip(snap):
    return decode_value(encode_value(snap))


# Every value shape the codec supports, nested: scalars (ints past 64
# bits, for PCG64 states), text, bytes, and arrays of every allowed kind
# including 0-d, 0-size and non-contiguous ones.
DTYPES = st.sampled_from(["?", "u1", "<u2", "<i4", ">i4", "<i8", "<f4", "<f8"])


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    raw = draw(st.binary(min_size=int(np.prod(shape)) * dtype.itemsize,
                         max_size=int(np.prod(shape)) * dtype.itemsize))
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return array.T if draw(st.booleans()) else array


VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 130, 2 ** 130)
    | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.binary(max_size=8) | arrays(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12)


def same(a, b):
    """Structural equality that also pins array dtype and shape."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (isinstance(b, list) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    return type(a) is type(b) and a == b


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(value=VALUES)
    def test_encoding_is_the_reference_encoding(self, value):
        """The codec writes, byte for byte, what the reference walk
        (``tests/oracles/codec.py``) writes."""
        assert encode_value(value) == encode_reference(value)

    @settings(max_examples=200, deadline=None)
    @given(value=VALUES)
    def test_decoding_does_not_depend_on_the_buffer_type(self, value):
        blob = encode_value(value)
        padded = b"\x00" + blob       # an odd offset: unaligned payloads
        for buffer in (blob, bytearray(blob), memoryview(blob),
                       memoryview(padded)[1:]):
            decoded = decode_value(buffer)
            assert same(value, decoded)
            assert encode_value(decoded) == blob

    def test_zero_size_and_zero_d_arrays_roundtrip(self):
        for array in (np.zeros((2, 0, 3), dtype=np.float32),
                      np.array([], dtype=np.uint8),
                      np.array(2.5), np.array(7, dtype=np.uint16)):
            blob = encode_value(array)
            assert blob == encode_reference(array)
            for buffer in (blob, bytearray(blob), memoryview(blob)):
                assert same(array, decode_value(buffer))

    def test_arrays_decoded_from_a_bytearray_are_read_only(self):
        decoded = decode_value(bytearray(encode_value(np.arange(4))))
        assert not decoded.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            decoded[0] = 1


class TestCiMMatrixProperties:
    @settings(max_examples=25, deadline=None)
    @given(device_name=DEVICES, sigma=SIGMAS, adc_bits=ADC_BITS,
           seed=st.integers(0, 2**32 - 1))
    def test_snapshot_roundtrip_is_bit_identical(self, device_name, sigma,
                                                 adc_bits, seed):
        device = get_device(device_name)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(12, 5)).astype(np.float32)
        matrix = CiMMatrix(values, device, sigma=sigma, rows=8, cols=4,
                           adc_bits=adc_bits,
                           rng=np.random.default_rng(seed + 1))
        query = rng.normal(size=12).astype(np.float32)
        matrix.matmat(query[None])

        rebuilt = CiMMatrix.from_snapshot(codec_roundtrip(matrix.snapshot()),
                                          device)
        assert rebuilt.aggregate_stats() == matrix.aggregate_stats()
        assert np.array_equal(rebuilt.matmat(query[None]),
                              matrix.matmat(query[None]))
        assert np.array_equal(rebuilt.read_matrix(), matrix.read_matrix())

    @settings(max_examples=15, deadline=None)
    @given(device_name=DEVICES, sigma=SIGMAS,
           seed=st.integers(0, 2**32 - 1))
    def test_restored_rng_diverges_never(self, device_name, sigma, seed):
        """After restore, future noise draws match the original's."""
        device = get_device(device_name)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(10, 4)).astype(np.float32)
        matrix = CiMMatrix(values, device, sigma=sigma, rows=8, cols=4,
                           rng=np.random.default_rng(seed + 1))
        rebuilt = CiMMatrix.from_snapshot(matrix.snapshot(), device)
        # Every occupied cell: the (10, 4) matrix leaves a (2, 4) corner
        # in each slice's second row tile.
        masks = [np.ones(shape, dtype=bool) for shape in matrix.bank.extent]
        assert masks[1].shape == (2, 4)
        matrix.bank.reprogram_cells(masks)    # fresh noise draws
        rebuilt.bank.reprogram_cells(masks)
        assert np.array_equal(whole_tiles(rebuilt.bank),
                              whole_tiles(matrix.bank))


class TestSearchEngineProperties:
    @settings(max_examples=15, deadline=None)
    @given(device_name=DEVICES, sigma=SIGMAS, adc_bits=ADC_BITS,
           n_ovts=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_store_roundtrip_scores_identically(self, device_name, sigma,
                                                adc_bits, n_ovts, seed):
        device = get_device(device_name)
        config = dataclasses.replace(SSA_CONFIG, adc_bits=adc_bits)
        rng = np.random.default_rng(seed)
        engine = CiMSearchEngine(device, sigma=sigma, config=config,
                                 rng=np.random.default_rng(seed + 1))
        engine.build([rng.normal(size=(rng.integers(2, 6), 8))
                      .astype(np.float32) for _ in range(n_ovts)])
        query = rng.normal(size=(3, 8)).astype(np.float32)
        query_scores(engine, query)

        rebuilt = CiMSearchEngine.from_snapshot(
            codec_roundtrip(engine.snapshot()), device, config=config)
        assert rebuilt.aggregate_stats() == engine.aggregate_stats()
        assert np.array_equal(query_scores(rebuilt, query),
                              query_scores(engine, query))


@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


class TestSessionRoundTripAcrossTuners:
    """The full session round-trip for each tuner configuration.

    Hypothesis would retrain a pipeline per example; a straight grid over
    the tuner axis (noise-aware vs plain) x capture mode keeps the same
    coverage at a fraction of the cost.
    """

    @pytest.mark.parametrize("noise_aware", [True, False])
    @pytest.mark.parametrize("mode", ["raw", "recipe"])
    def test_roundtrip_answers_byte_identically(self, setup, noise_aware,
                                                mode):
        model, tok = setup
        config = FrameworkConfig.preset("fast", noise_aware=noise_aware)
        engine = PromptServeEngine(model, tok, config)
        samples = make_dataset("LaMP-2").generate(make_user(3, seed=0), 10,
                                                  seed=3)
        engine.submit(TuneRequest(user_id=3, samples=tuple(samples)))
        generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                      eos_id=tok.eos_id)
        query = samples[-1].input_text
        answer = engine.query(QueryRequest(user_id=3, text=query,
                                           generation=generation)).answer
        session = engine.session(3)
        assert session.library.noise_aware is noise_aware

        blob = SessionSnapshot.capture(session, mode=mode).to_bytes()
        restored = SessionSnapshot.from_bytes(blob).build_session(model, tok)
        assert restored.library.noise_aware is noise_aware
        assert restored.cim_stats() == session.cim_stats()
        assert session_answer_sequential(restored, query,
                                         generation) == answer
