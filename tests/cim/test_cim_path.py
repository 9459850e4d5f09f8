"""The per-query CiM path is bit-identical to its long-hand oracle.

Two equal stores (same values, geometry and seed) are driven one through
production — ``CiMSearchEngine.query_batch``, ``CiMMatrix.matmat`` /
``read_columns`` / ``read_matrix``, ``TileBank.matmat`` — and one through
``tests/oracles/cim_path.py``; scores, outputs, read-backs and every
per-tile counter must be ``np.array_equal``, over devices, variation,
ADC resolution, subarray geometry (``d`` a whole number of subarray rows
and not, several column tiles), batch widths with a repeated query and
every mitigation.
"""

import numpy as np
import pytest

from repro.cim import CiMMatrix
from repro.mitigation import MITIGATION_REGISTRY
from repro.nvm import TileBank, available_devices, get_device
from repro.retrieval import CiMSearchEngine, SearchConfig
from tests.oracles.cim_path import (bank_matmat_reference, matmat_reference,
                                    query_batch_reference,
                                    read_columns_reference, read_reference)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

COUNTERS = ("cells_programmed", "write_pulses", "mvm_ops",
            "adc_conversions", "cell_reads")


def assert_same_counters(bank, twin):
    for name in COUNTERS:
        assert np.array_equal(getattr(bank, name), getattr(twin, name)), name


@st.composite
def batches(draw, rng, width):
    """1, 3 or 8 queries; a batch of several repeats its first query and
    may hold an all-zero one (the ADC's zero full-scale guard)."""
    batch = draw(st.sampled_from([1, 3, 8]))
    queries = rng.normal(size=(batch, width)).astype(np.float32)
    if batch > 1:
        queries[-1] = queries[0]
        if draw(st.booleans()):
            queries[1] = 0.0
    return queries


@st.composite
def stores(draw):
    """A matrix on small subarrays: ``d`` a multiple of the rows or not,
    ``n`` over one to three column tiles."""
    rows = draw(st.sampled_from([4, 8]))
    cols = draw(st.sampled_from([2, 4]))
    d = rows * draw(st.integers(1, 3)) - draw(st.sampled_from([0, 0, 1, 3]))
    n = draw(st.integers(1, 3 * cols))
    return dict(
        shape=(d, n), rows=rows, cols=cols,
        device=draw(st.sampled_from(available_devices())),
        sigma=draw(st.sampled_from([0.0, 0.1])),
        adc_bits=draw(st.sampled_from([4, 8])),
        mitigation=draw(st.sampled_from(sorted(MITIGATION_REGISTRY))),
        seed=draw(st.integers(0, 2 ** 16)))


def matrix_pair(spec, values):
    return [CiMMatrix(values, get_device(spec["device"]), sigma=spec["sigma"],
                      rows=spec["rows"], cols=spec["cols"],
                      adc_bits=spec["adc_bits"],
                      mitigation=MITIGATION_REGISTRY[spec["mitigation"]](),
                      rng=np.random.default_rng(spec["seed"]))
            for _ in range(2)]


@settings(max_examples=40, deadline=None)
@given(spec=stores(), data=st.data())
def test_matrix_product_and_read_equal_the_oracle(spec, data):
    rng = np.random.default_rng(spec["seed"])
    values = rng.normal(size=spec["shape"]).astype(np.float32)
    matrix, twin = matrix_pair(spec, values)
    d, n = spec["shape"]
    for _ in range(2):
        queries = data.draw(batches(rng, d))
        assert np.array_equal(matrix.matmat(queries),
                              matmat_reference(twin, queries))
        assert_same_counters(matrix.bank, twin.bank)
    col0 = data.draw(st.integers(0, n - 1))
    col1 = data.draw(st.integers(col0 + 1, n))
    assert np.array_equal(matrix.read_columns(col0, col1),
                          read_columns_reference(twin, col0, col1))
    assert np.array_equal(matrix.read_matrix(), read_reference(twin, 0, n))
    assert_same_counters(matrix.bank, twin.bank)


@settings(max_examples=25, deadline=None)
@given(spec=stores(), planes=st.integers(1, 3), data=st.data())
def test_bank_product_equals_the_oracle(spec, planes, data):
    d, n = spec["shape"]
    rows, cols = spec["rows"], spec["cols"]
    grid = -(-d // rows), -(-n // cols)
    device = get_device(spec["device"])
    banks = [TileBank(device, planes * grid[0] * grid[1], rows=rows,
                      cols=cols, sigma=spec["sigma"],
                      adc_bits=spec["adc_bits"], shape=(d, n))
             for _ in range(2)]
    rng = np.random.default_rng(spec["seed"])
    levels = [rng.integers(0, device.n_levels, size=tuple(corner))
              for corner in banks[0].extent]
    for bank in banks:
        bank.program(levels)
    queries = data.draw(batches(rng, grid[0] * rows))
    chunks = np.ascontiguousarray(
        queries.reshape(len(queries), grid[0], rows).transpose(1, 0, 2))
    assert np.array_equal(banks[0].matmat(chunks),
                          bank_matmat_reference(banks[1], chunks))
    assert_same_counters(*banks)


@settings(max_examples=25, deadline=None)
@given(device=st.sampled_from(available_devices()),
       sigma=st.sampled_from([0.0, 0.1]),
       mitigation=st.sampled_from(sorted(MITIGATION_REGISTRY)),
       code_dim=st.sampled_from([24, 48, 72]),
       n_ovts=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_search_equals_the_oracle(device, sigma, mitigation, code_dim,
                                  n_ovts, seed, data):
    """The spine's geometry: 16 pooled rows of ``code_dim`` on 384x128
    subarrays, so the scale stores are 16 / s * code_dim rows — a whole
    number of subarrays, one padded row tile, or both across scales."""
    config = SearchConfig(pad_length=16)
    rng = np.random.default_rng(seed)
    encoded = [rng.normal(size=(int(rng.integers(1, 20)), code_dim))
               .astype(np.float32) for _ in range(n_ovts)]
    engine, twin = [
        CiMSearchEngine(get_device(device), sigma=sigma, config=config,
                        mitigation=MITIGATION_REGISTRY[mitigation](),
                        rng=np.random.default_rng(seed))
        for _ in range(2)]
    for store in (engine, twin):
        store.build(encoded)
    for _ in range(2):
        batch = data.draw(st.sampled_from([1, 3, 8]))
        queries = [rng.normal(size=(int(rng.integers(1, 24)), code_dim))
                   .astype(np.float32) for _ in range(batch)]
        if batch > 1:
            queries[-1] = queries[0]
            if data.draw(st.booleans()):
                queries[1] = np.zeros_like(queries[1])
        assert np.array_equal(engine.query_batch(queries),
                              query_batch_reference(twin, queries))
    index = data.draw(st.integers(0, n_ovts - 1))
    assert np.array_equal(
        engine._stores[1].read_columns(index, index + 1),
        read_columns_reference(twin._stores[1], index, index + 1))
    for scale in config.scales:
        assert_same_counters(engine._stores[scale].bank,
                             twin._stores[scale].bank)
