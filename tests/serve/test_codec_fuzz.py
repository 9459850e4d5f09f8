"""Fuzzing the snapshot codec: a blob that does not decode fails narrowly.

Whatever the bytes — arbitrary ones, a real deployed blob cut short, or
that blob with one byte changed — :func:`decode_value` returns or raises
:class:`CodecError`, :meth:`SessionSnapshot.from_bytes` returns or raises
:class:`SnapshotError`, and :meth:`SessionSnapshot.build_session` of
whatever ``from_bytes`` accepted returns or raises ``SnapshotError``:
the one error ``PromptServeEngine`` quarantines a blob for, instead of
failing every later query of its user.

The examples are derandomized, so the suite is repeatable; raise
``max_examples`` and drop ``derandomize`` locally for a longer campaign.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import FrameworkConfig
from repro.data import build_tokenizer, make_dataset, make_user
from repro.llm import build_model
from repro.serve import (
    PromptServeEngine,
    SessionSnapshot,
    SnapshotError,
    TuneRequest,
)
from repro.serve.codec import CodecError, decode_value
from repro.serve.snapshot import MAGIC, SCHEMA_VERSION

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

HEADER = MAGIC + SCHEMA_VERSION.to_bytes(2, "little")


def _flipped(value):
    """``value`` with every array byte inverted, shapes and dtypes kept."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return (data.view(np.uint8) ^ 0xFF).view(data.dtype) \
            .reshape(data.shape)
    if isinstance(value, dict):
        return {key: _flipped(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_flipped(item) for item in value]
    return value


@pytest.fixture(scope="module")
def deployed():
    """A deployed ``fast`` session's raw blob — cells, levels, packed
    generator states, autoencoder — on an untrained model (its layout is
    a trained one's), plus the offsets of every byte that is *not* array
    payload: the tags, lengths, keys and scalars a flip can misparse."""
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 10,
                                              seed=0)
    engine.submit(TuneRequest(user_id=0, samples=tuple(samples)))
    engine.answer(0, samples[-1].input_text)
    snap = SessionSnapshot.capture(engine.session(0), mode="raw")
    blob = snap.to_bytes()
    twin = dataclasses.replace(snap, library=_flipped(snap.library),
                               deployment=_flipped(snap.deployment))
    same = (np.frombuffer(blob, np.uint8)
            == np.frombuffer(twin.to_bytes(), np.uint8))
    return model, tok, blob, np.flatnonzero(same).tolist()


def test_the_fuzzed_blob_carries_packed_generator_states(deployed):
    _, _, blob, skeleton = deployed
    body = decode_value(blob[len(HEADER):])
    banks = [store["bank"] for store in
             body["deployment"]["engine"]["stores"].values()]
    assert banks and all(bank["rng_states"].dtype == np.uint64
                         for bank in banks)
    # Mostly array payload; the skeleton is a few thousand bytes.
    assert 1_000 < len(skeleton) < len(blob) // 20


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.binary(max_size=512))
def test_decode_value_raises_only_codec_errors(data):
    try:
        decode_value(data)
    except CodecError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=st.binary(max_size=512))
def test_from_bytes_raises_only_snapshot_errors(body):
    for blob in (body, HEADER + body):
        try:
            SessionSnapshot.from_bytes(blob)
        except SnapshotError:
            pass


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_truncated_blob_is_refused(deployed, data):
    *_, blob, _ = deployed
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(SnapshotError):
        SessionSnapshot.from_bytes(blob[:cut])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_byte_restores_or_is_refused(deployed, data):
    model, tok, blob, skeleton = deployed
    at = data.draw(st.sampled_from(skeleton) | st.integers(0, len(blob) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    changed = blob[:at] + bytes([byte]) + blob[at + 1:]
    try:
        decode_value(changed[len(HEADER):])
    except CodecError:
        pass
    try:
        SessionSnapshot.from_bytes(changed).build_session(model, tok)
    except SnapshotError:
        pass
