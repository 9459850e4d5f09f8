"""Fuzzing the snapshot codec: a blob that does not decode fails narrowly.

Whatever the bytes — arbitrary ones, a real deployed blob cut short, or
that blob with one byte changed — :func:`decode_value` returns or raises
:class:`CodecError`, :meth:`SessionSnapshot.from_bytes` returns or raises
:class:`SnapshotError`, and :meth:`SessionSnapshot.build_session` of
whatever ``from_bytes`` accepted returns or raises ``SnapshotError``:
the one error ``PromptServeEngine`` quarantines a blob for, instead of
failing every later query of its user.  A changed byte anywhere in a
blob, header and array payloads included, fails the blob's CRC32 in
``from_bytes``; so that damage which still decodes keeps reaching
``build_session``, the restore fuzzing re-seals the changed body under a
checksum that matches.

And the codec is the reference walk (``tests/oracles/codec.py``) made
fast: for every kind of value it accepts it writes the reference's
bytes, and on valid encodings, truncations and byte flips it decodes an
equal value exactly when the reference does and raises ``CodecError``
exactly when the reference does.

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
from repro.serve.codec import CodecError, decode_value, encode_value
from repro.serve.snapshot import HEADER_SIZE
from tests.engine_calls import answer_text
from tests.oracles.codec import decode_reference, encode_reference
from tests.serve.sealing import sealed

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


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
    payload: the tags, lengths, keys and scalars a flip can misparse (and
    the header's magic and version, but not its CRC32, which covers the
    arrays too)."""
    tok = build_tokenizer()
    model = build_model("phi-2-sim", tok.vocab_size)
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    samples = make_dataset("LaMP-2").generate(make_user(0, seed=0), 10,
                                              seed=0)
    engine.submit(TuneRequest(user_id=0, samples=tuple(samples)))
    answer_text(engine, 0, samples[-1].input_text)
    snap = SessionSnapshot.capture(engine.session(0), mode="raw")
    blob = snap.to_bytes()
    twin = dataclasses.replace(snap, library=_flipped(snap.library),
                               deployment=_flipped(snap.deployment))
    same = (np.frombuffer(blob, np.uint8)
            == np.frombuffer(twin.to_bytes(), np.uint8))
    return model, tok, blob, np.flatnonzero(same).tolist()


def test_the_fuzzed_blob_carries_packed_generator_states(deployed):
    _, _, blob, skeleton = deployed
    body = decode_value(blob[HEADER_SIZE:])
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
    for blob in (body, sealed(body)):
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
def test_one_changed_byte_is_refused_by_its_checksum(deployed, data):
    """Header, skeleton or array payload: one byte changed and left
    unsealed, the blob never decodes."""
    *_, blob, skeleton = deployed
    at = data.draw(st.integers(0, HEADER_SIZE - 1)
                   | st.sampled_from(skeleton)
                   | st.integers(0, len(blob) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    with pytest.raises(SnapshotError):
        SessionSnapshot.from_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_byte_restores_or_is_refused(deployed, data):
    """The same damage to the body, re-sealed: what still decodes
    restores or is refused, never raises anything else."""
    model, tok, blob, skeleton = deployed
    body = blob[HEADER_SIZE:]
    at = data.draw(st.sampled_from(skeleton).filter(
        lambda i: i >= HEADER_SIZE) | st.integers(HEADER_SIZE, len(blob) - 1)
    ) - HEADER_SIZE
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != body[at]))
    changed = body[:at] + bytes([byte]) + body[at + 1:]
    try:
        decode_value(changed)
    except CodecError:
        pass
    try:
        SessionSnapshot.from_bytes(sealed(changed)).build_session(model, tok)
    except SnapshotError:
        pass


# ----------------------------------------------------------------------
# The codec against the reference walk
# ----------------------------------------------------------------------
class Key(str):
    """A ``str`` subclass: the encoder's exact-type path must hand it to
    the ``isinstance`` checks, as a value and as a dict key."""


DTYPES = st.sampled_from(["?", "u1", "<u2", "<i4", ">i4", "<i8", ">u8",
                          "<f2", "<f4", ">f8"])


@st.composite
def arrays(draw):
    """Arrays of every allowed kind and byte order: 0-d, 0-size, and
    non-contiguous (transposed or strided) ones among them."""
    dtype = np.dtype(draw(DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    size = int(np.prod(shape)) * dtype.itemsize
    array = np.frombuffer(draw(st.binary(min_size=size, max_size=size)),
                          dtype=dtype).reshape(shape)
    layout = draw(st.sampled_from(["c", "transposed", "strided"]))
    if layout == "transposed":
        return array.T
    if layout == "strided" and array.ndim:
        return array[::2]
    return array


NUMPY_SCALARS = (
    st.booleans().map(np.bool_)
    | st.integers(-2 ** 7, 2 ** 7 - 1).map(np.int8)
    | st.integers(0, 2 ** 16 - 1).map(np.uint16)
    | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
    | st.integers(0, 2 ** 64 - 1).map(np.uint64)
    | st.floats(width=32).map(np.float32)
    | st.floats().map(np.float64))

LEAVES = (
    st.none() | st.booleans() | st.integers(-2 ** 200, 2 ** 200)
    | st.floats() | st.text(max_size=8) | st.text(max_size=4).map(Key)
    | st.binary(max_size=8) | st.binary(max_size=8).map(bytearray)
    | NUMPY_SCALARS | arrays())

VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4) | st.text(max_size=4).map(Key),
                      children, max_size=4),
    max_leaves=16)


def decodes_alike(blob) -> bool:
    """Decode ``blob`` with the codec and with the reference: both raise
    ``CodecError``, or both return values of one canonical encoding
    (which pins every type, dtype, shape and bit).  Whether they decoded."""
    try:
        expected = decode_reference(blob)
    except CodecError:
        with pytest.raises(CodecError):
            decode_value(blob)
        return False
    decoded = decode_value(blob)
    assert encode_reference(decoded) == encode_reference(expected)
    return True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=VALUES)
def test_a_value_encodes_and_decodes_as_the_reference_walk_does(value):
    blob = encode_value(value)
    assert blob == encode_reference(value)
    assert decodes_alike(blob)


@pytest.mark.parametrize("value", [
    {1: 0}, {1: 0, "a": 0}, {None: 0}, {b"key": 0}, {0}, object(),
    np.array(["text"]), np.array([None], dtype=object), [np.array([1j])],
], ids=["int-key", "mixed-keys", "none-key", "bytes-key", "set", "object",
        "str-array", "object-array", "complex-array"])
def test_what_the_reference_refuses_is_refused(value):
    for encode in (encode_value, encode_reference):
        with pytest.raises(CodecError):
            encode(value)


def _n(count: int) -> bytes:
    return count.to_bytes(8, "little")


@pytest.mark.parametrize("blob", [
    b"d" + _n(1) + b"i\x01\x05" + b"s" + _n(1) + b"v",
    b"d" + _n(1) + b"N" + b"s" + _n(1) + b"v",
    b"d" + _n(1) + b"b" + _n(1) + b"k" + b"N",
    b"d" + _n(1) + b"l" + _n(0) + b"N",
    b"d" + _n(1) + b"s\x01\x00",
    b"d" + _n(2) + b"s" + _n(1) + b"k" + b"N",
    b"s" + _n(1) + b"\xff",
    b"a\x03|O8\x01" + _n(1) + _n(8) + bytes(8),
    b"a\x03<f3\x01" + _n(1) + _n(3) + bytes(3),
    b"a\x03<i4\x01" + _n(2) + _n(4) + bytes(4),
    b"a\x03<i4\x02" + _n(2 ** 62) + _n(0) + _n(0),
    b"i\x02\x01",
    b"x",
    b"N" + b"N",
], ids=["int-key", "none-key", "bytes-key", "list-key", "key-cut-short",
        "entry-missing", "not-utf8", "object-dtype", "unknown-dtype",
        "payload-short", "shape-past-numpy", "int-cut-short", "unknown-tag",
        "trailing-bytes"])
def test_a_hostile_blob_is_refused_as_the_reference_refuses_it(blob):
    assert not decodes_alike(blob)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(value=VALUES, data=st.data())
def test_a_damaged_encoding_decodes_as_the_reference_decodes_it(value,
                                                               data):
    """Cut short, it is refused by both; one byte changed, both decode it
    to one value or both refuse it."""
    blob = encode_value(value)
    cut = data.draw(st.integers(0, len(blob) - 1))
    assert not decodes_alike(blob[:cut])
    at = data.draw(st.integers(0, len(blob) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    decodes_alike(blob[:at] + bytes([byte]) + blob[at + 1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_the_deployed_blob_flipped_decodes_as_the_reference_decodes_it(
        deployed, data):
    *_, blob, skeleton = deployed
    body = blob[HEADER_SIZE:]
    at = data.draw(st.sampled_from(skeleton).filter(
        lambda i: i >= HEADER_SIZE)) - HEADER_SIZE
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != body[at]))
    decodes_alike(body[:at] + bytes([byte]) + body[at + 1:])
