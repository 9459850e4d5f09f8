"""Session snapshots: codec, capture/restore, and the golden fixture.

Run this module directly to regenerate the golden fixture after an
intentional schema bump::

    PYTHONPATH=src python tests/serve/test_snapshot.py
"""

import dataclasses
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.compression import OVTAutoencoder
from repro.core import FrameworkConfig, OVTTrainingPipeline
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionSnapshot,
    SessionStore,
    SnapshotError,
    TuneRequest,
)
from repro.serve.codec import CodecError, decode_value, encode_value
from repro.serve.snapshot import HEADER, HEADER_SIZE, MAGIC, SCHEMA_VERSION
from tests.engine_calls import answer_text
from tests.oracles.crossbar import whole_tiles
from tests.oracles.generation import session_answer_sequential
from tests.oracles.legacy_rngs import dict_form
from tests.serve.sealing import sealed

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "golden_session_v3.nvpt"
# Earlier schemas' fixtures, kept as blobs this build refuses.
GOLDEN_V1_PATH = DATA / "golden_session_v1.nvpt"
GOLDEN_V2_PATH = DATA / "golden_session_v2.nvpt"
GOLDEN_USER = 7

# Retired config switches -> (the config section holding them, a value).
RETIRED_KEYS = {"vectorized": (None, True), "batched": ("tuning", True),
                "base_quantization": (None, "int8"),
                "quantization_group_size": (None, 32),
                "on_cim": (None, True)}


def build_stack():
    """The deterministic model every snapshot in this module targets."""
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


def golden_engine(model, tok):
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    engine.submit(TuneRequest(user_id=GOLDEN_USER,
                              samples=tuple(stream_for(GOLDEN_USER, 10))))
    return engine


@pytest.fixture(scope="module")
def setup():
    return build_stack()


@pytest.fixture(scope="module")
def trained_session(setup):
    """User 0's session, trained and warmed with one served query."""
    model, tok = setup
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"))
    engine.submit(TuneRequest(user_id=0,
                              samples=tuple(stream_for(0, 10))))
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                  eos_id=tok.eos_id)
    query = stream_for(0, 12)[11].input_text
    answer = engine.query(QueryRequest(user_id=0, text=query,
                                       generation=generation)).answer
    return engine.session(0), query, generation, answer


class TestCodec:
    def test_scalar_roundtrip(self):
        values = [None, True, False, 0, -1, 7, 1.5, -0.0, "héllo", b"\x00raw",
                  [1, [2, "x"], None], {"a": 1, "b": [True]}]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_bool_is_not_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert encode_value(True) != encode_value(1)

    def test_tuples_decode_as_lists(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_big_ints_roundtrip(self):
        # Arbitrary precision: the codec is not sized to today's values.
        for value in (1 << 127, -(1 << 200), (1 << 128) - 1):
            assert decode_value(encode_value(value)) == value

    def test_array_roundtrip_preserves_dtype_and_shape(self):
        arrays = [np.arange(6, dtype=np.int64).reshape(2, 3),
                  np.float32([[1.5, -2.5]]),
                  np.array([], dtype=np.float64),
                  np.array(True),
                  np.zeros((2, 0, 3), dtype=np.uint8)]
        for array in arrays:
            out = decode_value(encode_value(array))
            assert out.dtype == array.dtype
            assert out.shape == array.shape
            assert np.array_equal(out, array)

    def test_non_contiguous_array_roundtrip(self):
        array = np.arange(12, dtype=np.float32).reshape(3, 4).T
        out = decode_value(encode_value(array))
        assert np.array_equal(out, array)

    def test_canonical_dict_key_order(self):
        assert encode_value({"b": 1, "a": 2}) == encode_value({"a": 2, "b": 1})

    def test_rejects_object_arrays(self):
        with pytest.raises(CodecError, match="dtype"):
            encode_value(np.array([object()]))
        with pytest.raises(CodecError, match="dtype"):
            encode_value(np.array(["strings"]))

    def test_rejects_unsupported_types(self):
        with pytest.raises(CodecError, match="type"):
            encode_value({1, 2})
        with pytest.raises(CodecError, match="keys"):
            encode_value({1: "non-str key"})

    def test_rejects_trailing_garbage(self):
        with pytest.raises(CodecError, match="trailing"):
            decode_value(encode_value(1) + b"x")

    def test_rejects_truncation_and_unknown_tags(self):
        blob = encode_value({"k": [1, 2.5]})
        with pytest.raises(CodecError):
            decode_value(blob[:-1])
        with pytest.raises(CodecError, match="tag"):
            decode_value(b"Z")

    # One flipped byte used to escape as a numpy or unicode error, which
    # SessionSnapshot.from_bytes passed on unwrapped and the engine, which
    # quarantines on SnapshotError only, met on every query of the user.
    @pytest.mark.parametrize("dtype", [b"<z4", b"\xff<f", b"<f3", b"<U4",
                                       b"|O8", b"<f4,", b"f4"])
    def test_unknown_array_dtype_is_a_codec_error(self, dtype):
        blob = bytearray(encode_value(np.zeros(2, dtype=np.float32)))
        assert blob[2:5] == b"<f4"
        blob[1:5] = bytes([len(dtype)]) + dtype
        with pytest.raises(CodecError, match="dtype"):
            decode_value(bytes(blob))

    def test_non_utf8_text_is_a_codec_error(self):
        for value in ("key", {"key": 1}):
            blob = bytearray(encode_value(value))
            blob[blob.index(b"key")] = 0xFF
            with pytest.raises(CodecError, match="UTF-8"):
                decode_value(bytes(blob))

    def test_arrays_past_numpy_limits_are_codec_errors(self):
        """A zero-size payload can claim any dims; numpy refuses ones
        past its rank or size limits with ValueError."""
        header = b"a\x03<f4"
        too_big = header + b"\x02" + struct.pack("<QQQ", 0, 1 << 62, 0)
        too_many = header + b"\x41" + struct.pack("<Q", 0) * 66
        for blob in (too_big, too_many):
            with pytest.raises(CodecError, match="shape"):
                decode_value(blob)

    def test_deep_nesting_is_a_codec_error(self):
        blob = (b"l" + struct.pack("<Q", 1)) * 100_000 + b"N"
        with pytest.raises(CodecError, match="deeply"):
            decode_value(blob)


class TestSessionRoundTrip:
    @pytest.mark.parametrize("mode", ["raw", "recipe"])
    def test_restored_session_answers_byte_identically(
            self, setup, trained_session, mode, monkeypatch):
        model, tok = setup
        session, query, generation, answer = trained_session
        blob = SessionSnapshot.capture(session, mode=mode).to_bytes()

        # Restoring must never re-run a tuner step: trip on any attempt.
        def boom(*args, **kwargs):
            raise AssertionError("tuner ran during restore")
        monkeypatch.setattr(OVTTrainingPipeline, "_run_epoch", boom)
        monkeypatch.setattr(OVTAutoencoder, "fit", boom)
        monkeypatch.setattr(OVTAutoencoder, "update", boom)

        # The path a real restore takes: an engine finds the blob in
        # its store on the user's next query.
        store = SessionStore()
        store.put(session.user_id, blob)
        engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                                   session_store=store)
        assert answer_text(engine, session.user_id, query, generation) == answer
        assert engine.stats()["sessions_restored"] == 1
        restored = engine.session(session.user_id)
        assert restored.queries_served == session.queries_served + 1
        assert restored.epochs_completed == session.epochs_completed
        assert len(restored.library) == len(session.library)
        for mine, theirs in zip(restored.library.ovts, session.library.ovts):
            assert np.array_equal(mine.matrix, theirs.matrix)

    def test_raw_restore_reprograms_nothing(self, setup, trained_session):
        model, tok = setup
        session, query, generation, _ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        restored = snap.build_session(model, tok)
        # Counters land exactly where the original's were — including the
        # write pulses the original spent — with no fresh programming, and
        # the whole deployment (conductances, counters, generator states)
        # is bit-identical: re-snapshotting yields the same bytes.
        assert restored.cim_stats() == session.cim_stats()
        assert encode_value(restored._deployment.snapshot()) == \
            encode_value(session._deployment.snapshot())

    def test_recipe_restore_rebuilds_identical_conductances(
            self, setup, trained_session):
        """A recipe is the session as if its deployment had just been
        retired: counters banked, crossbars re-programmed — identically,
        and billed — on the next use."""
        model, tok = setup
        session, *_ = trained_session
        assert session.is_deployed
        snap = SessionSnapshot.capture(session, mode="recipe")
        assert snap.deployment is None
        restored = SessionSnapshot.from_bytes(
            snap.to_bytes()).build_session(model, tok)
        assert not restored.is_deployed
        assert restored.cim_stats() == session.cim_stats()

        stores = restored.deployment().engine._stores
        originals = session.deployment().engine._stores
        assert stores.keys() == originals.keys()
        for scale, matrix in stores.items():
            assert np.array_equal(whole_tiles(matrix.bank),
                                  whole_tiles(originals[scale].bank))
        # One pulse per occupied cell: two OVTs on 768 + 384 + 192 rows,
        # eight slices.
        one_programming = sum(int(matrix.bank.extent.prod(axis=1).sum())
                              for matrix in stores.values())
        assert one_programming == 21_504
        assert (restored.cim_stats().write_pulses
                == session.cim_stats().write_pulses + one_programming)

    @pytest.mark.parametrize("key", ["conductance", "target_levels",
                                     "rng_states", "ints"])
    def test_raw_blob_missing_state_never_builds_a_session(
            self, setup, trained_session, key):
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        store = next(iter(snap.deployment["engine"]["stores"].values()))
        del (store if key == "ints" else store["bank"])[key]
        damaged = SessionSnapshot.from_bytes(snap.to_bytes())
        with pytest.raises(SnapshotError, match=key):
            damaged.build_session(model, tok)

    # The geometry integers are right and one array is not: restore()
    # looks at every array before adopting any (it used to adopt them
    # unseen, and the session died on a later query).
    MALFORMED = {
        "conductance": lambda store: store["bank"].update(
            conductance=store["bank"]["conductance"][:-4]),
        "target_levels-shape": lambda store: store["bank"].update(
            target_levels=store["bank"]["target_levels"][:-4]),
        "target_levels-range": lambda store: store["bank"].update(
            target_levels=store["bank"]["target_levels"] + 9),
        "rng_states": lambda store: store["bank"].update(
            rng_states=store["bank"]["rng_states"][:1]),
        "counters": lambda store: store["bank"]["counters"].update(
            mvm_ops=store["bank"]["counters"]["mvm_ops"][:1]),
        "ints": lambda store: store.update(ints=store["ints"][:-1]),
    }

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_raw_blob_malformed_state_never_builds_a_session(
            self, setup, trained_session, field):
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        self.MALFORMED[field](
            next(iter(snap.deployment["engine"]["stores"].values())))
        damaged = SessionSnapshot.from_bytes(snap.to_bytes())
        with pytest.raises(SnapshotError, match="does not restore"):
            damaged.build_session(model, tok)

    # Every store restores and the engine section's parts disagree: each
    # used to build a session whose every query then raised (KeyError: 4,
    # IndexError), which a gateway answered as "no session" forever.
    INCONSISTENT = {
        "missing-scale": lambda engine: engine["stores"].pop("4"),
        "extra-scale": lambda engine: engine["stores"].update(
            {"8": engine["stores"]["4"]}),
        "norms-short": lambda engine: engine.update(norms={
            scale: norms[:1] for scale, norms in engine["norms"].items()}),
        "row-counts-short": lambda engine: engine.update(
            row_counts=engine["row_counts"][:1]),
        # One OVT as far as the counts go; the stores hold two.
        "store-width": lambda engine: engine.update(
            count=1, row_counts=engine["row_counts"][:1], norms={
                scale: norms[:1] for scale, norms in engine["norms"].items()}),
    }

    @pytest.mark.parametrize("damage", sorted(INCONSISTENT))
    def test_raw_blob_inconsistent_engine_never_builds_a_session(
            self, setup, trained_session, damage):
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        self.INCONSISTENT[damage](snap.deployment["engine"])
        damaged = SessionSnapshot.from_bytes(snap.to_bytes())
        with pytest.raises(SnapshotError, match="does not restore"):
            damaged.build_session(model, tok)

    def test_raw_blob_is_larger_than_recipe(self, trained_session):
        session, *_ = trained_session
        raw = SessionSnapshot.capture(session, mode="raw").to_bytes()
        recipe = SessionSnapshot.capture(session, mode="recipe").to_bytes()
        assert len(raw) > len(recipe)

    def test_buffer_and_prefill_metadata_travel(self, setup,
                                                trained_session):
        model, tok = setup
        session, query, _, _ = trained_session
        snap = SessionSnapshot.capture(session)
        assert [key[0] for key in snap.prefill_keys].count(query) == 1
        restored = snap.build_session(model, tok)
        original = session.pipeline.buffer.samples
        rebuilt = restored.pipeline.buffer.samples
        assert list(rebuilt) == list(original)
        # The KV cache itself stays behind; only its keys are metadata.
        assert len(restored._prefill_states) == 0


def _banks(session):
    return [matrix.bank for matrix in
            session._deployment.engine._stores.values()]


def _arrays(value):
    """Every ndarray anywhere inside a decoded snapshot value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, list):
        for item in value:
            yield from _arrays(item)


def _emptied(value):
    """The same tree with every ndarray emptied: the nodes of a snapshot
    without the bytes of its arrays."""
    if isinstance(value, np.ndarray):
        return value.reshape(-1)[:0]
    if isinstance(value, dict):
        return {key: _emptied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_emptied(item) for item in value]
    return value


class TestBlobMovesOnce:
    """The durable path without a clock: a blob is as big as its cells,
    encoding copies it once, decoding copies nothing, restoring copies
    each array once into memory the session owns."""

    def test_raw_blob_is_its_cells(self, trained_session):
        """The occupied cells — conductances at float32 plus levels at
        cell width — and the library, not the subarrays they sit in
        (fails by 7.8 MB when whole tiles travel, by 150 KB when levels
        travel as int64)."""
        session, *_ = trained_session
        blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
        cells = sum(bank.nbytes for bank in _banks(session))
        assert cells == 5 * 21_504
        assert len(blob) <= cells + 135 * 1024 <= 250_000
        levels = [store["bank"]["target_levels"] for store in
                  _body(blob)["deployment"]["engine"]["stores"].values()]
        assert levels and all(a.dtype.str == "|u1" for a in levels)

    def test_blob_is_a_few_hundred_nodes(self, trained_session):
        """Each node (a value or a dict key) is one Python call to code.
        Generator states travel as one packed array per bank and one row
        for the engine, not as 33 nested PCG64 dicts of 128-bit ints
        (564 of the 948 nodes a blob had while they did)."""
        session, *_ = trained_session
        body = _body(SessionSnapshot.capture(session, mode="raw").to_bytes())
        assert _nodes(body) < 400
        ints = [value for value in _leaves(body) if type(value) is int]
        assert max(ints) < 1 << 63
        banks = [store["bank"] for store in
                 body["deployment"]["engine"]["stores"].values()]
        assert sum(len(bank["rng_states"]) for bank in banks) == 32
        assert body["deployment"]["engine"]["rng_state"].dtype == np.uint64

    def test_encode_copies_once_and_decode_copies_nothing(
            self, trained_session):
        """A blob is ~390 small nodes around ~215 KB of arrays, so the
        nodes' own pieces and objects outweigh the bytes; they are
        measured on a twin with every array emptied and subtracted."""
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        twin = dataclasses.replace(snap, library=_emptied(snap.library),
                                   deployment=_emptied(snap.deployment))
        peaks = []
        tracemalloc.start()
        try:
            for each in (snap, twin):
                blob = each.to_bytes()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                each.to_bytes()
                encode_peak = tracemalloc.get_traced_memory()[1] - base
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                decoded = SessionSnapshot.from_bytes(blob)
                decode_peak = tracemalloc.get_traced_memory()[1] - base
                assert decoded.user_id == session.user_id
                peaks.append((len(blob), encode_peak, decode_peak))
                del decoded
        finally:
            tracemalloc.stop()
        array_bytes, encode_peak, decode_peak = np.subtract(*peaks)
        assert array_bytes > 200_000
        assert encode_peak < 1.1 * array_bytes
        assert decode_peak < 0.1 * array_bytes      # views, not copies

    def test_no_step_of_a_session_allocates_a_megabyte(
            self, setup, trained_session):
        """Deploy, one query, spill and restore of a ``fast`` user each
        stay under 1 MB of traced memory at their peak — so none makes a
        single allocation that large, as any whole-tile stack would be."""
        model, tok = setup
        session, query, generation, answer = trained_session
        store = SessionStore()
        store.put(0, SessionSnapshot.capture(session,
                                             mode="recipe").to_bytes())
        engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                                   session_store=store)
        fresh = engine.session(0)              # restored, not deployed
        assert not fresh.is_deployed
        steps = {
            "deploy": fresh.deployment,
            "query": lambda: answer_text(engine, 0, query, generation),
            "spill": lambda: SessionSnapshot.capture(
                fresh, mode="raw").to_bytes(),
        }
        steps["restore"] = lambda: SessionSnapshot.from_bytes(
            results["spill"]).build_session(model, tok)
        results, peaks = {}, {}
        tracemalloc.start()
        try:
            for name, step in steps.items():
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                results[name] = step()
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert results["query"] == answer
        assert results["restore"].is_deployed
        assert all(peak < 1_000_000 for peak in peaks.values()), peaks

    def test_decoded_arrays_are_read_only_views_and_restored_ones_owned(
            self, setup, trained_session):
        model, tok = setup
        session, query, generation, answer = trained_session
        blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
        snap = SessionSnapshot.from_bytes(blob)
        raw = np.frombuffer(blob, dtype=np.uint8)
        decoded = list(_arrays([snap.library, snap.deployment]))
        assert decoded
        for array in decoded:
            assert not array.flags.writeable
            assert array.size == 0 or np.shares_memory(array, raw)

        restored = snap.build_session(model, tok)
        owned = [ovt.matrix for ovt in restored.library.ovts]
        owned += [p.data for _, p in
                  restored.library.autoencoder.named_parameters()]
        owned += list(restored._deployment.engine._norms.values())
        for matrix in restored._deployment.engine._stores.values():
            bank = matrix.bank
            owned += [bank._cells, bank._levels, bank.mvm_ops,
                      bank.write_pulses, matrix._ints]
        for array in owned:
            assert not np.shares_memory(array, raw)
            assert array.flags.writeable and array.flags.aligned
        assert session_answer_sequential(restored, query,
                                         generation) == answer

    def test_restored_session_rngs_continue_identically(
            self, setup, trained_session):
        """Re-pulsing after a spill/restore draws the noise the original
        would have drawn (the session-level twin of the bank test)."""
        model, tok = setup
        session, *_ = trained_session
        blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
        twins = [SessionSnapshot.from_bytes(blob).build_session(model, tok)
                 for _ in range(2)]
        # Twin 0 goes through a second spill/restore cycle first.
        twins[0] = SessionSnapshot.from_bytes(
            SessionSnapshot.capture(twins[0], mode="raw").to_bytes()
        ).build_session(model, tok)
        for mine, theirs in zip(_banks(twins[0]), _banks(twins[1])):
            before = whole_tiles(mine)
            masks = [np.ones(shape, dtype=bool) for shape in mine.extent]
            mine.reprogram_cells(masks)
            theirs.reprogram_cells(masks)
            assert not np.array_equal(whole_tiles(mine), before)
            assert np.array_equal(whole_tiles(mine), whole_tiles(theirs))

    def test_old_form_generator_states_are_refused(
            self, setup, trained_session):
        """The blob an earlier build wrote for the same session: every
        generator state a PCG64 state dict (a bank's per tile under
        ``rngs``, the search engine's under ``rng``).  Sealed under this
        schema's header it decodes, and its deployment is refused."""
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        snap.deployment = dict_form(snap.deployment)
        old_blob = snap.to_bytes()
        assert b"rng_state" not in old_blob and b"rngs" in old_blob
        with pytest.raises(SnapshotError, match="rng_state"):
            SessionSnapshot.from_bytes(old_blob).build_session(model, tok)

    def test_wide_levels_from_an_older_build_are_refused(
            self, setup, trained_session):
        """The bytes the previous build wrote differ from ours only in
        ``int64`` levels; levels restore only at cell width."""
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        for store in snap.deployment["engine"]["stores"].values():
            bank = store["bank"]
            bank["target_levels"] = bank["target_levels"].astype(np.int64)
        old_blob = snap.to_bytes()
        new_blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
        # 7 more bytes for each of the 21,504 occupied cells.
        assert len(old_blob) - len(new_blob) >= 7 * 21_504
        with pytest.raises(SnapshotError, match="target_levels"):
            SessionSnapshot.from_bytes(old_blob).build_session(model, tok)


class TestSnapshotValidation:
    def test_rejects_bad_magic(self):
        with pytest.raises(SnapshotError, match="magic"):
            SessionSnapshot.from_bytes(b"NOTASNAP" + b"\x00" * 16)

    def test_rejects_short_blob(self):
        with pytest.raises(SnapshotError, match="short"):
            SessionSnapshot.from_bytes(MAGIC)

    def test_rejects_future_schema_version(self, trained_session):
        session, *_ = trained_session
        blob = SessionSnapshot.capture(session, mode="recipe").to_bytes()
        _, crc = HEADER.unpack_from(blob, len(MAGIC))
        future = MAGIC + HEADER.pack(SCHEMA_VERSION + 1, crc) \
            + blob[HEADER_SIZE:]
        with pytest.raises(SnapshotError,
                           match=f"version {SCHEMA_VERSION + 1} is not"):
            SessionSnapshot.from_bytes(future)

    def test_rejects_a_body_that_fails_its_checksum(self, trained_session):
        """Cut short or with one byte changed, the body no longer matches
        the header's CRC32: refused before anything is decoded."""
        session, *_ = trained_session
        blob = SessionSnapshot.capture(session, mode="recipe").to_bytes()
        middle = (HEADER_SIZE + len(blob)) // 2
        for damaged in (blob[:-3],
                        blob[:middle] + bytes([blob[middle] ^ 1])
                        + blob[middle + 1:]):
            with pytest.raises(SnapshotError, match="CRC32"):
                SessionSnapshot.from_bytes(damaged)

    def test_rejects_corrupt_body(self, trained_session):
        """Behind a checksum that matches, a body that does not decode."""
        session, *_ = trained_session
        blob = SessionSnapshot.capture(session, mode="recipe").to_bytes()
        with pytest.raises(SnapshotError, match="corrupt"):
            SessionSnapshot.from_bytes(sealed(blob[HEADER_SIZE:-3]))

    def test_rejects_model_fingerprint_mismatch(self, setup,
                                                trained_session):
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="recipe")
        snap.model_fingerprint = dict(snap.model_fingerprint,
                                      d_model=9999)
        with pytest.raises(SnapshotError, match="captured against"):
            snap.build_session(model, tok)

    def test_capture_rejects_unknown_mode(self, trained_session):
        session, *_ = trained_session
        with pytest.raises(ValueError, match="mode"):
            SessionSnapshot.capture(session, mode="zip")


class TestGoldenFixture:
    """Pin the on-disk format: schema v3 blobs must stay readable.

    If these fail after an *intentional* format change, bump
    ``SCHEMA_VERSION`` and regenerate via ``python tests/serve/test_snapshot.py``.
    """

    def test_golden_decodes_and_restores(self, setup):
        model, tok = setup
        blob = GOLDEN_PATH.read_bytes()
        snap = SessionSnapshot.from_bytes(blob)
        assert snap.user_id == GOLDEN_USER
        assert snap.mode == "recipe"
        assert snap.library["ovts"]
        restored = snap.build_session(model, tok)
        engine = golden_engine(model, tok)
        generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                      eos_id=tok.eos_id)
        query = stream_for(GOLDEN_USER, 10)[9].input_text
        assert session_answer_sequential(restored, query, generation) == \
            answer_text(engine, GOLDEN_USER, query, generation)

    def test_golden_reencodes_byte_identically(self):
        blob = GOLDEN_PATH.read_bytes()
        assert SessionSnapshot.from_bytes(blob).to_bytes() == blob

    def test_blob_report_accounts_for_every_golden_byte(self):
        """``tools/blob_report.py`` (the CI spine job runs it): its
        sections add up to the file, or it exits 1."""
        tool = pathlib.Path(__file__).parents[2] / "tools" / "blob_report.py"
        done = subprocess.run([sys.executable, str(tool), str(GOLDEN_PATH)],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        total = done.stdout.splitlines()[-1].split()
        assert total[0] == "total"
        assert int(total[1].replace(",", "")) == GOLDEN_PATH.stat().st_size
        assert "library.ovts[0].matrix" in done.stdout
        nodes = [line.split()[1] for line in done.stdout.splitlines()
                 if line.split()[0] == "nodes"]
        assert nodes == [f"{_nodes(_body(GOLDEN_PATH.read_bytes())):,}"]

    def test_golden_header_pins_schema_v3(self):
        """Magic, version 3, then the CRC32 of everything after it."""
        blob = GOLDEN_PATH.read_bytes()
        assert HEADER_SIZE == len(MAGIC) + 6
        assert blob[:len(MAGIC)] == MAGIC
        assert HEADER.unpack_from(blob, len(MAGIC)) == (
            3, zlib.crc32(blob[HEADER_SIZE:]))

    def test_this_build_writes_no_retired_keys(self, trained_session):
        """``vectorized`` / ``batched`` each only ever held one deployable
        value, ``base_quantization`` / ``quantization_group_size``
        described the engine's base model, not the session, and
        ``on_cim`` chose a digital store every deployment is now
        without (nor does a deployment section carry it); no section
        carries a ``version`` of its own: the header's is the blob's."""
        session, *_ = trained_session
        for mode in ("raw", "recipe"):
            blob = SessionSnapshot.capture(session, mode=mode).to_bytes()
            assert not ({*RETIRED_KEYS, "version"}
                        & set(_keys(_body(blob))))

    @pytest.mark.parametrize("key", sorted(RETIRED_KEYS))
    def test_retired_config_keys_refused(self, setup, key):
        """A retired switch in a blob's config is an unknown config key:
        the build refuses it rather than dropping it."""
        model, tok = setup
        snap = SessionSnapshot.from_bytes(GOLDEN_PATH.read_bytes())
        section, value = RETIRED_KEYS[key]
        (snap.config[section] if section else snap.config)[key] = value
        edited = SessionSnapshot.from_bytes(snap.to_bytes())
        with pytest.raises(SnapshotError, match=key):
            edited.build_session(model, tok)

    def test_recipe_with_a_deployment_section_refused(self, setup,
                                                      trained_session):
        """This build's recipes carry no deployment section at all; one
        that does is refused for that alone."""
        model, tok = setup
        session, *_ = trained_session
        snap = SessionSnapshot.capture(session, mode="raw")
        snap.mode = "recipe"
        edited = SessionSnapshot.from_bytes(snap.to_bytes())
        with pytest.raises(SnapshotError, match="deployment section"):
            edited.build_session(model, tok)


class TestSchemaOneFixture:
    """Schema 1's golden blob: refused by version, quarantined by the
    engine, and costing its user one re-tune."""

    def test_v1_fixture_is_refused_by_version(self):
        with pytest.raises(SnapshotError, match="version 1 is not"):
            SessionSnapshot.from_bytes(GOLDEN_V1_PATH.read_bytes())

    def test_engine_quarantines_the_v1_fixture(self, setup, tmp_path):
        _assert_quarantined(setup, tmp_path, GOLDEN_V1_PATH)


class TestSchemaTwoFixture:
    """Schema 2's golden blob, whose config still carries ``on_cim``:
    refused by its version before anything is decoded, quarantined, and
    costing its user one re-tune."""

    def test_v2_fixture_is_refused_by_version(self):
        with pytest.raises(SnapshotError, match="version 2 is not"):
            SessionSnapshot.from_bytes(GOLDEN_V2_PATH.read_bytes())

    def test_engine_quarantines_the_v2_fixture(self, setup, tmp_path):
        _assert_quarantined(setup, tmp_path, GOLDEN_V2_PATH)


def _assert_quarantined(setup, tmp_path, path):
    """An engine whose store holds ``path`` for the golden user moves it
    aside, knows no such user, and answers as the v3 fixture does once
    the user re-tunes."""
    model, tok = setup
    store = SessionStore(tmp_path)
    store.put(GOLDEN_USER, path.read_bytes())
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               session_store=store)
    generation = GenerationConfig(max_new_tokens=4, temperature=0.0,
                                  eos_id=tok.eos_id)
    query = stream_for(GOLDEN_USER, 10)[9].input_text
    with pytest.raises(KeyError):
        answer_text(engine, GOLDEN_USER, query, generation)
    assert engine.sessions_quarantined == 1
    assert store.get(GOLDEN_USER) is None
    assert (tmp_path / f"session_{GOLDEN_USER}.nvpt.quarantined"
            ).read_bytes() == path.read_bytes()
    engine.submit(TuneRequest(user_id=GOLDEN_USER,
                              samples=tuple(stream_for(GOLDEN_USER, 10))))
    restored = SessionSnapshot.from_bytes(
        GOLDEN_PATH.read_bytes()).build_session(model, tok)
    assert answer_text(engine, GOLDEN_USER, query, generation) == \
        session_answer_sequential(restored, query, generation)


def _body(blob):
    return decode_value(blob[HEADER_SIZE:])


def _nodes(value):
    """How many values and dict keys the codec codes for ``value``."""
    if isinstance(value, dict):
        return 1 + sum(1 + _nodes(item) for item in value.values())
    if isinstance(value, list):
        return 1 + sum(_nodes(item) for item in value)
    return 1


def _leaves(value):
    """Every non-container value inside a decoded snapshot body."""
    if isinstance(value, (dict, list)):
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _leaves(item)
    else:
        yield value


def _keys(value):
    """Every dict key anywhere inside a decoded snapshot body."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, list):
        for item in value:
            yield from _keys(item)


def regenerate_golden():
    model, tok = build_stack()
    engine = golden_engine(model, tok)
    blob = SessionSnapshot.capture(engine.session(GOLDEN_USER),
                                   mode="recipe").to_bytes()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_bytes(blob)
    print(f"wrote {GOLDEN_PATH} ({len(blob)} bytes, "
          f"schema v{SCHEMA_VERSION})")


if __name__ == "__main__":
    regenerate_golden()
