"""SessionStore backends and the engine's spill/restore integration."""

import errno
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import FrameworkConfig
from repro.data import build_corpus, build_tokenizer, make_dataset, make_user
from repro.llm import GenerationConfig, PretrainConfig, build_model, pretrain_lm
from repro.serve import (
    PromptServeEngine,
    QueryRequest,
    SessionSnapshot,
    SessionStore,
    TuneRequest,
)
from repro.serve.codec import encode_value
from repro.serve.snapshot import HEADER_SIZE
from tests.engine_calls import answer_text
from tests.serve.sealing import sealed

CIM_KEYS = ("cim_mvm_ops", "cim_adc_conversions", "cim_cell_reads",
            "cim_write_pulses")


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "disk":
        return SessionStore(tmp_path / "spool")
    return SessionStore()


class TestSessionStoreBackends:
    def test_put_get_roundtrip(self, store):
        store.put(7, b"blob-7")
        assert store.get(7) == b"blob-7"
        assert 7 in store
        assert store.get(8) is None
        assert 8 not in store

    def test_overwrite_replaces(self, store):
        store.put(1, b"old")
        store.put(1, b"new")
        assert store.get(1) == b"new"
        assert len(store) == 1

    def test_delete(self, store):
        store.put(1, b"x")
        assert store.delete(1)
        assert not store.delete(1)
        assert store.get(1) is None

    def test_quarantine_moves_the_blob_out_of_sight(self, store):
        store.put(1, b"bad")
        store.put(2, b"good")
        assert store.quarantine(1)
        assert not store.quarantine(1)
        assert store.get(1) is None and 1 not in store
        assert store.user_ids() == [2] and store.stats()["bytes"] == 4
        if store.directory is not None:     # kept for whoever asks why
            assert (store.directory / "session_1.nvpt.quarantined"
                    ).read_bytes() == b"bad"
        store.put(1, b"fresh")              # the user can come back
        assert store.get(1) == b"fresh"

    def test_user_ids_sorted(self, store):
        for user_id in (5, 1, 9):
            store.put(user_id, b"x")
        assert store.user_ids() == [1, 5, 9]
        store.clear()
        assert store.user_ids() == []
        assert len(store) == 0

    def test_stats(self, store):
        store.put(1, b"abc")
        store.put(2, b"defgh")
        stats = store.stats()
        assert stats["sessions"] == 2
        assert stats["bytes"] == 8
        assert stats["backend"] == store.backend


def listing(directory):
    return sorted(path.name for path in directory.iterdir())


class TestDiskBackend:
    def test_one_file_per_user_no_temp_residue(self, tmp_path):
        store = SessionStore(tmp_path)
        store.put(3, b"payload")
        assert (tmp_path / "session_3.nvpt").read_bytes() == b"payload"
        assert list(tmp_path.glob("*.tmp")) == []
        assert listing(tmp_path) == ["session_3.nvpt"]
        store.put(3, b"second payload")     # the displaced file is kept
        assert listing(tmp_path) == ["session_3.nvpt", "session_3.nvpt.spare"]
        assert (tmp_path / "session_3.nvpt").read_bytes() == b"second payload"

    def test_put_recycles_the_displaced_file(self, tmp_path):
        """The third put writes into the file the second displaced, cut to
        the new blob's length, and keeps the one it displaces in turn."""
        store = SessionStore(tmp_path)
        live, spare = tmp_path / "session_3.nvpt", tmp_path / "session_3.nvpt.spare"
        store.put(3, b"a" * 100)
        store.put(3, b"b" * 10)
        inodes = live.stat().st_ino, spare.stat().st_ino
        store.put(3, b"c" * 5)
        assert (spare.stat().st_ino, live.stat().st_ino) == inodes
        assert live.read_bytes() == b"c" * 5
        assert spare.stat().st_nlink == live.stat().st_nlink == 1
        assert listing(tmp_path) == ["session_3.nvpt", "session_3.nvpt.spare"]

    def test_a_spare_with_another_link_is_not_written(self, tmp_path):
        """A spare that still has another name — the link a concurrent put
        took while it was live, and may yet publish — is left as it is."""
        store = SessionStore(tmp_path)
        store.put(3, b"older")
        store.put(3, b"old")
        other = tmp_path / "session_3.nvpt.0a1b2c.old"
        os.link(tmp_path / "session_3.nvpt.spare", other)
        store.put(3, b"new")
        assert other.read_bytes() == b"older"
        assert store.get(3) == b"new"
        assert (tmp_path / "session_3.nvpt.spare").read_bytes() == b"old"

    def test_reopened_directory_keeps_blobs(self, tmp_path):
        SessionStore(tmp_path).put(4, b"durable")
        assert SessionStore(tmp_path).get(4) == b"durable"

    def test_foreign_files_are_ignored(self, tmp_path):
        (tmp_path / "session_notanid.nvpt").write_bytes(b"?")
        (tmp_path / "README").write_bytes(b"?")
        store = SessionStore(tmp_path)
        store.put(2, b"x")
        assert store.user_ids() == [2]

    def test_spare_and_temp_files_are_not_blobs(self, tmp_path):
        store = SessionStore(tmp_path)
        store.put(3, b"old blob")
        store.put(3, b"live")
        # What a put that crashed leaves: its temp file and the displaced
        # blob's second link.
        (tmp_path / "session_3.nvpt.0a1b2c.tmp").write_bytes(b"half a")
        (tmp_path / "session_5.nvpt.0a1b2c.old").write_bytes(b"old")
        assert store.user_ids() == [3] and len(store) == 1
        assert 5 not in store and store.get(5) is None
        assert store.stats() == {"backend": "disk", "sessions": 1,
                                 "bytes": len(b"live")}

    def test_delete_quarantine_and_clear_leave_no_file_behind(self, tmp_path):
        store = SessionStore(tmp_path)
        for user_id in (1, 2, 3, 4):
            store.put(user_id, b"first")
            store.put(user_id, b"second")    # each with a spare
        assert store.delete(1)
        assert not any(name.startswith("session_1.")
                       for name in listing(tmp_path))
        assert store.quarantine(2)
        assert [name for name in listing(tmp_path)
                if name.startswith("session_2.")] == [
            "session_2.nvpt.quarantined"]
        (tmp_path / "session_4.nvpt.0a1b2c.tmp").write_bytes(b"half a")
        (tmp_path / "session_4.nvpt.0a1b2c.old").write_bytes(b"second")
        store.clear()
        assert listing(tmp_path) == ["session_2.nvpt.quarantined"]

    def test_without_hard_links_put_is_a_plain_atomic_replace(
            self, tmp_path, monkeypatch):
        """A filesystem that refuses hard links keeps no spare: each put
        publishes a new file by rename, so a reader holding the old one
        open still reads the whole old blob."""
        def refuse(*args, **kwargs):
            raise PermissionError(errno.EPERM, "Operation not permitted")
        monkeypatch.setattr(os, "link", refuse)
        store = SessionStore(tmp_path)
        live = tmp_path / "session_3.nvpt"
        previous = b"first blob"
        store.put(3, previous)
        for blob in (b"second, longer blob", b"third", b"fourth blob"):
            with open(live, "rb") as reader:
                head = reader.read(3)
                store.put(3, blob)
                assert head + reader.read() == previous
            assert store.get(3) == blob
            assert listing(tmp_path) == ["session_3.nvpt"]
            previous = blob

    @pytest.mark.parametrize("call, nth, raises", [
        ("replace", 1, False),   # claiming the spare: a new file instead
        ("link", 1, False),      # keeping the displaced file: it is freed
        ("replace", 2, True),    # publishing: the old blob stays live
        ("replace", 3, False),   # naming the next spare: published already
    ], ids=["claim", "link-aside", "publish", "next-spare"])
    def test_a_failed_step_leaves_a_whole_blob(self, tmp_path, monkeypatch,
                                               call, nth, raises):
        store = SessionStore(tmp_path)
        store.put(3, b"older blob")
        store.put(3, b"old blob")            # so the put claims a spare
        real, calls = getattr(os, call), []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == nth:
                raise OSError(errno.EIO, "Input/output error")
            return real(*args, **kwargs)

        monkeypatch.setattr(os, call, flaky)
        if raises:
            with pytest.raises(OSError, match="Input/output"):
                store.put(3, b"new, longer blob")
            assert store.get(3) == b"old blob"
        else:
            store.put(3, b"new, longer blob")
            assert store.get(3) == b"new, longer blob"
        assert len(calls) >= nth
        assert not [name for name in listing(tmp_path)
                    if name.endswith((".tmp", ".old"))]
        monkeypatch.undo()

        # The next puts recover: they publish, and recycling resumes.
        store.put(3, b"next")
        store.put(3, b"after")
        assert store.get(3) == b"after"
        assert listing(tmp_path) == ["session_3.nvpt", "session_3.nvpt.spare"]

    def test_two_stores_put_one_user_from_two_threads(self, tmp_path):
        """Two stores over one directory race on one user (two threads
        each, more than the cores, switching often): whichever put
        published last, the live file is one whole blob of its thread."""
        stores = [SessionStore(tmp_path), SessionStore(tmp_path)]
        blobs = [[bytes([65 + who]) * (100 + 37 * (i % 11))
                  for i in range(150)] for who in range(4)]
        start = threading.Barrier(4, timeout=30)

        def writer(who):
            start.wait()
            for blob in blobs[who]:
                stores[who % 2].put(3, blob)

        threads = [threading.Thread(target=writer, args=(who,))
                   for who in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        live = stores[0].get(3)
        assert live in [blob[-1] for blob in blobs]
        assert stores[1].get(3) == live
        assert listing(tmp_path) == ["session_3.nvpt", "session_3.nvpt.spare"]
        spare = (tmp_path / "session_3.nvpt.spare").read_bytes()
        assert len(set(spare)) == 1 and spare in blobs[spare[0] - 65]


# ----------------------------------------------------------------------
# Engine integration: eviction spills, lookups restore.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def setup():
    tok = build_tokenizer()
    corpus = build_corpus(tok, n_sentences=600, seed=0)
    model = build_model("phi-2-sim", tok.vocab_size)
    pretrain_lm(model, corpus, PretrainConfig(steps=80, seed=0))
    return model, tok


def stream_for(user_id, count, seed=0):
    ds = make_dataset("LaMP-2")
    return ds.generate(make_user(user_id, seed=0), count, seed=seed)


def make_engine(model, tok, *, max_sessions=2, session_store=None):
    return PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                             max_sessions=max_sessions,
                             session_store=session_store)


def train(engine, user_id, count=10):
    engine.submit(TuneRequest(user_id=user_id,
                              samples=tuple(stream_for(user_id, count,
                                                       seed=user_id))))


def greedy(tok, n=4):
    return GenerationConfig(max_new_tokens=n, temperature=0.0,
                            eos_id=tok.eos_id)


class TestEngineSpillRestore:
    def test_eviction_spills_to_store(self, setup):
        model, tok = setup
        store = SessionStore()
        engine = make_engine(model, tok, session_store=store)
        for user_id in (0, 1, 2):
            train(engine, user_id)
        assert len(engine.active_users()) == 2
        assert 0 in store                      # LRU victim was spilled
        stats = engine.stats()
        assert stats["sessions_spilled"] == 1
        assert stats["evicted_sessions"] == 1
        assert stats["session_store"]["sessions"] == 1

    @pytest.mark.parametrize("snapshot_mode", ["raw", "recipe"])
    def test_restored_session_answers_byte_identically(self, setup,
                                                       snapshot_mode):
        """The acceptance criterion: evict to disk, restore, same bytes."""
        model, tok = setup
        generation = greedy(tok)
        query = stream_for(0, 12)[11].input_text

        reference = make_engine(model, tok, max_sessions=8)
        for user_id in (0, 1, 2):
            train(reference, user_id)
        expected = reference.query(QueryRequest(user_id=0, text=query,
                                                generation=generation))

        store = SessionStore()
        engine = make_engine(model, tok, session_store=store)
        for user_id in (0, 1, 2):
            train(engine, user_id)          # user 0 spills to the store
        assert not engine.has_session(0)
        if snapshot_mode == "recipe":
            # Engines spill raw; a recipe in the store (an archived user:
            # deployed state left behind, re-programmed on the next
            # query) restores through the same lookup.
            store.put(0, SessionSnapshot.capture(
                reference.session(0), mode="recipe").to_bytes())
        response = engine.query(QueryRequest(user_id=0, text=query,
                                             generation=generation))
        assert response.answer == expected.answer
        assert response.ovt_index == expected.ovt_index
        stats = engine.stats()
        assert stats["sessions_restored"] == 1
        # Restoring re-ran zero tuner epochs: only the original three
        # trainings ever created a session from scratch.
        assert stats["sessions_created"] == 3
        assert engine.session(0).epochs_completed == \
            reference.session(0).epochs_completed

    def test_disk_backed_engine_round_trip(self, setup, tmp_path):
        model, tok = setup
        store = SessionStore(tmp_path / "spool")
        engine = make_engine(model, tok, session_store=store)
        for user_id in (0, 1, 2):
            train(engine, user_id)
        assert (tmp_path / "spool" / "session_0.nvpt").exists()
        answer = answer_text(engine, 0, stream_for(0, 12)[11].input_text,
                             greedy(tok))
        assert isinstance(answer, str) and answer

    def test_another_engine_adopts_spilled_session(self, setup):
        """Blobs are engine-independent: a new worker restores them."""
        model, tok = setup
        store = SessionStore()
        first = make_engine(model, tok, session_store=store)
        train(first, 0)
        first.drop_session(0)                      # spill=True default
        assert 0 in store

        second = make_engine(model, tok, session_store=store)
        query = stream_for(0, 12)[11].input_text
        assert answer_text(second, 0, query, greedy(tok)) == \
            answer_text(first, 0, query, greedy(tok))
        assert second.stats()["sessions_restored"] == 1
        assert second.stats()["sessions_created"] == 0

    def test_drop_without_spill_deletes_blob(self, setup):
        model, tok = setup
        store = SessionStore()
        engine = make_engine(model, tok, session_store=store)
        train(engine, 0)
        engine.drop_session(0)
        assert 0 in store
        engine.session(0)                          # restore it
        engine.drop_session(0, spill=False)
        assert 0 not in store

    def test_drop_without_spill_forgets_a_spilled_user(self, setup, store):
        """A user who is not resident is forgotten all the same: the blob
        goes, and their next query finds no session to restore."""
        model, tok = setup
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        train(engine, 0)
        train(engine, 1)                           # evicts and spills user 0
        assert engine.active_users() == [1] and store.user_ids() == [0]
        banked = engine.stats()["cim_write_pulses"]

        assert engine.drop_session(0, spill=False) is True
        assert 0 not in store and store.user_ids() == []
        assert engine.drop_session(0, spill=False) is False   # nothing left
        with pytest.raises(KeyError, match="no session for user 0"):
            answer_text(engine, 0, stream_for(0, 1)[0].input_text,
                        greedy(tok))
        stats = engine.stats()
        assert stats["sessions_restored"] == 0
        assert stats["cim_write_pulses"] == banked  # what they cost stays


class FullDiskOnce(SessionStore):
    """A store whose next ``put`` fails like a full disk — once — and
    which remembers the size of every blob that crossed it."""

    def __init__(self, directory=None):
        super().__init__(directory)
        self.fail_next_put = False
        self.put_sizes: list[int] = []
        self.get_sizes: list[int] = []

    def put(self, user_id, blob):
        if self.fail_next_put:
            self.fail_next_put = False
            raise OSError(errno.ENOSPC, "No space left on device")
        super().put(user_id, blob)
        self.put_sizes.append(len(blob))

    def get(self, user_id):
        blob = super().get(user_id)
        if blob is not None:
            self.get_sizes.append(len(blob))
        return blob


@pytest.fixture(params=["memory", "disk"])
def flaky_store(request, tmp_path):
    return FullDiskOnce(tmp_path / "spool"
                        if request.param == "disk" else None)


# Everything a spill commits; a failed one must move none of it.
SPILL_KEYS = CIM_KEYS + ("prefill_hits", "evicted_sessions",
                         "sessions_spilled", "spilled_bytes",
                         "requests_served")


class TestFailedSpill:
    """Spill first, commit after: a ``put`` that raises costs the request
    that triggered it, never the victim's trained state."""

    def test_failed_eviction_keeps_the_victim(self, setup, flaky_store):
        model, tok = setup
        store, generation = flaky_store, greedy(tok)
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        queries = {u: stream_for(u, 12)[11].input_text for u in (0, 1)}
        train(engine, 0)
        train(engine, 1)                     # spills user 0
        expected = answer_text(engine, 1, queries[1], generation)
        before = engine.stats()

        store.fail_next_put = True
        with pytest.raises(OSError, match="No space left"):
            answer_text(engine, 0, queries[0], generation)  # restores 0, evicts 1

        # The victim is still resident (over capacity by one), nothing
        # was banked or counted, and it answers as it did.
        assert sorted(engine.active_users()) == [0, 1]
        assert store.user_ids() == [0]
        after = engine.stats()
        for key in SPILL_KEYS:
            assert after[key] == before[key], key
        assert after["sessions_restored"] == before["sessions_restored"] + 1
        assert answer_text(engine, 1, queries[1], generation) == expected

        # The store is healthy again: the next eviction spills normally,
        # down to capacity, and both users come back from their blobs.
        train(engine, 2)
        assert engine.active_users() == [2]
        assert store.user_ids() == [0, 1]
        assert engine.stats()["sessions_spilled"] == \
            before["sessions_spilled"] + 2
        assert answer_text(engine, 1, queries[1], generation) == expected

    def test_failed_drop_keeps_the_session(self, setup, flaky_store):
        model, tok = setup
        store, generation = flaky_store, greedy(tok)
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        query = stream_for(0, 12)[11].input_text
        train(engine, 0)
        expected = answer_text(engine, 0, query, generation)
        before = engine.stats()

        store.fail_next_put = True
        with pytest.raises(OSError, match="No space left"):
            engine.drop_session(0)
        assert engine.has_session(0) and store.user_ids() == []
        after = engine.stats()
        for key in SPILL_KEYS:
            assert after[key] == before[key], key
        assert answer_text(engine, 0, query, generation) == expected

        assert engine.drop_session(0) is True          # healthy again
        assert not engine.has_session(0) and store.user_ids() == [0]
        assert answer_text(engine, 0, query, generation) == expected


def truncated(blob):
    """A torn write: the checksum refuses it."""
    return blob[:len(blob) // 2]


def conductance_byte_changed(blob):
    """One byte of a bank's conductance payload changed: it decodes, and
    without the checksum the session answered from another matrix."""
    at = blob.index(b"conductance") + 4096
    return blob[:at] + bytes([blob[at] ^ 0x40]) + blob[at + 1:]


# One flipped byte in the body, re-sealed, where the codec used to let a
# numpy / unicode error out unwrapped: the engine caught only
# SnapshotError, so every query of the user failed on the blob.
def unknown_array_dtype(blob):
    """The first array's ``<f4`` dtype string flipped to ``<z4``."""
    body = blob[HEADER_SIZE:]
    at = body.index(b"a\x03<f4") + 3
    return sealed(body[:at] + b"z" + body[at + 1:])


def string_not_utf8(blob):
    """The ``mode`` value's first byte flipped to a non-UTF-8 byte."""
    body = blob[HEADER_SIZE:]
    at = body.index(b"mode" + encode_value("raw")[:-3]) + 13
    return sealed(body[:at] + b"\xff" + body[at + 1:])


def wrong_geometry(blob):
    """What a build with other subarrays wrote: every array intact, the
    banks not this deployment's."""
    snap = SessionSnapshot.from_bytes(blob)
    for store in snap.deployment["engine"]["stores"].values():
        store["bank"]["rows"] = 192
    return snap.to_bytes()


def missing_scale(blob):
    """Every bank intact, the engine's scale-4 store gone: it restored,
    and every later query raised ``KeyError: 4``."""
    snap = SessionSnapshot.from_bytes(blob)
    del snap.deployment["engine"]["stores"]["4"]
    return snap.to_bytes()


def edited(edit):
    """A damage that edits the decoded snapshot and re-encodes it."""
    def damage(blob):
        snap = SessionSnapshot.from_bytes(blob)
        edit(snap)
        return snap.to_bytes()
    damage.__name__ = edit.__name__
    return damage


# Sections besides the deployment that do not rebuild.  Each used to
# build no session and raise on every query instead (ValueError, which
# the gateway answered as a bad request, or KeyError, a permanent
# "no session"), leaving the blob in the store.
@edited
def invalid_config_value(snap):
    snap.config["buffer_capacity"] = 0


@edited
def unknown_config_key(snap):
    snap.config["replicas"] = 2


@edited
def library_entry_without_matrix(snap):
    del snap.library["ovts"][0]["matrix"]


@edited
def autoencoder_state_misshapen(snap):
    state = snap.library["autoencoder_state"]
    name = next(iter(state))
    state[name] = np.zeros((3, 3), dtype=np.float32)


@edited
def counters_missing_a_key(snap):
    del snap.counters["queries_served"]


@edited
def calibration_not_a_mapping(snap):
    """A one-byte flip of a dict tag to a bytes tag can still decode."""
    store = next(iter(snap.deployment["engine"]["stores"].values()))
    store["calibration"] = b"\x00"


class TestQuarantine:
    """A blob that does not restore costs one re-tune, not every later
    query: it is moved aside, counted, and the user becomes unknown."""

    @pytest.mark.parametrize("damage", [
        truncated, conductance_byte_changed, unknown_array_dtype,
        string_not_utf8, wrong_geometry,
        missing_scale, invalid_config_value,
        unknown_config_key, library_entry_without_matrix,
        autoencoder_state_misshapen, counters_missing_a_key,
        calibration_not_a_mapping])
    def test_bad_blob_costs_one_retune(self, setup, flaky_store, damage):
        model, tok = setup
        store, generation = flaky_store, greedy(tok)
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        query = stream_for(0, 12)[11].input_text
        train(engine, 0)
        expected = answer_text(engine, 0, query, generation)
        engine.drop_session(0)                       # spilled, deployed
        store.put(0, damage(store.get(0)))
        reads, before = len(store.get_sizes), engine.stats()

        def monotone(since):
            now = engine.stats()
            for key in CIM_KEYS + ("prefill_hits", "requests_served",
                                   "spilled_bytes", "restored_bytes"):
                assert now[key] >= since[key], key
            return now

        # The first query meets the blob: unknown user, as if never tuned.
        with pytest.raises(KeyError, match="no session for user 0"):
            answer_text(engine, 0, query, generation)
        after = monotone(before)
        assert after["sessions_quarantined"] == 1
        assert after["sessions_restored"] == before["sessions_restored"]
        assert after["restored_bytes"] == before["restored_bytes"]
        assert len(store.get_sizes) == reads + 1
        assert 0 not in store and store.user_ids() == []
        if store.directory is not None:
            assert (store.directory / "session_0.nvpt.quarantined").exists()

        # The second does not: nothing left to read, same answer.
        with pytest.raises(KeyError, match="no session for user 0"):
            answer_text(engine, 0, query, generation)
        assert len(store.get_sizes) == reads + 1
        assert monotone(after)["sessions_quarantined"] == 1

        # A tune starts a fresh session, and it serves.
        train(engine, 0)
        assert answer_text(engine, 0, query, generation) == expected
        final = monotone(after)
        assert final["sessions_created"] == before["sessions_created"] + 1
        assert final["sessions_quarantined"] == 1
        engine.drop_session(0)                       # spills again, cleanly
        assert answer_text(engine, 0, query, generation) == expected

    def test_another_users_blob_is_quarantined(self, setup, flaky_store):
        """User 0's intact blob stored under user 1's key restores nothing:
        it is quarantined, user 1 stays unknown, and user 0's own blob is
        untouched."""
        model, tok = setup
        store, generation = flaky_store, greedy(tok)
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        query = stream_for(0, 12)[11].input_text
        train(engine, 0)
        expected = answer_text(engine, 0, query, generation)
        engine.drop_session(0)
        blob = store.get(0)
        store.put(1, blob)

        with pytest.raises(KeyError, match="no session for user 1"):
            answer_text(engine, 1, query, generation)
        assert not engine.has_session(1)
        assert engine.stats()["sessions_quarantined"] == 1
        assert store.user_ids() == [0] and store.get(0) == blob
        if store.directory is not None:
            assert (store.directory / "session_1.nvpt.quarantined"
                    ).read_bytes() == blob
        assert answer_text(engine, 0, query, generation) == expected

    def test_decode_loop_meets_the_blob_the_same_way(self, setup,
                                                     flaky_store):
        """``begin_query``, the gateway's entry, quarantines as ``answer``
        does: a ``KeyError`` (the gateway's 404), nothing left pending."""
        model, tok = setup
        store, generation = flaky_store, greedy(tok)
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        request = QueryRequest(user_id=0,
                               text=stream_for(0, 12)[11].input_text,
                               generation=generation)
        train(engine, 0)
        engine.drop_session(0)
        store.put(0, truncated(store.get(0)))
        reads = len(store.get_sizes)

        for _ in range(2):                   # read once, then unknown
            with pytest.raises(KeyError, match="no session for user 0"):
                engine.begin_query(request)
        stats = engine.stats()
        assert stats["sessions_quarantined"] == 1
        assert stats["pending_generations"] == 0
        assert len(store.get_sizes) == reads + 1
        assert store.user_ids() == []

        train(engine, 0)
        pending = engine.begin_query(request)
        while not pending.done:
            engine.run_decode_round()
        assert pending.response.answer == answer_text(
            engine, 0, request.text, generation)


class TestByteStats:
    """``spilled_bytes`` / ``restored_bytes`` / ``resident_nvm_bytes``:
    what moved and what is held, in bytes rather than session counts."""

    def test_spilled_and_restored_bytes_are_the_blobs(self, setup,
                                                      flaky_store):
        model, tok = setup
        store = flaky_store
        engine = make_engine(model, tok, max_sessions=1, session_store=store)
        for user_id in (0, 1, 2):
            train(engine, user_id)           # spills 0, then 1
        stats = engine.stats()
        assert len(store.put_sizes) == stats["sessions_spilled"] == 2
        assert stats["spilled_bytes"] == sum(store.put_sizes)
        assert stats["restored_bytes"] == 0

        engine.session(0)                    # restores 0, spills 2
        stats = engine.stats()
        assert stats["restored_bytes"] == store.get_sizes[-1]
        assert stats["spilled_bytes"] == sum(store.put_sizes)
        assert len(store.put_sizes) == 3
        assert stats["session_store"]["bytes"] == sum(store.put_sizes)

    def test_resident_nvm_bytes_per_cell(self, setup):
        """5 B an occupied cell (float32 conductance + uint8 level) from
        the tune's publish on, after the first query, and after a restore:
        the GEMM reads the stored cells, there is no second copy to build,
        and the erased rest of each subarray is not held at all."""
        model, tok = setup
        engine = make_engine(model, tok, max_sessions=1,
                             session_store=SessionStore())
        query = stream_for(0, 12)[11].input_text
        train(engine, 0)
        stores = (engine.session(0).deployment()
                  .engine._stores.values())
        # Two OVTs as the columns of a 768-, a 384- and a 192-row store,
        # eight 2-bit slices each — of 32 subarrays' 1,572,864 cells.
        cells = sum(matrix.n_slices * matrix.shape[0] * matrix.shape[1]
                    for matrix in stores)
        assert cells == 8 * (768 + 384 + 192) * 2 == 21_504
        assert sum(matrix.n_subarrays for matrix in stores) == 32
        assert engine.stats()["resident_nvm_bytes"] == 5 * cells == 107_520
        answer_text(engine, 0, query, greedy(tok))
        assert engine.stats()["resident_nvm_bytes"] == 5 * cells

        engine.drop_session(0)               # spill ...
        assert engine.stats()["resident_nvm_bytes"] == 0
        engine.session(0)                    # ... and restore
        assert engine.stats()["resident_nvm_bytes"] == 5 * cells
        answer_text(engine, 0, query, greedy(tok))
        assert engine.stats()["resident_nvm_bytes"] == 5 * cells


class TestCounterMonotonicity:
    """Cumulative counters never decrease and never double-count across
    the evict -> restore cycle (regression for the spill-baseline
    accounting alongside the eviction banking of PR 5)."""

    def test_totals_unchanged_by_evict_then_restore(self, setup):
        model, tok = setup
        engine = make_engine(model, tok, max_sessions=1,
                             session_store=SessionStore())
        train(engine, 0)
        train(engine, 1)                     # evicts + spills user 0
        before = engine.stats()
        engine.session(0)                    # restores 0, spills 1
        after = engine.stats()
        # Nothing was served in between: restoring must neither lose nor
        # double-count one op.  Exact equality, not just monotonicity.
        for key in CIM_KEYS + ("prefill_hits",):
            assert after[key] == before[key], key

    def test_counters_monotonic_across_churn(self, setup):
        model, tok = setup
        engine = make_engine(model, tok, max_sessions=1,
                             session_store=SessionStore())
        generation = greedy(tok, 2)
        previous = None
        for user_id in (0, 1, 0, 1, 0):
            if not engine.has_session(user_id) and \
                    engine.session_store.get(user_id) is None:
                train(engine, user_id)
            answer_text(engine, user_id,
                        stream_for(user_id, 12)[11].input_text, generation)
            current = engine.stats()
            if previous is not None:
                for key in CIM_KEYS + ("prefill_hits", "requests_served"):
                    assert current[key] >= previous[key], key
            previous = current
        assert engine.stats()["sessions_restored"] >= 2

    def test_spill_without_store_still_banks(self, setup):
        """No store configured: eviction loses the session but not its
        contribution to the engine totals (the PR 5 behavior)."""
        model, tok = setup
        engine = make_engine(model, tok, max_sessions=1)
        train(engine, 0)
        before = engine.stats()
        train(engine, 1)                     # evicts 0 with nowhere to go
        after = engine.stats()
        for key in CIM_KEYS:
            assert after[key] >= before[key], key
        assert after["sessions_spilled"] == 0
        assert after["session_store"] is None
