"""The gateway's own decisions, without sockets or a model.

``GatewayConfig`` refuses values that would break the worker, the
queue-full 429's ``Retry-After`` is the service-time estimate, round
admission is FIFO, each way ``begin_query`` can fail has its status, and
queued entries past their deadline leave with a 504 before admission:
``PromptGateway._admit`` / ``_drop_dead_queued`` are driven directly
against a stub engine, no threads started.  A connection's disconnect
watch fires on any input, and only once.
"""

import asyncio
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.gateway import GatewayConfig, PromptGateway, server
from repro.gateway.server import QueuedQuery, _WatchedReader
from repro.serve import QueryRequest, QueryResponse, SnapshotError


class TestGatewayConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_queue", 0),                # every query 429s
        ("max_queue", -1),
        ("max_batch", 0),                # nothing is ever admitted
        ("max_batch", -1),
    ])
    def test_rejects_values_that_break_the_gateway(self, field, value):
        with pytest.raises(ValueError, match=field):
            GatewayConfig(**{field: value})

    def test_accepts_the_edges_that_work(self):
        """One queue place and one decode slot still serve: the first
        query is admitted and the next waits its turn."""
        config = GatewayConfig(max_queue=1, max_batch=1)
        engine = RecordingEngine()
        gateway = PromptGateway(engine, config)
        enqueue(gateway, [0, 1])
        assert gateway._admit() == 1
        assert engine.begun == [0]
        assert [q.request.user_id for q in gateway._queue] == [1]

    def test_holds_only_the_deployment_fields(self):
        """The 429 hint, the idle wait and deadlines are not settings."""
        assert [f.name for f in fields(GatewayConfig)] == \
            ["host", "port", "max_queue", "max_batch"]
        assert server.IDLE_WAIT_S == 0.02

    def test_the_429_hint_is_the_service_estimate(self, monkeypatch):
        """The queue-full 429 is the one 429; its ``Retry-After`` is the
        time ``max_batch`` slots take to drain the backlog (queued plus
        admitted, at least one): 0.5 s per query before any answer, then
        the EWMA (weight 0.2) of observed service times — floored at
        0.05 s, rounded to 2 dp."""
        gateway = PromptGateway(RecordingEngine(), GatewayConfig(max_batch=8))
        assert gateway._retry_after_hint() == 0.06       # 0.5 x 1 / 8
        enqueue(gateway, [0, 1, 2])
        assert gateway._retry_after_hint() == 0.19       # 0.5 x 3 / 8
        gateway._admitted = [None] * 5
        assert gateway._retry_after_hint() == 0.5        # 0.5 x 8 / 8
        narrow = PromptGateway(RecordingEngine(), GatewayConfig(max_batch=16))
        assert narrow._retry_after_hint() == 0.05        # floor, not 0.03

        clock = {"now": 0.0}
        monkeypatch.setattr(server, "time", SimpleNamespace(
            monotonic=lambda: clock["now"]))
        for service, ewma in ((1.0, 1.0), (2.0, 1.2), (0.2, 1.0)):
            clock["now"] = service        # every query enqueued at 0.0
            gateway._observe_service(gateway._queue[0])
            assert gateway._service_ewma_s == pytest.approx(ewma)
            assert gateway._retry_after_hint() == round(ewma, 2)   # 8 / 8
        clock["now"] = 0.01
        for _ in range(40):
            gateway._observe_service(gateway._queue[0])
        assert gateway._retry_after_hint() == 0.05        # floor again


class RecordingEngine:
    """Records ``begin_query`` order and deadlines; unknown users raise
    ``KeyError``, and ``failures`` maps a user to the error to raise.
    The pending query it returns is finished at admission (its ``done``
    set, as an answer hit's is) for the users in ``answered``, and
    decoding for everyone else."""

    def __init__(self, unknown=(), failures=None, answered=()):
        self.unknown = set(unknown)
        self.failures = dict(failures or {})
        self.answered = set(answered)
        self.begun: list[int] = []
        self.deadlines: list[float | None] = []

    def begin_query(self, request, deadline=None):
        if request.user_id in self.unknown:
            raise KeyError(f"no session for user {request.user_id}")
        if request.user_id in self.failures:
            raise self.failures[request.user_id]
        self.begun.append(request.user_id)
        self.deadlines.append(deadline)
        return SimpleNamespace(
            done=request.user_id in self.answered, finish_reason="stop",
            response=QueryResponse(user_id=request.user_id,
                                   text=request.text, answer="ok",
                                   ovt_index=0))


def enqueue(gateway, user_ids, deadline=None):
    """Queue one query per user; returns ``{user_id: [replies]}``."""
    replies = {}
    for user_id in user_ids:
        replies[user_id] = []
        gateway._queue.append(QueuedQuery(
            request=QueryRequest(user_id=user_id, text=f"query {user_id}"),
            enqueued_at=0.0, deadline=deadline,
            complete=lambda *reply, box=replies[user_id]: box.append(reply)))
    return replies


class TestFIFOAdmission:
    def test_keeps_arrival_order(self):
        engine = RecordingEngine()
        gateway = PromptGateway(engine, GatewayConfig(max_batch=8))
        enqueue(gateway, [5, 2, 9, 2])
        assert gateway._admit() == 4
        assert engine.begun == [5, 2, 9, 2]
        assert [q.request.user_id for q, _ in gateway._admitted] == \
            [5, 2, 9, 2]
        assert not gateway._queue

    def test_takes_at_most_the_free_slots(self):
        engine = RecordingEngine()
        gateway = PromptGateway(engine, GatewayConfig(max_batch=3))
        enqueue(gateway, [0, 1])
        assert gateway._admit() == 2            # 1 of 3 slots left
        enqueue(gateway, [2, 3, 4])
        assert gateway._admit() == 1
        assert engine.begun == [0, 1, 2]
        assert [q.request.user_id for q in gateway._queue] == [3, 4]
        assert gateway._admit() == 0            # batch full: nothing taken
        assert len(gateway._queue) == 2

    def test_unknown_user_is_a_404_and_the_next_is_still_admitted(self):
        engine = RecordingEngine(unknown={7})
        gateway = PromptGateway(engine, GatewayConfig(max_batch=2))
        replies = enqueue(gateway, [7, 1, 3])
        assert gateway._admit() == 1
        (status, payload), = replies[7]
        assert status == 404
        assert payload["user_id"] == 7
        assert engine.begun == [1]
        assert replies[1] == []                  # admitted, not answered
        assert [q.request.user_id for q in gateway._queue] == [3]

    def test_the_queued_deadline_reaches_the_engine(self):
        engine = RecordingEngine()
        gateway = PromptGateway(engine, GatewayConfig())
        enqueue(gateway, [0], deadline=12.5)
        enqueue(gateway, [1])
        assert gateway._admit() == 2
        assert engine.deadlines == [12.5, None]


class TestAnsweredAtAdmission:
    def test_replies_before_the_next_decode_round(self):
        """A query finished at admission (an answer hit) is answered in
        the tick that admitted it, before the round another user's
        decode needs, not after it."""
        engine = RecordingEngine(answered={1})
        gateway = PromptGateway(engine, GatewayConfig(max_batch=4))
        replies = enqueue(gateway, [0, 1])
        seen_at_round = []
        engine.run_decode_round = lambda: seen_at_round.append(
            {user: len(box) for user, box in replies.items()})
        assert gateway._tick()
        assert seen_at_round == [{0: 0, 1: 1}]
        (status, payload), = replies[1]
        assert status == 200 and payload["answer"] == "ok"
        assert [q.request.user_id for q, _ in gateway._admitted] == [0]


class TestAdmissionFailures:
    """What each ``begin_query`` failure answers; none takes a slot, and
    the entry behind it is still admitted."""

    def admit(self, error, config=None):
        engine = RecordingEngine(failures={0: error})
        gateway = PromptGateway(engine, config or GatewayConfig())
        replies = enqueue(gateway, [0, 1])
        assert gateway._admit() == 1
        assert engine.begun == [1]
        assert [q.request.user_id for q, _ in gateway._admitted] == [1]
        (reply,) = replies[0]
        return gateway, reply

    def test_unservable_text_is_a_400(self):
        gateway, (status, payload) = self.admit(
            ValueError("prompt fills the context"))
        assert status == 400
        assert "prompt fills the context" in str(payload)
        assert gateway.validation_failures == 1

    def test_a_blob_that_does_not_restore_is_a_500_not_a_400(self):
        gateway, (status, payload) = self.admit(
            SnapshotError("truncated blob"))
        assert status == 500
        assert payload["error"] == \
            "admission failed: SnapshotError: truncated blob"
        assert gateway.validation_failures == 0


class TestQueuedDeadlines:
    """``_drop_dead_queued`` runs before each admission: entries whose
    deadline has come leave with a 504, cancelled ones leave silently."""

    def test_expired_entry_is_a_504_and_never_admitted(self):
        engine = RecordingEngine()
        gateway = PromptGateway(engine, GatewayConfig())
        expired = enqueue(gateway, [3], deadline=10.0)
        live = enqueue(gateway, [4], deadline=10.5)
        gateway._drop_dead_queued(now=10.0)          # due at 10.0: expired
        (status, payload), = expired[3]
        assert status == 504
        assert payload["finish_reason"] == "deadline"
        assert payload["partial_answer"] == ""
        assert gateway.deadline_misses == 1
        assert gateway._admit() == 1
        assert engine.begun == [4] and live[4] == []

    def test_cancelled_entry_leaves_without_a_reply(self):
        engine = RecordingEngine()
        gateway = PromptGateway(engine, GatewayConfig())
        replies = enqueue(gateway, [5, 6])
        gateway._queue[0].cancelled = True
        gateway._drop_dead_queued(now=0.0)
        assert replies[5] == [] and gateway.deadline_misses == 0
        assert gateway._admit() == 1
        assert engine.begun == [6]

    def test_deadline_free_entries_never_expire(self):
        gateway = PromptGateway(RecordingEngine(), GatewayConfig())
        replies = enqueue(gateway, [7])
        gateway._drop_dead_queued(now=1e12)
        assert replies[7] == [] and len(gateway._queue) == 1


class TestDisconnectWatch:
    """``_WatchedReader.watch``: EOF, any byte or a transport error fails
    the watched answer with ``ConnectionResetError``; nothing else does."""

    @staticmethod
    def watched(arrange, act=None):
        """The watched answer after ``arrange(reader)``, ``watch`` and
        ``act(reader)``: "gone", "pending" or what it was resolved to."""
        async def go():
            reader = _WatchedReader()
            answer = asyncio.get_running_loop().create_future()
            arrange(reader)
            reader.watch(answer)
            if act is not None:
                act(reader, answer)
            if not answer.done():
                return "pending"
            if isinstance(answer.exception(), ConnectionResetError):
                return "gone"
            return answer.result()
        return asyncio.run(go())

    @pytest.mark.parametrize("act", [
        lambda r, a: r.feed_data(b"x"),
        lambda r, a: r.feed_eof(),
        lambda r, a: r.set_exception(ConnectionResetError()),
        lambda r, a: (r.feed_data(b"x"), r.feed_data(b"y"), r.feed_eof()),
    ], ids=["byte", "eof", "error", "three"])
    def test_input_while_watching_fails_the_answer(self, act):
        assert self.watched(lambda r: None, act) == "gone"

    @pytest.mark.parametrize("arrange", [
        lambda r: r.feed_data(b"pipelined"),
        lambda r: r.feed_eof(),
        lambda r: r.set_exception(ConnectionResetError()),
    ], ids=["buffered", "eof", "error"])
    def test_input_already_there_fails_it_at_once(self, arrange):
        assert self.watched(arrange) == "gone"

    def test_no_input_and_empty_data_leave_it_pending(self):
        assert self.watched(lambda r: None,
                            lambda r, a: r.feed_data(b"")) == "pending"

    def test_an_answer_that_came_first_stands(self):
        def act(reader, answer):
            answer.set_result("answered")
            reader.feed_eof()
        assert self.watched(lambda r: None, act) == "answered"

    def test_unwatched_input_touches_nothing(self):
        def act(reader, answer):
            reader.watch(None)
            reader.feed_data(b"next request")
            reader.feed_eof()
        assert self.watched(lambda r: None, act) == "pending"

    def test_a_consumed_request_is_not_input(self):
        async def go():
            reader = _WatchedReader()
            reader.feed_data(b"one request")
            await reader.readexactly(len(b"one request"))
            answer = asyncio.get_running_loop().create_future()
            reader.watch(answer)
            return answer.done()
        assert asyncio.run(go()) is False
