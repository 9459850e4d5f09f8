"""Span arithmetic, and the wrap table against the real classes."""

import sys
import threading

import pytest

from spine import tracing
from spine.tracing import Span, Tracer, WrapError


def span(ident, name, start, end, parent=None, thread=1):
    return Span(ident, name, name.split(".")[0], start, end, parent, thread,
                None)


def test_self_time_subtracts_nested_children():
    spans = [span(0, "serve.begin_query", 0.0, 10.0),
             span(1, "retrieval.search", 1.0, 4.0, parent=0),
             span(2, "cim.matmat", 2.0, 3.0, parent=1)]
    own = tracing.self_times(spans)
    assert own == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_counts_sibling_coverage_once():
    spans = [span(0, "serve.begin_query", 0.0, 10.0),
             span(1, "a.x", 1.0, 3.0, parent=0),
             span(2, "a.y", 5.0, 6.0, parent=0),
             # A child that overruns its parent is clipped to it.
             span(3, "a.z", 9.0, 12.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 2 - 1 - 1)


def test_cross_thread_spans_take_nothing_from_each_other():
    spans = [span(0, "serve.submit", 0.0, 10.0, thread=1),
             span(1, "serve.run_decode_round", 2.0, 8.0, thread=2)]
    assert tracing.self_times(spans) == {0: 10.0, 1: 6.0}


def test_totals_and_durations_filter_by_phase():
    spans = [span(0, "llm.prefill", 0.0, 1.0), span(1, "llm.prefill", 2.0, 4.0)]
    spans[0].phase, spans[1].phase = "workload", "tour"
    assert tracing.total_s(spans, "llm.prefill") == 3.0
    assert tracing.total_s(spans, "llm.prefill", phase="tour") == 2.0
    assert tracing.durations_ms(spans, "llm.prefill",
                                phase="workload") == [1000.0]


def test_recorder_nests_per_thread_and_inherits_request_ids():
    tracer = Tracer(table=())
    tracer.enabled = True

    class Request:
        request_id = "r-1"

    inner = tracer.wrap("inner.call", "inner", lambda: None)
    outer = tracer.wrap("outer.call", "outer", lambda request: inner())
    outer(Request())
    other = threading.Thread(target=inner)
    other.start()
    other.join(timeout=5)
    assert not other.is_alive()
    by_name = {}
    for recorded in tracer.spans:
        by_name.setdefault(recorded.name, []).append(recorded)
    (root,) = by_name["outer.call"]
    nested, alone = sorted(by_name["inner.call"],
                           key=lambda s: s.parent is None)
    assert nested.parent == root.id and nested.request_id == "r-1"
    assert alone.parent is None and alone.request_id is None
    assert alone.thread != root.thread
    assert root.cpu is not None and nested.cpu is None


def test_disabled_wrappers_record_nothing():
    tracer = Tracer(table=())
    wrapped = tracer.wrap("x.y", "x", lambda: 7)
    assert wrapped() == 7 and tracer.spans == []


def test_install_patches_every_binding_and_remove_restores_it():
    before = {}
    for _, _, target in tracing.WRAP_TABLE:
        owner, attribute, raw = Tracer._resolve(target)
        before[target] = raw
    tracer = Tracer().install()
    try:
        patched = tracer.patched_bindings()
        assert len(patched) >= len(tracing.WRAP_TABLE)
        # ``from ..llm.generation import prefill`` copies the binding, so
        # the function is rebound in every module holding it: the
        # package, the module defining it, and at least one importer.
        holders = [owner for owner, attribute, raw in patched
                   if raw is before["repro.llm:prefill"]]
        assert len(holders) >= 3
        for owner in holders:
            assert vars(owner)["prefill"].__spine_original__ \
                is before["repro.llm:prefill"]
    finally:
        tracer.remove()
    assert tracer.patched_bindings() == []
    for _, _, target in tracing.WRAP_TABLE:
        owner, attribute, raw = Tracer._resolve(target)
        assert raw is before[target], target
    for owner, attribute, raw in patched:
        assert vars(owner)[attribute] is raw


def test_a_stale_wrap_table_entry_fails_by_name():
    stale = (("serve.gone", "serve", "repro.serve:PromptServeEngine.gone"),)
    with pytest.raises(WrapError, match="PromptServeEngine.gone"):
        Tracer(table=stale).install()
    # A failed install leaves nothing patched behind.
    mixed = tracing.WRAP_TABLE[:3] + stale
    tracer = Tracer(table=mixed)
    with pytest.raises(WrapError):
        tracer.install()
    assert tracer.patched_bindings() == []
    assert "repro.gateway" in sys.modules
