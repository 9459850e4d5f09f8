"""Span wrappers around each layer's exported entry points.

The tracer lives entirely in the benchmark: :data:`WRAP_TABLE` names the
public callables to wrap (``package:Class.method`` or
``package:function``, always resolved through a package ``__init__``),
:meth:`Tracer.install` patches them and :meth:`Tracer.remove` puts every
original back.  Class methods are patched on the class; module-level
functions are rebound in every loaded ``repro.*`` module that holds the
same object, because ``from x import f`` copies the binding.

A span is ``{id, name, layer, start, end, parent, thread, request_id,
batch, phase}``.  ``parent`` is the enclosing span *on the same thread*;
``request_id`` comes from the request argument and is inherited by
children; shared decode rounds carry ``batch`` instead.  Root spans also
carry the thread CPU time they used, which is what separates a round
that computed from a round that waited for the engine lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

__all__ = ["Span", "Tracer", "WrapError", "WRAP_TABLE", "self_times",
           "durations_ms", "total_s"]


class WrapError(RuntimeError):
    """A wrap-table entry no longer resolves to a callable."""


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    request_id: str | None
    batch: int | None = None
    phase: str = ""
    cpu: float | None = None     # thread CPU seconds; root spans only
    fired: bool | None = None    # truthiness of the return value

    @property
    def duration(self) -> float:
        return self.end - self.start


# (span name, layer, target).  Keep the targets to names a package
# __init__ exports: a refactor that keeps the public surface keeps the
# benchmark running.
WRAP_TABLE: tuple[tuple[str, str, str], ...] = (
    ("gateway.parse_query", "gateway", "repro.gateway:parse_query_request"),
    ("gateway.parse_tune", "gateway", "repro.gateway:parse_tune_request"),
    ("gateway.render", "gateway", "repro.gateway:query_response_to_dict"),
    ("serve.begin_query", "serve",
     "repro.serve:PromptServeEngine.begin_query"),
    ("serve.run_decode_round", "serve",
     "repro.serve:PromptServeEngine.run_decode_round"),
    ("serve.submit", "serve", "repro.serve:PromptServeEngine.submit"),
    ("serve.answer_batch", "serve",
     "repro.serve:PromptServeEngine.answer_batch"),
    ("serve.query", "serve", "repro.serve:PromptServeEngine.query"),
    ("serve.stats", "serve", "repro.serve:PromptServeEngine.stats"),
    ("serve.prefill_state", "serve", "repro.serve:UserSession.prefill_state"),
    ("serve.capture", "serve", "repro.serve:SessionSnapshot.capture"),
    ("serve.to_bytes", "serve", "repro.serve:SessionSnapshot.to_bytes"),
    ("serve.from_bytes", "serve", "repro.serve:SessionSnapshot.from_bytes"),
    ("serve.build_session", "serve",
     "repro.serve:SessionSnapshot.build_session"),
    ("serve.store_put", "serve", "repro.serve:SessionStore.put"),
    ("serve.store_get", "serve", "repro.serve:SessionStore.get"),
    ("core.observe", "core", "repro.core:OVTTrainingPipeline.observe"),
    ("core.select", "core", "repro.core:select_representatives"),
    ("core.deploy", "core", "repro.core:NVCiMDeployment.__init__"),
    ("core.encode_query", "core", "repro.core:NVCiMDeployment.encode_query"),
    ("core.restored_prompt", "core",
     "repro.core:NVCiMDeployment.restored_prompt"),
    ("tuning.train", "tuning", "repro.tuning:train_prompt_parameters"),
    ("compression.fit", "compression", "repro.compression:OVTAutoencoder.fit"),
    ("compression.encode", "compression",
     "repro.compression:OVTAutoencoder.encode_matrix"),
    ("compression.decode", "compression",
     "repro.compression:OVTAutoencoder.decode_matrix"),
    ("retrieval.search", "retrieval",
     "repro.retrieval:CiMSearchEngine.query_batch"),
    ("retrieval.restore", "retrieval",
     "repro.retrieval:CiMSearchEngine.restore"),
    ("retrieval.build", "retrieval", "repro.retrieval:CiMSearchEngine.build"),
    ("cim.matmat", "cim", "repro.cim:CiMMatrix.matmat"),
    ("cim.read_columns", "cim", "repro.cim:CiMMatrix.read_columns"),
    ("nvm.matmat", "nvm", "repro.nvm:TileBank.matmat_grouped"),
    ("nvm.program", "nvm", "repro.nvm:TileBank.program"),
    ("nvm.read_cells", "nvm", "repro.nvm:TileBank.read_cells"),
    ("nvm.snapshot", "nvm", "repro.nvm:TileBank.snapshot"),
    ("nvm.restore", "nvm", "repro.nvm:TileBank.restore"),
    ("llm.prefill", "llm", "repro.llm:prefill"),
    ("llm.decode_round", "llm", "repro.llm:TinyCausalLM.decode_round"),
    ("llm.decode_from", "llm", "repro.llm:decode_from"),
)


def _request_id_of(args, kwargs) -> str | None:
    """The request id carried by a request/response/payload argument."""
    for value in itertools.chain(args[:3], kwargs.values()):
        if isinstance(value, dict):
            found = value.get("request_id")
        else:
            found = getattr(value, "request_id", None)
            if found is None:
                found = getattr(getattr(value, "request", None),
                                "request_id", None)
        if isinstance(found, str) and found:
            return found
    return None


class Tracer:
    """Records spans in memory while :attr:`enabled`; see module doc."""

    def __init__(self, table=WRAP_TABLE):
        self.table = tuple(table)
        self.spans: list[Span] = []
        self.enabled = False
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        # (owner, attribute, original) for every binding replaced.
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn):
        tracer = self
        # Decode rounds are shared by every in-flight request.
        shared = name.endswith("decode_round")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            request_id = None
            if not shared:
                request_id = _request_id_of(args, kwargs)
                if request_id is None and parent is not None:
                    request_id = parent.request_id
            span = Span(next(tracer._ids), name, layer, 0.0, 0.0,
                        parent.id if parent is not None else None,
                        threading.get_ident(), request_id,
                        phase=tracer.phase)
            stack.append(span)
            cpu0 = time.thread_time() if parent is None else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.batch = getattr(result, "n_active", None)
                if isinstance(result, bool):
                    span.fired = result
                return result
            finally:
                span.end = time.perf_counter()
                if parent is None:
                    span.cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)

        traced.__spine_original__ = fn
        return traced

    # -- patching -------------------------------------------------------
    @staticmethod
    def _resolve(target: str):
        """``(owner, attribute, raw binding)`` of a wrap-table target."""
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError) as error:
            raise WrapError(
                f"wrap-table entry {target!r} no longer resolves "
                f"({type(error).__name__}: {error})") from error
        return owner, attribute, raw

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, layer, target in self.table:
                owner, attribute, raw = self._resolve(target)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, layer, raw.__func__))
                elif callable(raw):
                    wrapped = self.wrap(name, layer, raw)
                else:
                    raise WrapError(
                        f"wrap-table entry {target!r} is not callable")
                if isinstance(owner, type):
                    self._patch(owner, attribute, raw, wrapped)
                else:
                    self._rebind_everywhere(raw, wrapped, target)
        except BaseException:
            self.remove()
            raise
        return self

    def _patch(self, owner, attribute: str, raw, wrapped) -> None:
        self._patched.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def _rebind_everywhere(self, original, wrapped, target: str) -> None:
        hits = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, original, wrapped)
                    hits += 1
        if not hits:
            raise WrapError(f"wrap-table entry {target!r} is bound nowhere")

    def remove(self) -> None:
        """Restore every binding (idempotent)."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)
        self.enabled = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def patched_bindings(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # -- output ---------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        if end <= edge:
            continue
        total += end - max(start, edge)
        edge = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children are the spans naming this one as ``parent``, which the
    recorder only ever sets within one thread; a span that overlaps in
    time on another thread takes nothing away.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None:
            children[parent.id].append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return {span.id: span.duration - _covered(children.get(span.id, ()))
            for span in spans}


def durations_ms(spans, name: str, *, phase: str | None = None,
                 fired: bool | None = None) -> list[float]:
    return [span.duration * 1e3 for span in spans
            if span.name == name
            and (phase is None or span.phase == phase)
            and (fired is None or span.fired is fired)]


def total_s(spans, names, *, phase: str | None = None) -> float:
    wanted = {names} if isinstance(names, str) else set(names)
    return sum(span.duration for span in spans
               if span.name in wanted
               and (phase is None or span.phase == phase))
