"""Deterministic interleavings of a tune with the rest of the engine.

:class:`EpochGate` parks every training epoch at its start — inside the
session's ``prepare``, off the engine lock — until the test releases it,
so "a query while a tune is in flight" is an ordering the test sets up,
not a timing it hopes for.  :class:`Background` runs the tune on its own
thread and hands back its result or its exception.
"""

import threading

from repro.core import OVTTrainingPipeline

TIMEOUT_S = 120.0


class EpochGate:
    """Holds each epoch at its start until :meth:`release`; records the
    thread every gated epoch ran on."""

    def __init__(self, monkeypatch):
        self._entered = threading.Event()
        self._released = threading.Event()
        self.threads: list[threading.Thread] = []
        run_epoch = OVTTrainingPipeline._run_epoch
        gate = self

        def gated(pipeline):
            gate.threads.append(threading.current_thread())
            gate._entered.set()
            assert gate._released.wait(TIMEOUT_S), "gate never released"
            return run_epoch(pipeline)

        monkeypatch.setattr(OVTTrainingPipeline, "_run_epoch", gated)

    def wait_entered(self) -> None:
        assert self._entered.wait(TIMEOUT_S), "no epoch reached the gate"

    def release(self) -> None:
        self._released.set()


class Background:
    """``fn(*args)`` on a thread of its own."""

    def __init__(self, fn, *args):
        self._outcome: dict = {}
        self._thread = threading.Thread(target=self._run, args=(fn, args))
        self._thread.start()

    def _run(self, fn, args) -> None:
        try:
            self._outcome["value"] = fn(*args)
        except BaseException as error:   # re-raised by result()
            self._outcome["error"] = error

    def result(self):
        """Join; the call's return value, or re-raise what it raised."""
        self._thread.join(TIMEOUT_S)
        assert not self._thread.is_alive(), "background call hung"
        if "error" in self._outcome:
            raise self._outcome["error"]
        return self._outcome["value"]
