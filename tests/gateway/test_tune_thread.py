"""The gateway's tune thread: one tune at a time, at background priority.

Tunes run ``engine.submit`` on a dedicated ``gateway-tune`` thread that
lowers itself to nice 19, so an epoch running beside decode rounds
yields the core to them.  A tune whose session is dropped mid-epoch
answers 404 instead of losing its samples silently.
"""

import os
import sys
import threading

import pytest

from repro.core import FrameworkConfig
from repro.gateway import (GatewayClient, GatewayConfig, GatewayError,
                           PromptGateway, RetryPolicy)
from repro.serve import PromptServeEngine, TuneRequest

from ..serve.tune_gate import Background, EpochGate
from .conftest import stream_for


@pytest.fixture
def served(setup):
    """A fresh engine with user 0 tuned, behind its own gateway."""
    model, tok = setup
    engine = PromptServeEngine(model, tok, FrameworkConfig.preset("fast"),
                               max_sessions=4)
    engine.submit(TuneRequest(user_id=0, samples=tuple(stream_for(0, 10))))
    with PromptGateway(engine, GatewayConfig(port=0)) as gateway:
        host, port = gateway.address
        with GatewayClient(host, port,
                           retry=RetryPolicy(max_attempts=1)) as client:
            yield engine, client


def niceness(thread: threading.Thread) -> int:
    return os.getpriority(os.PRIO_PROCESS, thread.native_id)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="niceness is per thread only on Linux")
def test_tune_runs_on_the_gateway_tune_thread_at_nice_19(served,
                                                          monkeypatch):
    engine, client = served
    ours = niceness(threading.current_thread())
    gate = EpochGate(monkeypatch)
    tuning = Background(client.tune, 0, list(stream_for(0, 10, seed=1)))
    gate.wait_entered()
    (thread,) = gate.threads
    assert thread.name.startswith("gateway-tune")
    assert niceness(thread) == 19
    # Only that thread: the caller (and the process) keep their priority.
    assert niceness(threading.current_thread()) == ours
    gate.release()
    assert tuning.result().epochs_fired == 1


def test_tune_of_a_session_dropped_mid_epoch_is_404(served, monkeypatch):
    engine, client = served
    gate = EpochGate(monkeypatch)
    tuning = Background(client.tune, 0, list(stream_for(0, 10, seed=1)))
    gate.wait_entered()
    assert engine.drop_session(0, spill=False)
    gate.release()
    with pytest.raises(GatewayError) as info:
        tuning.result()
    assert info.value.status == 404
    assert "dropped during the tune" in str(info.value)
    assert not engine.has_session(0)
