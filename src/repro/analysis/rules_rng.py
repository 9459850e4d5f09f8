"""Determinism rules: RNG-001 and RNG-002.

Bit-identical replay (the equivalence matrices of PRs 2-5 and the
durable-session round trips of PR 7) only holds because every stochastic
draw flows from one experiment seed through the hierarchical streams in
:mod:`repro.utils.rng`.  A stray ``np.random.default_rng()`` (OS
entropy), a module-level legacy call (hidden global state), or a wall
clock read in a deterministic path silently breaks that contract —
these rules fail the diff instead of waiting for a replay test to
drift.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, attribute_chain
from .findings import Finding

__all__ = ["NumpyRandomOutsideUtils", "WallClockInDeterministicPath"]

# Directories whose code must be a pure function of (inputs, seed).
DETERMINISTIC_DIRS = ("nvm", "cim", "llm", "retrieval", "tuning", "serve")
# The network edge may legitimately touch entropy/clocks (jitter,
# arrival processes) — but only behind an explicit, reasoned suppression.
EDGE_DIRS = ("gateway",)

# time/datetime calls that read the wall clock.  perf_counter/monotonic
# are deliberately NOT here: they feed telemetry and deadlines, never
# token streams, and the decode equivalence tests pin that.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


class NumpyRandomOutsideUtils(Rule):
    """No ``np.random.*`` calls outside ``repro/utils/``.

    Generators must be injected by the caller or derived through
    :func:`repro.utils.rng_from_seed` / :func:`~repro.utils.derive_rng`
    / :func:`~repro.utils.spawn_generators`, so that one experiment seed
    pins every stream and the snapshot codec can capture/restore all of
    them.  Seedless calls are nondeterministic outright; seeded calls
    outside utils bypass the stream hierarchy (two components picking
    seed 0 silently share — and correlate — their noise).
    """

    rule_id = "RNG-001"
    title = "np.random calls must flow through repro.utils.rng"
    default_hint = ("accept an injected np.random.Generator, or derive one "
                    "with utils.rng_from_seed/derive_rng/spawn_generators")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.rel.startswith("repro/utils/"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if not chain or len(chain) < 3:
                continue
            if chain[0] not in ("np", "numpy") or chain[1] != "random":
                continue
            name = ".".join(chain)
            if chain[2] == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"seedless {name}() draws from OS entropy; "
                        f"replay can never reproduce it")
                else:
                    yield self.finding(
                        ctx, node,
                        f"{name}(...) outside repro/utils bypasses the "
                        f"seed hierarchy (streams are not spawned from "
                        f"the experiment seed)")
            else:
                yield self.finding(
                    ctx, node,
                    f"{name}(...) uses numpy's legacy global-state API; "
                    f"it is invisible to snapshot/restore and to the "
                    f"seed hierarchy")


class WallClockInDeterministicPath(Rule):
    """No ``random`` module, ``time.time`` or ``datetime.now`` in
    deterministic paths.

    ``nvm``/``cim``/``llm``/``retrieval``/``tuning``/``serve`` must be
    pure functions of their inputs and seeds — a wall-clock read or a
    stdlib ``random`` draw there cannot be captured by a session
    snapshot and breaks byte-identical replay.  ``gateway`` code may
    keep such calls only behind an inline ``# repro: noqa[RNG-002]``
    suppression with a reason (e.g. deliberately non-deterministic
    network jitter).
    """

    rule_id = "RNG-002"
    title = "no stdlib random / wall clock in deterministic paths"
    default_hint = ("inject a seeded np.random.Generator (see utils.rng); "
                    "gateway code may instead suppress with "
                    "# repro: noqa[RNG-002] <reason>")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dir(*DETERMINISTIC_DIRS, *EDGE_DIRS):
            return
        edge = ctx.in_dir(*EDGE_DIRS)
        where = ("gateway code (suppress with a reason if deliberate)"
                 if edge else "a deterministic path")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            ctx, node,
                            f"stdlib 'random' imported in {where}; its "
                            f"global state defeats seeded replay")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.finding(
                        ctx, node,
                        f"import from stdlib 'random' in {where}")
            elif isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if not chain or len(chain) < 2:
                    continue
                if chain[0] == "random":
                    yield self.finding(
                        ctx, node,
                        f"random.{'.'.join(chain[1:])}(...) in {where}")
                elif (chain[-2], chain[-1]) in _CLOCK_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"{'.'.join(chain)}(...) reads the wall clock in "
                        f"{where}; results depend on when the code runs")
