"""Lock discipline: LOCK-001 and LOCK-002.

The serving engine's thread-safety contract: the gateway drives
admission, the decode loop and stats from different threads, so every
public entry point that mutates engine state must run under
``self._lock`` (LOCK-001: in any class that owns a ``self._lock``, or is
explicitly named below, a public method that stores into ``self.*``
state must either contain a ``with self._lock:`` block or delegate to a
``*_locked`` helper, which by convention is only called with the lock
held).  And the lock must stay short: a tune trains *beside* the decode
rounds and takes the lock only to publish (LOCK-002).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import FileContext, Rule, attribute_chain, self_attribute_target
from .findings import Finding

__all__ = ["UnlockedPublicMutation", "TrainingUnderLock"]

# Classes held to lock discipline even if they do not (yet) own a lock:
# the engine the gateway serves from multiple threads.
LOCKED_CLASSES = ("PromptServeEngine",)


def _assigns_lock(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if self_attribute_target(target) == "_lock":
                    return True
    return False


def _mutated_attrs(method: ast.FunctionDef) -> list[tuple[str, ast.AST]]:
    """(attribute, node) pairs for every store into ``self.*``."""
    mutations = []
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        else:
            continue
        # Unpack tuple/list targets: `a, self.x = x, []` mutates self.x.
        flat: list[ast.AST] = []
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                flat.extend(target.elts)
            else:
                flat.append(target)
        for target in flat:
            attr = self_attribute_target(target)
            if attr is not None:
                mutations.append((attr, node))
    return mutations


def _enters_lock(method: ast.FunctionDef) -> bool:
    for node in ast.walk(method):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if self_attribute_target(item.context_expr) == "_lock":
                    return True
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr.endswith("_locked")):
                return True
    return False


class UnlockedPublicMutation(Rule):
    """Public methods of lock-owning classes must mutate under the lock."""

    rule_id = "LOCK-001"
    title = "public engine entry points must hold self._lock to mutate"
    default_hint = ("wrap the mutation in `with self._lock:` or delegate "
                    "to a `_..._locked` helper called under the lock")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            init = next((m for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and m.name == "__init__"), None)
            owns_lock = init is not None and _assigns_lock(init)
            if not owns_lock and node.name not in LOCKED_CLASSES:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name.startswith("_"):
                    continue   # private/dunder: callers hold the lock
                mutations = _mutated_attrs(method)
                if not mutations or _enters_lock(method):
                    continue
                attrs = sorted({attr for attr, _ in mutations})
                first = min((node_ for _, node_ in mutations),
                            key=lambda n: getattr(n, "lineno", 1))
                yield self.finding(
                    ctx, first,
                    f"{node.name}.{method.name}() assigns "
                    f"self.{', self.'.join(attrs)} without entering "
                    f"self._lock; concurrent callers can observe torn "
                    f"state")


# Training entry points: a pipeline's or a session's epoch, or the
# session's prepare step that runs one on a fork.
_TRAINING_METHODS = ("prepare", "observe")
# Engine methods that train: re-entered under the (re-entrant) lock they
# would run their epoch with it held.
_TRAINING_ENTRY_POINTS = ("submit", "submit_batch")


def _trains(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _TRAINING_METHODS:
        return True
    if func.attr in _TRAINING_ENTRY_POINTS:
        return isinstance(func.value, ast.Name) and func.value.id == "self"
    if func.attr != "extend":
        return False
    # ``extend`` is also a list method: only a session's (or a
    # pipeline's) trains — ``session``, ``self.session(uid)``,
    # ``self._sessions[uid]``, ``x.pipeline``.
    receiver = func.value
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
    if isinstance(receiver, ast.Subscript):
        receiver = receiver.value
    chain = attribute_chain(receiver)
    return bool(chain) and any(word in chain[-1]
                               for word in ("session", "pipeline"))


class TrainingUnderLock(Rule):
    """No training inside ``with self._lock:``.

    A tune is *prepare* off the engine lock — selection, prompt tuning and
    the autoencoder update on a fork of the session's pipeline — and one
    *publish* under it.  A call to ``prepare``, ``observe`` (the
    pipeline's or the session's epoch), a session's ``extend``, or the
    engine's own ``submit`` / ``submit_batch`` inside a ``with
    self._lock:`` block runs an epoch while every query waits: on the
    spine's ``tune_while_serving`` that wait was the p90 query (≈ 33 ms
    of a 40 ms p90 against a 2.8 ms p50).

    Programming the new library's crossbars at publish stays under the
    lock on purpose.  The old deployment is retired first, so the two
    sets of crossbars are never held at once.  Building the new one off
    the lock, beside the live one, measured the same tail, but after the
    same 250 tunes it left 18.9–19.1 MiB of freed-but-held heap in the
    spine's pinned single malloc arena against 10.6–10.8 MiB for
    retire-first (glibc ``mallinfo2``), and a peak RSS of 133.7–133.9
    MiB against 125.4–126.6: past ``peak_rss_mb``'s 5 % bound.
    """

    rule_id = "LOCK-002"
    title = "no training inside `with self._lock:`"
    default_hint = ("train on a fork off the lock (UserSession.prepare) and "
                    "take the lock only to publish (UserSession.publish)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            if not any(self_attribute_target(item.context_expr) == "_lock"
                       for item in node.items):
                continue
            for statement in node.body:
                for inner in ast.walk(statement):
                    if isinstance(inner, ast.Call) and _trains(inner):
                        yield self.finding(
                            ctx, inner,
                            f".{inner.func.attr}() trains while holding "
                            f"self._lock; every query waits the epoch out")
