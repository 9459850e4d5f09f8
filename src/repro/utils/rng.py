"""Deterministic random number management.

Every stochastic component in the repository draws from a
``numpy.random.Generator`` derived here, so a single experiment seed pins
the entire pipeline (data synthesis, initialisation, noise injection, device
variation) without any global state.

Generator states that must outlive their generator — a tile bank's
per-tile streams, a search engine's, both shipped in session snapshots —
are kept as data: one ``(STATE_WORDS,)`` ``uint64`` row per PCG64
generator (:func:`pack_state`), rows stacked into one array per owner,
and a generator is built around a row only for the draws it makes
(:func:`state_generator`, :func:`load_state`).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["rng_from_seed", "derive_rng", "spawn_generators", "STATE_WORDS",
           "pack_state", "load_state", "state_generator", "seeded_states",
           "checked_states"]

# A packed PCG64 state: the 128-bit state and increment as (hi, lo)
# 64-bit words, then the buffered-uint32 flag and value.
STATE_WORDS = 6
_MASK64 = (1 << 64) - 1
# What a generator built for packed states is seeded from before its
# state is set: one shared sequence, so building one draws no entropy
# and hashes no seed of its own.
_SHARED_SEED = np.random.SeedSequence(0)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Create a generator from an integer seed."""
    return np.random.default_rng(int(seed))


def derive_rng(seed: int, *labels: str | int) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a label path.

    Labels make the stream immune to call-order changes: the stream for
    ``("user", 3, "buffer")`` is the same no matter what else was sampled
    first.
    """
    digest = hashlib.sha256()
    digest.update(str(int(seed)).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    child = int.from_bytes(digest.digest()[:8], "little")
    return np.random.default_rng(child)


def spawn_generators(rng: np.random.Generator,
                     count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent child generators from ``rng``.

    Children are derived through the generator's ``SeedSequence`` (so the
    parent's bit stream is untouched and successive spawns from the same
    parent never repeat), giving each consumer — e.g. each crossbar tile —
    its own stream whose draws do not depend on how many values *other*
    consumers drew first.  Falls back to stream-derived integer seeds for
    generators built without a seed sequence.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    try:
        return list(rng.spawn(count))
    except (AttributeError, TypeError):
        seeds = rng.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]


def pack_state(rng: np.random.Generator,
               out: np.ndarray | None = None) -> np.ndarray:
    """``rng``'s PCG64 state as one ``(STATE_WORDS,)`` ``uint64`` row,
    written into ``out`` when given."""
    state = rng.bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ValueError(f"only PCG64 generator states pack, got "
                         f"{state['bit_generator']}")
    value, inc = state["state"]["state"], state["state"]["inc"]
    row = (value >> 64, value & _MASK64, inc >> 64, inc & _MASK64,
           state["has_uint32"], state["uinteger"])
    if out is None:
        return np.array(row, dtype=np.uint64)
    out[:] = row
    return out


def load_state(rng: np.random.Generator,
               row: np.ndarray) -> np.random.Generator:
    """Set a PCG64 generator to a packed state row; returns ``rng``."""
    value_hi, value_lo, inc_hi, inc_lo, has_uint32, uinteger = row.tolist()
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": value_hi << 64 | value_lo,
                  "inc": inc_hi << 64 | inc_lo},
        "has_uint32": has_uint32, "uinteger": uinteger}
    return rng


def state_generator() -> np.random.Generator:
    """A PCG64 generator to :func:`load_state` packed rows into.

    Built on one shared seed sequence (never ``PCG64.__new__``: a bit
    generator that skipped ``__init__`` crashes on use), so its own
    state is meaningless until a row is loaded and it must not
    ``spawn``.
    """
    return np.random.Generator(np.random.PCG64(_SHARED_SEED))


@functools.lru_cache(maxsize=None)
def _seeded_states(count: int) -> np.ndarray:
    states = np.stack([pack_state(rng_from_seed(i)) for i in range(count)])
    states.flags.writeable = False
    return states


def seeded_states(count: int) -> np.ndarray:
    """The packed states of ``rng_from_seed(0 .. count - 1)``, as a new
    array: computed once per ``count``, so a bank built only to be
    restored seeds no generator after the first."""
    return _seeded_states(count).copy()


def checked_states(states, count: int) -> np.ndarray:
    """``count`` packed generator states as a new ``(count, STATE_WORDS)``
    ``uint64`` array, or ``ValueError``.

    ``states`` is checked whole — dtype, shape, a flag that is 0 or 1,
    a buffered value below 2**32, an odd increment — before the caller
    adopts any of it.
    """
    if not isinstance(states, np.ndarray) or states.dtype != np.uint64:
        raise ValueError(f"packed generator states must be a uint64 array, "
                         f"got {getattr(states, 'dtype', type(states))}")
    if states.shape != (count, STATE_WORDS):
        raise ValueError(f"packed generator states have shape "
                         f"{states.shape}, not ({count}, {STATE_WORDS})")
    if (states[:, 4] > 1).any() or (states[:, 5] >> 32).any() or \
            not (states[:, 3] & 1).all():
        raise ValueError("packed generator states are not PCG64 states "
                         "(flag not 0/1, buffered value over 32 bits, or "
                         "an even increment)")
    return states.copy()
