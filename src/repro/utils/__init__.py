"""Shared utilities: deterministic RNG management."""

from .rng import (
    STATE_WORDS,
    checked_states,
    derive_rng,
    load_state,
    pack_state,
    rng_from_seed,
    seeded_states,
    spawn_generators,
    state_generator,
)

__all__ = ["rng_from_seed", "derive_rng", "spawn_generators", "STATE_WORDS",
           "pack_state", "load_state", "state_generator", "seeded_states",
           "checked_states"]
