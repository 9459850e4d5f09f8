"""The generator-state form snapshots had before packed states.

Earlier builds wrote every generator's state as numpy's PCG64 state dict,
wrapped as ``{"name": "PCG64", "state": <bit_generator.state>}``: a tile
bank's under ``"rngs"`` (one per tile), a search engine's under
``"rng"``.  This build writes and reads only packed ``uint64`` rows
(``"rng_states"`` / ``"rng_state"``); :func:`dict_form` turns a snapshot
of this build into the older form, so tests can check that what an
earlier build wrote is refused.
"""

from repro.utils import load_state, state_generator


def state_dict(row) -> dict:
    """One packed state row as the dict an earlier build wrote for it."""
    state = load_state(state_generator(), row).bit_generator.state
    return {"name": state["bit_generator"], "state": state}


def dict_form(value):
    """A copy of a snapshot (any part of one) with every packed
    generator state written as the earlier build's dicts."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key == "rng_states":
                out["rngs"] = [state_dict(row) for row in item]
            elif key == "rng_state":
                out["rng"] = state_dict(item)
            else:
                out[key] = dict_form(item)
        return out
    if isinstance(value, list):
        return [dict_form(item) for item in value]
    return value
