"""Per-user preference profiles.

A profile carries everything that makes a user's data *personal*: which
topics they engage with, how harshly they rate, and the filler words that
mark their writing style.  These are exactly the latent factors a one4all
prompt cannot capture but per-domain OVTs can.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils import derive_rng
from .vocabulary import STYLE_WORDS, TOPICS

__all__ = ["UserProfile", "make_user", "make_users"]


@dataclass(frozen=True)
class UserProfile:
    """Latent preferences of one simulated user."""

    user_id: int
    preferred_topics: tuple[str, ...]
    rating_bias: int          # -1 harsh, 0 neutral, +1 generous
    style_words: tuple[str, ...]

    def __post_init__(self):
        if not self.preferred_topics:
            raise ValueError("a user needs at least one preferred topic")
        if self.rating_bias not in (-1, 0, 1):
            raise ValueError("rating_bias must be -1, 0 or +1")


def make_user(user_id: int, *, seed: int = 0, n_topics: int = 3) -> UserProfile:
    """Deterministically synthesise user ``user_id``'s profile."""
    if not 1 <= n_topics <= len(TOPICS):
        raise ValueError(f"n_topics must be in [1, {len(TOPICS)}]")
    rng = derive_rng(seed, "user", user_id)
    topics = tuple(rng.choice(TOPICS, size=n_topics, replace=False))
    bias = int(rng.integers(-1, 2))
    style = tuple(rng.choice(STYLE_WORDS, size=2, replace=False))
    return UserProfile(user_id=user_id, preferred_topics=topics,
                       rating_bias=bias, style_words=style)


def make_users(count: int, *, seed: int = 0, n_topics: int = 3) -> list[UserProfile]:
    """The first ``count`` users of the simulated population."""
    return [make_user(i, seed=seed, n_topics=n_topics) for i in range(count)]
