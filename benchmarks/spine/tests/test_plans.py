"""Workload generators: one seed, one input; another seed, another."""

import itertools
from collections import OrderedDict

import pytest

from spine import workloads as W

POOLS = {user: [f"u{user}-t{i}" for i in range(64)] for user in range(8)}
USERS = list(range(8))


def take(generator, n):
    return list(itertools.islice(generator, n))


PLANS = {
    "chat": lambda seed: W.chat_plan(seed, POOLS, USERS[:4]),
    "batch": lambda seed: W.batch_plan(seed, POOLS, USERS),
    "mixed": lambda seed: W.mixed_query_plan(seed, POOLS, USERS[:4],
                                             USERS[4:], period=5),
    "churn": lambda seed: W.churn_plan(seed, POOLS, USERS, [6, 7]),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_is_a_function_of_the_seed(name):
    plan = PLANS[name]
    assert take(plan(3), 200) == take(plan(3), 200)
    assert take(plan(3), 200) != take(plan(4), 200)


def test_chat_misses_the_prefill_cache_exactly_one_time_in_four():
    """Replay one user's texts through a 32-entry LRU like the session's."""
    texts = take(W.chat_texts(11, 0, POOLS[0]), 4000)
    lru: OrderedDict[str, None] = OrderedDict()
    misses = 0
    for text in texts:
        if text in lru:
            lru.move_to_end(text)
        else:
            misses += 1
            lru[text] = None
            if len(lru) > 32:
                lru.popitem(last=False)
    assert misses == len(texts) // 4


def test_batches_hold_every_user_once_with_a_fresh_text():
    batches = take(W.batch_plan(5, POOLS, USERS), 64)
    for batch in batches:
        assert sorted(user for user, _ in batch) == USERS
    per_user = [text for batch in batches for user, text in batch
                if user == 0]
    assert len(set(per_user)) == 64          # the whole pool before a repeat


def test_tune_plan_continues_each_users_rounds():
    plan = W.tune_plan([4, 5], {4: 1, 5: 3})
    assert take(plan, 5) == [(4, 1), (5, 3), (4, 2), (5, 4), (4, 3)]


def test_mixed_plan_ends_each_period_with_the_user_being_tuned():
    plan = take(W.mixed_query_plan(2, POOLS, USERS[:4], USERS[4:],
                                   period=5), 40)
    tuned = [(k, user) for k, (user, _) in enumerate(plan) if user >= 4]
    tunes = take(W.tune_plan(USERS[4:], dict.fromkeys(USERS, 1)), 8)
    assert tuned == [(5 * r + 4, user) for r, (user, _) in enumerate(tunes)]


def test_churn_plan_mirrors_an_lru_and_fixes_the_restore_share():
    capacity = 2
    lru: OrderedDict[int, None] = OrderedDict.fromkeys([6, 7])
    plan = take(W.churn_plan(9, POOLS, USERS, [6, 7]), 400)
    restores = 0
    for user, text, says_restore in plan:
        was_resident = user in lru
        assert says_restore == (not was_resident)
        assert text in POOLS[user]
        lru[user] = None
        lru.move_to_end(user)
        while len(lru) > capacity:
            lru.popitem(last=False)
        restores += not was_resident
    assert restores == 300                    # exactly three in four


def test_budget_counts_units_or_watches_the_clock():
    units = W.Budget(units=10)
    units.start()
    assert units.more(9) and not units.more(10)
    clock = W.Budget(seconds=0.0)
    clock.start()
    assert not clock.more(0)
    with pytest.raises(ValueError):
        W.Budget()
    with pytest.raises(ValueError):
        W.Budget(seconds=1.0, units=1)


def test_fixed_units_round_to_the_pattern():
    chat = W.WORKLOADS["resident_chat"]
    assert chat.fixed_units(10, 0.4) % chat.round_units == 0
    assert chat.fixed_units(0.001, 0.4) == chat.round_units
