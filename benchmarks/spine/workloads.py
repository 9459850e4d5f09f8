"""The four traffic workloads: seeded input plans, closed-loop drivers,
output checks.

A *plan* is a pure function of the workload seed (and the world's text
pools, themselves seeded) that yields requests forever; a *driver* feeds
the plan to the public serving surface until its :class:`Budget` is
spent and returns an :class:`Observation`; ``verify`` replays what was
answered against an oracle.  Patterns are periodic by construction so
that the share of requests in each latency mode (prefill hit / miss,
session hit / restore, stalled / unstalled) is the same for every seed
and no reported percentile sits on the boundary between two modes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import resource
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro import (
    FrameworkConfig,
    GatewayClient,
    GatewayConfig,
    PromptGateway,
    PromptServeEngine,
    QueryRequest,
    TuneRequest,
)
from repro.gateway import GatewayError, RetryPolicy

from .measure import DEFAULT_SHARES, Rests
from .world import (PRESET, World, WorldSpec, derive_seed, seeded_rng,
                    tune_samples)

# One attempt: a 429/503 is a failed request, not a silent retry.
NO_RETRY = RetryPolicy(max_attempts=1)


# ----------------------------------------------------------------------
# Budgets and observations
# ----------------------------------------------------------------------
class Budget:
    """Stop rule of a driver: wall seconds (end-to-end runs) or a fixed
    number of work units (traced runs, whose counts must repeat)."""

    def __init__(self, *, seconds: float | None = None,
                 units: int | None = None):
        if (seconds is None) == (units is None):
            raise ValueError("give exactly one of seconds / units")
        self.seconds = seconds
        self.units = units
        self._deadline = None

    def start(self) -> None:
        if self.seconds is not None:
            self._deadline = time.perf_counter() + self.seconds

    def more(self, done: int) -> bool:
        """Whether to go on after ``done`` units."""
        if self.units is not None:
            return done < self.units
        return time.perf_counter() < self._deadline


class Pacer:
    """The rest between rounds of work.

    Every client thread calls :meth:`rest` before each round.  When all
    have arrived nothing is in flight and the server is idle: one of them
    then times the reference kernel (``measure.Rests``) and decides from
    the budget whether there is another round — so all clients stop after
    the same round.
    """

    def __init__(self, budget: Budget, *, parties: int, round_units: int,
                 speed_shares: tuple[float, float], timeout_s: float):
        self.rests = Rests(speed_shares)
        self._budget = budget
        self._round_units = round_units
        self._timeout_s = timeout_s
        self._go_on = True
        self._barrier = threading.Barrier(parties, action=self._at_rest)

    def _at_rest(self) -> None:
        if not self.rests.readings_ms:
            self._budget.start()
        self.rests.rest()
        self._go_on = self._budget.more(
            len(self.rests.stretches) * self._round_units)

    def rest(self) -> bool:
        """Wait for the other clients; whether another round follows."""
        self._barrier.wait(self._timeout_s)
        return self._go_on

    def abort(self) -> None:
        """A client failed: wake the others rather than let them wait."""
        self._barrier.abort()


@dataclass
class QuerySample:
    client: int
    started: float
    finished: float
    user: int
    text: str
    response: object = None      # QueryResponse, or None on failure
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1e3


@dataclass
class TuneSample:
    started: float
    finished: float
    user: int
    round_index: int
    response: object = None
    error: str | None = None


@dataclass
class Observation:
    started: float = 0.0
    finished: float = 0.0
    queries: list[QuerySample] = field(default_factory=list)
    tunes: list[TuneSample] = field(default_factory=list)
    # Client-observed latency samples (ms) and when each ended; one per
    # query, except batch_decode where a batch is one sample.
    latencies_ms: list[float] = field(default_factory=list)
    latency_ends: list[float] = field(default_factory=list)
    units: int = 0                       # work units completed
    # the rounds of work and the machine's speed in each
    rests: Rests | None = None
    client_cpu_s: float = 0.0            # CPU burnt generating load
    process_cpu_s: float = 0.0
    minor_faults: int = 0                # pages the kernel had to map
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    gateway_completed: int = 0
    gateway_rejected: int = 0
    post_checks: list[tuple[object, object]] = field(default_factory=list)
    expected_restores: int | None = None
    # user -> library sizes a query may have seen (tune_while_serving)
    library_sizes: dict[int, set[int]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.finished - self.started

    def stat_delta(self, key: str):
        return self.stats_after[key] - self.stats_before[key]

    def at_reference_speed(self, times_ms, ends) -> list[float]:
        """Each time multiplied by the machine's speed in the round it
        ended in (``measure.Rests``)."""
        return [ms * speed for ms, speed
                in zip(times_ms, self.rests.speeds_at(ends))]

    @property
    def latencies_reference_ms(self) -> list[float]:
        return self.at_reference_speed(self.latencies_ms, self.latency_ends)

    @property
    def unit_ms(self) -> list[float]:
        """Client-observed time of each work unit: a tune where the
        workload counts tunes, else a latency sample."""
        if self.tunes:
            return [(t.finished - t.started) * 1e3 for t in self.tunes]
        return self.latencies_ms

    @property
    def unit_reference_ms(self) -> list[float]:
        if self.tunes:
            return self.at_reference_speed(
                self.unit_ms, [t.finished for t in self.tunes])
        return self.latencies_reference_ms


def answers_digest(queries: list[QuerySample]) -> str:
    digest = hashlib.sha256()
    for sample in sorted(queries, key=lambda s: (s.client, s.started)):
        answer = sample.response.answer if sample.response else None
        index = sample.response.ovt_index if sample.response else None
        digest.update(repr((sample.user, sample.text, answer,
                            index)).encode("utf-8"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Seeded input plans (pure: no engine, no clock)
# ----------------------------------------------------------------------
def fresh_texts(seed: int, user: int, pool: list[str]):
    """The user's pool in seeded order, forever.  With a pool larger than
    the per-session prefill LRU a text always returns evicted."""
    order = list(pool)
    seeded_rng(seed, "fresh", user).shuffle(order)
    return itertools.cycle(order)


def chat_texts(seed: int, user: int, pool: list[str], *, period: int = 4,
               recent: int = 4):
    """One fresh text, then ``period - 1`` repeats of one of the last
    ``recent`` texts: a 1/``period`` prefill-miss share on every seed."""
    rng = seeded_rng(seed, "chat", user)
    fresh = fresh_texts(seed, user, pool)
    last: deque[str] = deque(maxlen=recent)
    for k in itertools.count():
        if k % period == 0:
            text = next(fresh)
            if text in last:
                last.remove(text)
            last.append(text)
        else:
            text = rng.choice(list(last))
        yield text


def chat_plan(seed: int, pools: dict[int, list[str]], users: list[int]):
    """``(user, text)`` for one chat client: its users round-robin."""
    texts = {user: chat_texts(seed, user, pools[user]) for user in users}
    for k in itertools.count():
        user = users[k % len(users)]
        yield user, next(texts[user])


def batch_plan(seed: int, pools: dict[int, list[str]], users: list[int]):
    """Batches of one fresh text per user, user order shuffled per batch."""
    rng = seeded_rng(seed, "batch-order")
    texts = {user: fresh_texts(seed, user, pools[user]) for user in users}
    while True:
        order = list(users)
        rng.shuffle(order)
        yield [(user, next(texts[user])) for user in order]


def tune_plan(tuned_users: list[int], next_round: dict[int, int]):
    """``(user, round_index)`` of client A's tunes: the tuned users in
    turn, each continuing from its own next round (round 0 was the
    set-up's; the samples of a round come from the seed)."""
    for k in itertools.count():
        user = tuned_users[k % len(tuned_users)]
        yield user, next_round[user] + k // len(tuned_users)


def mixed_query_plan(seed: int, pools: dict[int, list[str]],
                     quiet_users: list[int], tuned_users: list[int], *,
                     period: int):
    """Client B beside the tuner: ``period - 1`` queries to users nobody
    re-tunes, then one to a user under tuning (it pays the re-deploy);
    the tuned users in the order ``tune_plan`` tunes them."""
    rng = seeded_rng(seed, "mixed")
    quiet = itertools.cycle(quiet_users)
    tuned = itertools.cycle(tuned_users)
    for k in itertools.count():
        user = next(tuned) if k % period == period - 1 else next(quiet)
        yield user, rng.choice(pools[user])


def churn_plan(seed: int, pools: dict[int, list[str]], users: list[int],
               resident: list[int], *, period: int = 4, alpha: float = 1.1):
    """Queries over a working set larger than the session cache.

    The generator mirrors the engine's LRU (``resident``: least- to
    most-recently used) and makes every ``period``-th query a hit on a
    resident user and the others misses, each drawn Zipf(``alpha``) by a
    seeded popularity ranking — so the restore share is exactly
    ``(period - 1) / period`` on every seed.  Yields
    ``(user, text, is_restore)``.
    """
    rng = seeded_rng(seed, "churn")
    ranking = list(users)
    rng.shuffle(ranking)
    weight = {user: (rank + 1.0) ** -alpha
              for rank, user in enumerate(ranking)}
    capacity = len(resident)
    lru: OrderedDict[int, None] = OrderedDict((u, None) for u in resident)
    for k in itertools.count():
        hit = k % period == period - 1
        candidates = [u for u in ranking if (u in lru) == hit]
        user = rng.choices(candidates,
                           weights=[weight[u] for u in candidates])[0]
        if hit:
            lru.move_to_end(user)
        else:
            lru[user] = None
            while len(lru) > capacity:
                lru.popitem(last=False)
        yield user, rng.choice(pools[user]), not hit


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _http_query(client: GatewayClient, world: World, client_index: int,
                user: int, text: str, request_id: str) -> QuerySample:
    sample = QuerySample(client_index, time.perf_counter(), 0.0, user, text)
    try:
        sample.response = client.query(user, text,
                                       generation=world.generation,
                                       request_id=request_id)
    except GatewayError as error:
        sample.error = f"{type(error).__name__}: {error}"
    sample.finished = time.perf_counter()
    return sample


class _ClientThread(threading.Thread):
    """A load-generating thread that reports its own CPU time and
    re-raises whatever its body raised."""

    def __init__(self, body, name: str, pacer: Pacer):
        super().__init__(name=name, daemon=True)
        self._body = body
        self._pacer = pacer
        self.cpu_s = 0.0
        self.error: BaseException | None = None

    def run(self) -> None:
        cpu0 = time.thread_time()
        try:
            self._body()
        except BaseException as error:   # re-raised by _run_clients
            self.error = error
            self._pacer.abort()
        finally:
            self.cpu_s = time.thread_time() - cpu0


def _run_clients(threads: list[_ClientThread], timeout_s: float) -> float:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout_s)
        if thread.is_alive():
            raise RuntimeError(f"client thread {thread.name} hung")
    # The first failure, not the broken rendezvous it left the others at.
    errors = [thread.error for thread in threads if thread.error is not None]
    errors.sort(key=lambda e: isinstance(e, threading.BrokenBarrierError))
    if errors:
        raise errors[0]
    return sum(thread.cpu_s for thread in threads)


class Workload:
    """Base: subclasses set ``name``, ``why``, ``spec`` and the hooks.

    The work unit budgets count is a query, except where a subclass says
    otherwise (a batch, a tune)."""

    name = ""
    why = ""
    spec = WorldSpec()
    # Units per second this sandbox sustains untraced; sizes the
    # fixed-work (traced) runs.  Kept low so they end within --seconds.
    nominal_units_per_s = 1.0
    # Units between two rests: one whole period of the plan, so that
    # every round (and every fixed-work count) holds the same mix.
    round_units = 1
    n_clients = 1
    # Shares of the work whose time goes with the reference kernel's
    # dispatch and stream readings (``measure.Rests``).
    speed_shares = DEFAULT_SHARES
    join_timeout_s = 150.0

    def run(self, world: World, budget: Budget, *, label: str = "run",
            part: int = 0) -> Observation:
        """Drive the plan until ``budget`` is spent.  ``part`` picks the
        text pool, ``label`` prefixes the request ids."""
        raise NotImplementedError

    def verify(self, world: World,
               observation: Observation) -> tuple[int, list[str]]:
        """``(operations attempted, failure messages)``."""
        raise NotImplementedError

    def fixed_units(self, seconds: float, share: float) -> int:
        units = int(self.nominal_units_per_s * seconds * share)
        units -= units % self.round_units
        return max(units, self.round_units)

    def pacer(self, budget: Budget) -> Pacer:
        return Pacer(budget, parties=self.n_clients,
                     round_units=self.round_units,
                     speed_shares=self.speed_shares,
                     timeout_s=self.join_timeout_s)

    # -- shared helpers -------------------------------------------------
    def _observe(self, world: World, body, pacer: Pacer,
                 gateway=None) -> Observation:
        """Run ``body(observation)`` between two stats snapshots."""
        observation = Observation()
        observation.stats_before = world.engine.stats()
        completed0 = gateway.completed if gateway else 0
        rejected0 = gateway.rejected if gateway else 0
        cpu0 = time.process_time()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        observation.started = time.perf_counter()
        body(observation)
        observation.finished = time.perf_counter()
        observation.process_cpu_s = time.process_time() - cpu0
        observation.minor_faults = resource.getrusage(
            resource.RUSAGE_SELF).ru_minflt - faults0
        observation.stats_after = world.engine.stats()
        observation.rests = pacer.rests
        # Unless the body said otherwise: one latency sample per query,
        # and the unit of work is a tune where there are tunes, else a
        # query.
        if not observation.latencies_ms:
            observation.latencies_ms = [s.latency_ms
                                        for s in observation.queries]
            observation.latency_ends = [s.finished
                                        for s in observation.queries]
        if not observation.units:
            observation.units = (len(observation.tunes)
                                 or len(observation.queries))
        if gateway:
            observation.gateway_completed = gateway.completed - completed0
            observation.gateway_rejected = gateway.rejected - rejected0
        return observation


def _check_against_oracle(queries: list[QuerySample], oracle_query,
                          failures: list[str], *, seed: int,
                          max_oracle: int | None = None) -> int:
    """Check every answer; returns how many were checked.

    Answers are a pure function of ``(user, text)`` once a library is
    deployed (NVM noise is drawn at programming time).  So every answer
    must echo its request and equal, field for field, every other answer
    to the same pair; and the oracle is consulted once per distinct pair
    — for a seeded sample of ``max_oracle`` pairs when there are more.
    """
    first: dict[tuple[int, str], object] = {}
    for sample in queries:
        if sample.response is None:
            failures.append(f"query user={sample.user} failed: "
                            f"{sample.error}")
            continue
        observed = dataclasses.replace(sample.response, request_id="")
        key = (sample.user, sample.text)
        if (observed.user_id, observed.text) != key:
            failures.append(f"answer does not echo its request: "
                            f"{sample.response!r}")
        elif first.setdefault(key, observed) != observed:
            failures.append(f"two answers to user={sample.user} "
                            f"text={sample.text!r} differ")
    keys = sorted(first)
    seeded_rng(seed, "oracle-sample").shuffle(keys)
    for key in keys[:max_oracle]:
        expected = oracle_query(*key)
        if first[key] != expected:
            failures.append(
                f"answer mismatch user={key[0]} text={key[1]!r}: got "
                f"{first[key].answer!r}, oracle {expected.answer!r}")
    return len(queries)


def _in_process_oracle(world: World, engine: PromptServeEngine | None = None):
    engine = engine if engine is not None else world.engine

    def oracle_query(user: int, text: str):
        return engine.query(QueryRequest(user_id=user, text=text,
                                         generation=world.generation))
    return oracle_query


def _check_served_count(observation: Observation, failures: list[str],
                        *, over_http: bool) -> None:
    answered = sum(1 for s in observation.queries if s.response is not None)
    served = observation.stat_delta("requests_served")
    if served != answered:
        failures.append(f"engine served {served} requests, clients saw "
                        f"{answered} answers")
    if over_http and observation.gateway_completed != answered:
        failures.append(f"gateway completed {observation.gateway_completed} "
                        f"queries, clients saw {answered} answers")


# ----------------------------------------------------------------------
class ResidentChat(Workload):
    name = "resident_chat"
    why = ("Short classification answers over HTTP: fixed per-request "
           "costs (gateway wire/admission, begin_query, CiM search, prompt "
           "restore, prefill) outweigh the 4-token decode.")
    spec = WorldSpec(n_users=8, max_sessions=8, new_tokens=4)
    nominal_units_per_s = 150.0
    n_clients = 2
    max_oracle = 256              # of at most 8 x 64 distinct pairs
    round_units = 32              # 2 clients x 4 users x text period 4

    def run(self, world, budget, *, label="run", part=0):
        per_client = len(world.users) // self.n_clients
        pools = world.pool_part(part)
        pacer = self.pacer(budget)
        with PromptGateway(world.engine, GatewayConfig(port=0)) as gateway:
            host, port = gateway.address

            def body(observation):
                results = [[] for _ in range(self.n_clients)]

                def client_body(index):
                    users = world.users[index * per_client:
                                        (index + 1) * per_client]
                    plan = chat_plan(world.seed, pools, users)
                    with GatewayClient(host, port, retry=NO_RETRY) as client:
                        while pacer.rest():
                            for user, text in itertools.islice(
                                    plan, self.round_units // self.n_clients):
                                results[index].append(_http_query(
                                    client, world, index, user, text,
                                    f"{self.name}-{label}-{index}-"
                                    f"{len(results[index])}"))

                threads = [_ClientThread(
                    functools.partial(client_body, index), f"chat-{index}",
                    pacer) for index in range(self.n_clients)]
                observation.client_cpu_s = _run_clients(
                    threads, self.join_timeout_s)
                observation.queries = [s for r in results for s in r]

            return self._observe(world, body, pacer, gateway)

    def verify(self, world, observation):
        failures: list[str] = []
        attempted = _check_against_oracle(
            observation.queries, _in_process_oracle(world), failures,
            seed=world.seed, max_oracle=self.max_oracle)
        _check_served_count(observation, failures, over_http=True)
        return attempted, failures


# ----------------------------------------------------------------------
class BatchDecode(Workload):
    name = "batch_decode"
    why = ("Offline throughput through answer_batch, 8 users x 40 new "
           "tokens, fresh text per user (prefill miss): the decode round "
           "does most of the work and the gateway none.")
    spec = WorldSpec(n_users=8, max_sessions=8, new_tokens=40)
    nominal_units_per_s = 9.0
    max_oracle = 48
    # Decode rounds are small numpy calls on cache-resident weights; only
    # admission (CiM search, prefill) reads large arrays.
    speed_shares = (0.8, 0.2)

    def run(self, world, budget, *, label="run", part=0):
        plan = batch_plan(world.seed, world.pool_part(part), world.users)
        pacer = self.pacer(budget)

        def body(observation):
            for done, batch in enumerate(plan):
                if not pacer.rest():
                    break
                requests = [QueryRequest(
                    user_id=user, text=text, generation=world.generation,
                    request_id=f"{self.name}-{label}-{done}-{slot}")
                    for slot, (user, text) in enumerate(batch)]
                started = time.perf_counter()
                responses = world.engine.answer_batch(requests)
                finished = time.perf_counter()
                observation.latencies_ms.append((finished - started) * 1e3)
                observation.latency_ends.append(finished)
                observation.queries.extend(
                    QuerySample(0, started, finished, request.user_id,
                                request.text, response)
                    for request, response in zip(requests, responses))
                observation.units += 1
            # The load generator and the engine share this thread, so
            # no client CPU is set apart.

        return self._observe(world, body, pacer)

    def verify(self, world, observation):
        """A seeded sample of answers against the same request issued
        alone through ``query`` (40 sequential tokens each: the whole
        run would take as long again)."""
        failures: list[str] = []
        attempted = _check_against_oracle(
            observation.queries, _in_process_oracle(world), failures,
            seed=world.seed, max_oracle=self.max_oracle)
        _check_served_count(observation, failures, over_http=False)
        return attempted, failures


# ----------------------------------------------------------------------
class TuneWhileServing(Workload):
    name = "tune_while_serving"
    why = ("Writes beside reads: client A re-tunes users 4-7 (one epoch "
           "per request) while client B sends seven queries; submit holds "
           "the engine lock for the whole epoch, so B's tail is the stall.")
    spec = WorldSpec(n_users=8, max_sessions=8, new_tokens=4)
    nominal_units_per_s = 5.0
    n_clients = 2
    # Client B's queries beside each tune.  The first to meet the epoch
    # waits it out (~90 ms), the last pays the re-deploy (~50 ms), the
    # others take ~6 ms.  With seven, five in seven are of the last kind
    # and one in seven of the first, so the median lies well inside the
    # one mode and p90 well inside the other, on every run.
    queries_per_tune = 7

    def run(self, world, budget, *, label="run", part=0):
        users = world.users
        quiet, tuned = users[:len(users) // 2], users[len(users) // 2:]
        pools = world.pool_part(part)
        library_sizes = {user: {len(world.engine.session(user).library)}
                         for user in users}
        pacer = self.pacer(budget)
        with PromptGateway(world.engine, GatewayConfig(port=0)) as gateway:
            host, port = gateway.address

            def body(observation):
                def tuner():
                    """One tune to a round."""
                    plan = tune_plan(tuned, dict(world.next_round))
                    with GatewayClient(host, port, retry=NO_RETRY) as client:
                        while pacer.rest():
                            user, round_index = next(plan)
                            samples = tune_samples(world.seed, user,
                                                   round_index)
                            sample = TuneSample(time.perf_counter(), 0.0,
                                                user, round_index)
                            try:
                                sample.response = client.tune(
                                    user, samples,
                                    request_id=f"{self.name}-{label}-tune-"
                                               f"{len(observation.tunes)}")
                            except GatewayError as error:
                                sample.error = str(error)
                            sample.finished = time.perf_counter()
                            observation.tunes.append(sample)
                            world.next_round[user] = round_index + 1

                def querier():
                    """Beside each tune: queries to users nobody re-tunes,
                    then one to the user that tune is for."""
                    plan = mixed_query_plan(world.seed, pools, quiet, tuned,
                                            period=self.queries_per_tune)
                    with GatewayClient(host, port, retry=NO_RETRY) as client:
                        while pacer.rest():
                            for user, text in itertools.islice(
                                    plan, self.queries_per_tune):
                                observation.queries.append(_http_query(
                                    client, world, 1, user, text,
                                    f"{self.name}-{label}-query-"
                                    f"{len(observation.queries)}"))

                threads = [_ClientThread(tuner, "tuner", pacer),
                           _ClientThread(querier, "querier", pacer)]
                observation.client_cpu_s = _run_clients(
                    threads, self.join_timeout_s)

            observation = self._observe(world, body, pacer, gateway)
            # The served state after the last tune must be the same over
            # HTTP and in-process, for every user.
            with GatewayClient(host, port, retry=NO_RETRY) as client:
                for user in users:
                    text = pools[user][0]
                    over_http = _http_query(client, world, 2, user, text, "")
                    direct = _in_process_oracle(world)(user, text)
                    observation.post_checks.append(
                        (over_http.response, direct))
        observation.library_sizes = library_sizes
        return observation

    def verify(self, world, observation):
        failures: list[str] = []
        users = world.users
        quiet = set(users[:len(users) // 2])
        sizes = observation.library_sizes
        # Users nobody re-tuned answer as a pure function of (user, text).
        attempted = _check_against_oracle(
            [s for s in observation.queries if s.user in quiet],
            _in_process_oracle(world), failures, seed=world.seed)
        # Re-tuned users: the library a query saw is one some tune left.
        for tune in observation.tunes:
            attempted += 1
            response = tune.response
            if response is None:
                failures.append(f"tune of user {tune.user} failed: "
                                f"{tune.error}")
                continue
            if response.epochs_fired != 1 or response.accepted != len(
                    tune_samples(world.seed, tune.user, tune.round_index)):
                failures.append(f"tune of user {tune.user} round "
                                f"{tune.round_index}: {response!r}")
            sizes[tune.user].add(response.library_size)
        for sample in observation.queries:
            if sample.user in quiet:
                continue
            attempted += 1
            if sample.response is None:
                failures.append(f"query user={sample.user} failed: "
                                f"{sample.error}")
            elif sample.response.n_ovts not in sizes[sample.user]:
                failures.append(
                    f"user {sample.user} answered from a library of "
                    f"{sample.response.n_ovts} OVTs no tune produced")
        for over_http, direct in observation.post_checks:
            attempted += 1
            if over_http is None or over_http != direct:
                failures.append(f"post-tune HTTP answer {over_http!r} != "
                                f"in-process {direct!r}")
        _check_served_count(observation, failures, over_http=True)
        return attempted, failures


# ----------------------------------------------------------------------
class SessionChurn(Workload):
    name = "session_churn"
    why = ("One client over 8 tuned users with room for 2 sessions: "
           "3 of 4 queries restore a spilled session (and spill another), "
           "so snapshot/codec/store and NVM snapshot/restore dominate.")
    spec = WorldSpec(n_users=8, max_sessions=2, new_tokens=4,
                     session_store=True)
    nominal_units_per_s = 20.0
    round_units = 4               # three restores, one hit
    # A restoring query mostly moves an 18 MiB blob about: its time goes
    # with the memory bus, not with the core.
    speed_shares = (0.2, 0.8)

    def run(self, world, budget, *, label="run", part=0):
        resident = world.engine.active_users()
        plan = churn_plan(derive_seed(world.seed, "churn", label),
                          world.pool_part(part), world.users, resident,
                          period=self.round_units)
        pacer = self.pacer(budget)
        with PromptGateway(world.engine, GatewayConfig(port=0)) as gateway:
            host, port = gateway.address

            def body(observation):
                observation.expected_restores = 0

                def client_body():
                    with GatewayClient(host, port, retry=NO_RETRY) as client:
                        while pacer.rest():
                            for user, text, restore in itertools.islice(
                                    plan, self.round_units):
                                observation.queries.append(_http_query(
                                    client, world, 0, user, text,
                                    f"{self.name}-{label}-"
                                    f"{len(observation.queries)}"))
                                observation.expected_restores += restore

                observation.client_cpu_s = _run_clients(
                    [_ClientThread(client_body, "churn", pacer)],
                    self.join_timeout_s)

            return self._observe(world, body, pacer, gateway)

    def verify(self, world, observation):
        """Half the users (seeded) against an engine that never evicts —
        same model, same tunes, room for every session; every user
        against the answer its never-yet-evicted session gave at set-up.
        Tuning the oracle costs as much as the set-up did, hence half."""
        failures: list[str] = []
        users = sorted({s.user for s in observation.queries})
        seeded_rng(world.seed, "churn-oracle").shuffle(users)
        oracle_users = set(users[:(len(users) + 1) // 2])
        oracle = PromptServeEngine(
            world.model, world.tokenizer, FrameworkConfig.preset(PRESET),
            max_sessions=len(users))
        for user in sorted(oracle_users):
            oracle.submit(TuneRequest(
                user_id=user, samples=tune_samples(world.seed, user, 0)))
        attempted = _check_against_oracle(
            [s for s in observation.queries if s.user in oracle_users],
            _in_process_oracle(world, oracle), failures, seed=world.seed)
        attempted += _check_against_oracle(
            [s for s in observation.queries if s.user not in oracle_users],
            None, failures, seed=world.seed, max_oracle=0)
        replay = _in_process_oracle(world)
        for user in users:
            attempted += 1
            warm = dataclasses.replace(world.warmup[user], request_id="")
            if replay(user, warm.text) != warm:
                failures.append(f"user {user} no longer answers its set-up "
                                f"query as the fresh session did")
        _check_served_count(observation, failures, over_http=True)
        return attempted, failures


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (ResidentChat(), BatchDecode(), TuneWhileServing(),
                     SessionChurn())
}
