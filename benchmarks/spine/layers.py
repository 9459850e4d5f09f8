"""Per-layer measurements that do not depend on the traffic workload.

``layer_suite`` times each layer's exported functions at fixed shapes
(the S-kind metrics); ``layer_tour`` walks one request of every kind
through the traced engine so that every span in the wrap table has
samples on every workload (the T-kind per-call metrics pool the
workload's own spans with the tour's).
"""

from __future__ import annotations

import copy
import json
import statistics
import tempfile
import time

import numpy as np

from repro import (
    GatewayClient,
    GatewayConfig,
    GenerationConfig,
    PromptGateway,
    QueryRequest,
    SessionSnapshot,
    SessionStore,
    TuneRequest,
    get_device,
)
from repro.ag import (Adam, Linear, QuantizedLinear, Tensor, gelu, mse_loss,
                      no_grad)
from repro.gateway import (parse_query_request, parse_tune_request,
                           query_response_from_dict, query_response_to_dict)
from repro.llm import (DecodeScheduler, PretrainConfig, SpeculativeDecoder,
                       build_draft_model, distill_draft, prefill,
                       quantization_stats, quantize_model)
from repro.nvm import TileBank
from repro.retrieval import CiMSearchEngine
from repro.tuning import TuningConfig, VanillaPromptTuner
from repro.utils import rng_from_seed

from . import OUT_DIR
from .measure import percentile
from .workloads import NO_RETRY
from .world import MODEL_NAME, World, tune_samples

SUITE_SEED = 20250930


class Timer:
    """Median-of-means timing; ``quick`` (smoke runs) times each function
    once, which checks that it runs and says little about how fast."""

    def __init__(self, quick: bool = False):
        self.quick = quick

    def median_ms(self, fn, *, repeats: int = 7, inner: int = 1) -> float:
        """Median over ``repeats`` of the mean time of ``inner`` calls."""
        if self.quick:
            repeats, inner = 1, max(1, inner // 10)
        fn()   # warm caches and lazy state
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(inner):
                fn()
            times.append((time.perf_counter() - started) / inner)
        return statistics.median(times) * 1e3


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------
def _gateway_suite(world: World, timer: Timer) -> dict:
    response = world.warmup[0]
    query_body = json.dumps({
        "user_id": 0, "text": response.text, "request_id": "wire",
        "generation": {"max_new_tokens": 4, "temperature": 0.0}})

    def query_wire():
        parse_query_request(json.loads(query_body))
        wire = json.dumps(query_response_to_dict(response,
                                                 finish_reason="length"))
        query_response_from_dict(json.loads(wire))

    samples = [{"task": s.task, "input_text": s.input_text,
                "target_text": s.target_text, "domain": s.domain}
               for s in tune_samples(world.seed, 0, 0)]
    tune_body = json.dumps({"user_id": 0, "samples": samples,
                            "request_id": "wire"})

    def tune_wire():
        parse_tune_request(json.loads(tune_body))

    return {
        "gateway.wire_us": timer.median_ms(query_wire, inner=50) * 1e3,
        "gateway.tune_wire_ms": timer.median_ms(tune_wire, inner=20),
    }


# ----------------------------------------------------------------------
# serve (durability)
# ----------------------------------------------------------------------
def _durability_suite(world: World, timer: Timer) -> dict:
    session = world.engine.session(world.engine.active_users()[-1])
    session.deployment()          # make sure the NVM state is captured
    raw = SessionSnapshot.capture(session, mode="raw")
    blob = raw.to_bytes()
    recipe_blob = SessionSnapshot.capture(session, mode="recipe").to_bytes()
    encode_ms = timer.median_ms(raw.to_bytes, repeats=5)
    decode_ms = timer.median_ms(lambda: SessionSnapshot.from_bytes(blob),
                           repeats=5)
    mib = len(blob) / 2 ** 20
    return {
        "serve.blob_bytes_raw": len(blob),
        "serve.blob_bytes_recipe": len(recipe_blob),
        "serve.codec_encode_mb_per_s": mib / (encode_ms / 1e3),
        "serve.codec_decode_mb_per_s": mib / (decode_ms / 1e3),
    }


# ----------------------------------------------------------------------
# tuning / ag
# ----------------------------------------------------------------------
def _tuning_suite(world: World, timer: Timer) -> dict:
    samples = list(tune_samples(world.seed, 0, 0))[:8]
    steps = 4
    tuner = VanillaPromptTuner(world.model, world.tokenizer,
                               TuningConfig(steps=steps, seed=0))
    return {"tuning.step_ms":
            timer.median_ms(lambda: tuner.fit(samples), repeats=3) / steps}


def _ag_suite(world: World, timer: Timer) -> dict:
    config = world.model.config
    rng = rng_from_seed(SUITE_SEED)
    up = Linear(config.d_model, config.d_ff, rng=rng)
    x = Tensor(rng.normal(size=(8, 1, config.d_model)).astype(np.float32))
    int8 = QuantizedLinear.from_linear(up, bits=8)
    int4 = QuantizedLinear.from_linear(up, bits=4)

    def forward(layer):
        def call():
            with no_grad():
                layer(x)
        return call

    down = Linear(config.d_ff, config.d_model, rng=rng)
    optimizer = Adam(list(up.parameters()) + list(down.parameters()),
                     lr=1e-3)
    target = Tensor(np.zeros((8, 1, config.d_model), dtype=np.float32))

    def train_step():
        optimizer.zero_grad()
        loss = mse_loss(down(gelu(up(x))), target)
        loss.backward()
        optimizer.step()

    return {
        "ag.linear_us_b8": timer.median_ms(forward(up), inner=200) * 1e3,
        "ag.qlinear_int8_us_b8": timer.median_ms(forward(int8), inner=200) * 1e3,
        "ag.qlinear_int4_us_b8": timer.median_ms(forward(int4), inner=200) * 1e3,
        "ag.train_step_ms": timer.median_ms(train_step, inner=50),
    }


# ----------------------------------------------------------------------
# retrieval / nvm
# ----------------------------------------------------------------------
def _retrieval_suite(world: World, timer: Timer) -> dict:
    """``query_batch`` per query against 64 stored OVTs at three widths:
    the batch-8 bump the legacy retrieval bench found must stay visible."""
    deployment = world.engine.session(
        world.engine.active_users()[-1]).deployment()
    config = deployment.config
    rng = rng_from_seed(SUITE_SEED + 1)
    rows = config.search_config().pad_length
    encoded = [rng.normal(size=(rows, config.code_dim)).astype(np.float32)
               for _ in range(64)]
    engine = CiMSearchEngine(get_device(config.device_name),
                             sigma=config.sigma,
                             config=config.search_config(),
                             rng=rng_from_seed(SUITE_SEED + 2))
    engine.build(encoded)
    queries = [rng.normal(size=(rows, config.code_dim)).astype(np.float32)
               for _ in range(32)]
    metrics = {}
    for width, inner in ((1, 20), (8, 4), (32, 2)):
        batch = queries[:width]
        per_batch_ms = timer.median_ms(lambda: engine.query_batch(batch),
                                  inner=inner)
        metrics[f"retrieval.search_us_b{width}"] = per_batch_ms * 1e3 / width
    return metrics


def _nvm_suite(world: World, timer: Timer) -> dict:
    device = get_device(world.engine.config.device_name)
    rng = rng_from_seed(SUITE_SEED + 3)
    metrics = {}
    for n_tiles in (16, 64):
        bank = TileBank(device, n_tiles)
        levels = rng.integers(0, device.n_levels,
                              size=(n_tiles, bank.rows, bank.cols))
        if n_tiles == 64:
            metrics["nvm.program_ms_t64"] = timer.median_ms(
                lambda: bank.program(levels), repeats=3)
        else:
            bank.program(levels)
        chunks = rng.normal(size=(n_tiles, 1, bank.rows)).astype(np.float32)
        metrics[f"nvm.matmat_us_t{n_tiles}"] = timer.median_ms(
            lambda: bank.matmat(chunks), inner=4) * 1e3
        if n_tiles == 64:
            snap = bank.snapshot()
            metrics["nvm.snapshot_ms"] = timer.median_ms(bank.snapshot, repeats=3)
            metrics["nvm.restore_ms"] = timer.median_ms(
                lambda: bank.restore(snap), repeats=3)
    return metrics


# ----------------------------------------------------------------------
# llm
# ----------------------------------------------------------------------
def _token_ids(world: World, length: int, salt: int) -> np.ndarray:
    rng = rng_from_seed(SUITE_SEED + 10 + salt)
    return rng.integers(5, world.tokenizer.vocab_size, size=length)


def _round_ms(model, world: World, *, batch: int, context: int,
              rounds: int = 12) -> float:
    """Median decode-round time with ``batch`` sequences near ``context``."""
    scheduler = DecodeScheduler(model)
    generation = GenerationConfig(max_new_tokens=rounds + 1, temperature=0.0)
    for index in range(batch):
        state = prefill(model, _token_ids(world, context - rounds // 2, index))
        scheduler.admit(state, generation)
    times = []
    while scheduler.has_active:
        started = time.perf_counter()
        scheduler.decode_round()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def _decode_tokens_per_s(model, world: World, timer: Timer,
                         speculative=None, *, batch: int = 8,
                         new_tokens: int = 32):
    """Median tokens/s of draining one batch; prefill is outside the
    timed region.  Returns ``(tokens_per_s, scheduler of the last run)``."""
    rates = []
    for _ in range(1 if timer.quick else 3):
        scheduler = DecodeScheduler(model, speculative=speculative)
        generation = GenerationConfig(max_new_tokens=new_tokens,
                                      temperature=0.0)
        for index in range(batch):
            ids = np.asarray(world.tokenizer.encode(
                world.pools[index % len(world.pools)][0]), dtype=np.int64)
            scheduler.admit(prefill(model, ids), generation, prompt_ids=ids)
        started = time.perf_counter()
        while scheduler.has_active:
            scheduler.decode_round()
        rates.append(scheduler.tokens_emitted
                     / (time.perf_counter() - started))
    return statistics.median(rates), scheduler


def _llm_suite(world: World, timer: Timer) -> dict:
    model = world.model
    metrics = {
        "llm.round_ms_b1_ctx64": _round_ms(model, world, batch=1, context=64),
        "llm.round_ms_b8_ctx64": _round_ms(model, world, batch=8, context=64),
        "llm.round_ms_b8_ctx192": _round_ms(model, world, batch=8,
                                            context=192),
    }
    for length in (32, 128):
        ids = _token_ids(world, length, 100 + length)
        metrics[f"llm.prefill_ms_t{length}"] = timer.median_ms(
            lambda: prefill(model, ids), repeats=5)
    plain, _ = _decode_tokens_per_s(model, world, timer)
    metrics["llm.tokens_per_s_b8"] = plain

    draft = build_draft_model(MODEL_NAME, world.tokenizer.vocab_size)
    prompts = [np.asarray(world.tokenizer.encode(text), dtype=np.int64)
               for text in world.pools[0][:12]]
    distill_draft(draft, model, prompts, max_new_tokens=32,
                  pretrain=PretrainConfig(steps=60, seed=1))
    speculative = SpeculativeDecoder(draft, max_draft=10, threshold=0.3)
    rate, scheduler = _decode_tokens_per_s(model, world, timer,
                                           speculative)
    metrics["llm.spec_tokens_per_s_b8"] = rate
    metrics["llm.spec_acceptance_rate"] = (
        scheduler.draft_accepted / scheduler.draft_proposed
        if scheduler.draft_proposed else 0.0)
    metrics["llm.spec_tokens_per_forward"] = (
        scheduler.tokens_emitted / scheduler.forwards
        if scheduler.forwards else 0.0)

    int8_model = copy.deepcopy(model)
    quantize_model(int8_model, "int8", 32)
    rate, _ = _decode_tokens_per_s(int8_model, world, timer)
    metrics["llm.int8_tokens_per_s_b8"] = rate
    metrics["llm.int8_weight_bytes"] = \
        quantization_stats(int8_model)["weight_bytes"]
    return metrics


def layer_suite(world: World, *, quick: bool = False) -> dict:
    """Every S-kind metric, by name."""
    timer = Timer(quick)
    metrics = {}
    for part in (_gateway_suite, _durability_suite, _tuning_suite, _ag_suite,
                 _retrieval_suite, _nvm_suite, _llm_suite):
        metrics.update(part(world, timer))
    return metrics


# ----------------------------------------------------------------------
# The tour: one of everything, under the tracer
# ----------------------------------------------------------------------
TOUR_QUERIES = 30


def layer_tour(world: World) -> dict:
    """Drive each kind of request once through the (traced) engine.

    Returns what programming one re-tuned library costs in write pulses,
    and the gateway overhead: the p50 of ``TOUR_QUERIES`` HTTP queries
    minus the p50 of the same requests driven in-process through
    ``begin_query`` + ``run_decode_round`` — the calls the gateway's
    worker makes, so the difference is the gateway and nothing else
    (``engine.query`` decodes through a different, slower loop).
    """
    engine = world.engine
    user = engine.active_users()[-1]

    # Write side: one epoch, then the query that re-deploys the library.
    pulses_before = engine.stats()["cim_write_pulses"]
    engine.submit(TuneRequest(user_id=user,
                              samples=tune_samples(world.seed, user, 10_000),
                              request_id="tour-tune"))
    pending = engine.begin_query(QueryRequest(
        user_id=user, text=world.warmup[user].text,
        generation=world.generation, request_id="tour-redeploy"))
    while not pending.done:
        engine.run_decode_round()
    pulses = engine.stats()["cim_write_pulses"] - pulses_before

    # Durability: the spill and restore steps, through the public classes.
    session = engine.session(user)
    blob = SessionSnapshot.capture(session, mode="raw").to_bytes()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tour-", dir=OUT_DIR) as directory:
        store = SessionStore(directory)
        store.put(user, blob)
        SessionSnapshot.from_bytes(store.get(user)).build_session(
            world.model, world.tokenizer)

    # Read side: HTTP and in-process queries in turn, so that a drift in
    # machine speed lands on both.  Every text is new to the prefill
    # cache (the tune above emptied it), on either path.
    pool = world.pool_part(0)[user]
    http_ms, direct_ms = [], []
    with PromptGateway(engine, GatewayConfig(port=0)) as gateway:
        host, port = gateway.address
        with GatewayClient(host, port, retry=NO_RETRY) as client:
            for index in range(TOUR_QUERIES):
                started = time.perf_counter()
                client.query(user, pool[1 + 2 * index],
                             generation=world.generation,
                             request_id=f"tour-http-{index}")
                http_ms.append((time.perf_counter() - started) * 1e3)
                started = time.perf_counter()
                pending = engine.begin_query(QueryRequest(
                    user_id=user, text=pool[2 + 2 * index],
                    generation=world.generation,
                    request_id=f"tour-direct-{index}"))
                while not pending.done:
                    engine.run_decode_round()
                direct_ms.append((time.perf_counter() - started) * 1e3)
    return {"cim.write_pulses_per_tune": pulses,
            "gateway.overhead_p50_ms":
            percentile(http_ms, 50) - percentile(direct_ms, 50)}
