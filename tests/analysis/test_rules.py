"""Fixture matrix for every lint rule: true positive, true negative,
and suppressed case, each run against a tiny on-disk tree."""

import textwrap

from repro.analysis import RULES, run_analysis


def run_tree(tmp_path, files, rule_ids=None):
    """Write ``{relpath: source}`` under ``tmp_path/repro`` and analyze it."""
    root = tmp_path / "repro"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    rules = ({rid: RULES[rid] for rid in rule_ids}
             if rule_ids is not None else None)
    return run_analysis(root, rules=rules)


def rules_of(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# RNG-001: np.random outside utils
# ----------------------------------------------------------------------
class TestRng001:
    def test_true_positive_seedless_seeded_and_legacy(self, tmp_path):
        report = run_tree(tmp_path, {"llm/bad.py": """\
            import numpy as np
            a = np.random.default_rng()
            b = np.random.default_rng(0)
            c = np.random.normal(0.0, 1.0)
        """}, ["RNG-001"])
        assert rules_of(report) == ["RNG-001"] * 3
        assert [f.line for f in report.findings] == [2, 3, 4]

    def test_true_negative_utils_and_injected(self, tmp_path):
        report = run_tree(tmp_path, {
            # utils itself is the one place default_rng may live
            "utils/rng.py": """\
                import numpy as np
                def rng_from_seed(seed):
                    return np.random.default_rng(int(seed))
            """,
            "llm/good.py": """\
                from ..utils import rng_from_seed
                def init(rng=None):
                    rng = rng or rng_from_seed(0)
                    return rng.normal(size=3)
            """,
        }, ["RNG-001"])
        assert report.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        report = run_tree(tmp_path, {"cim/ok.py": """\
            import numpy as np
            r = np.random.default_rng(0)  # repro: noqa[RNG-001] never drawn
        """}, ["RNG-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "never drawn"


# ----------------------------------------------------------------------
# RNG-002: stdlib random / wall clock in deterministic paths
# ----------------------------------------------------------------------
class TestRng002:
    def test_true_positive_in_serve(self, tmp_path):
        report = run_tree(tmp_path, {"serve/bad.py": """\
            import random
            import time
            import datetime
            def jitter():
                return random.random() + time.time()
            def stamp():
                return datetime.datetime.now()
        """}, ["RNG-002"])
        found = rules_of(report)
        assert found == ["RNG-002"] * 4  # import, call, time.time, now
        messages = " ".join(f.message for f in report.findings)
        assert "wall clock" in messages

    def test_true_negative_outside_and_monotonic(self, tmp_path):
        report = run_tree(tmp_path, {
            # eval/ is not a deterministic path: wall clocks allowed
            "eval/ok.py": "import time\nt = time.time()\n",
            # perf_counter feeds telemetry, never token streams
            "serve/ok.py": "import time\nt = time.perf_counter()\n",
        }, ["RNG-002"])
        assert report.findings == []

    def test_suppressed_in_gateway_with_reason(self, tmp_path):
        report = run_tree(tmp_path, {"gateway/ok.py": """\
            import time
            def deadline():
                return time.time() + 1.0  # repro: noqa[RNG-002] wire deadline
        """}, ["RNG-002"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# LOCK-001: public mutations under self._lock
# ----------------------------------------------------------------------
class TestLock001:
    def test_true_positive_unlocked_public_mutation(self, tmp_path):
        report = run_tree(tmp_path, {"serve/bad.py": """\
            import threading
            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.count = 0
                def bump(self):
                    self.count += 1
        """}, ["LOCK-001"])
        assert rules_of(report) == ["LOCK-001"]
        assert "bump" in report.findings[0].message

    def test_true_negative_locked_private_and_helper(self, tmp_path):
        report = run_tree(tmp_path, {"serve/good.py": """\
            import threading
            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.count = 0
                def bump(self):
                    with self._lock:
                        self.count += 1
                def bump_via_helper(self):
                    self._bump_locked()
                def _internal(self):
                    self.count += 1  # private: caller holds the lock
                def _bump_locked(self):
                    self.count += 1
        """}, ["LOCK-001"])
        assert report.findings == []

    def test_named_classes_checked_even_without_lock(self, tmp_path):
        report = run_tree(tmp_path, {"serve/facade.py": """\
            class PromptServeEngine:
                def reset(self):
                    self.count = 0
        """}, ["LOCK-001"])
        assert rules_of(report) == ["LOCK-001"]

    def test_suppressed(self, tmp_path):
        report = run_tree(tmp_path, {"serve/ok.py": """\
            import threading
            class Engine:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.count = 0
                def bump(self):
                    self.count += 1  # repro: noqa[LOCK-001] single-threaded
        """}, ["LOCK-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# LOCK-002: no training under self._lock
# ----------------------------------------------------------------------
class TestLock002:
    def test_true_positive_epoch_under_the_lock(self, tmp_path):
        report = run_tree(tmp_path, {"serve/bad.py": """\
            class PromptServeEngine:
                def submit(self, request):
                    with self._lock:
                        session = self.session(request.user_id)
                        epochs = session.extend(list(request.samples))
                def observe(self, user_id, sample):
                    with self._lock:
                        return self.session(user_id).observe(sample)
                def tune(self, request):
                    with self._lock:
                        fork = self._sessions[0].prepare(request.samples)
                        self.submit(request)
        """}, ["LOCK-002"])
        assert rules_of(report) == ["LOCK-002"] * 4
        assert [f.line for f in report.findings] == [5, 8, 11, 12]
        assert ".extend()" in report.findings[0].message

    def test_true_negative_prepare_off_lock_publish_under_it(self, tmp_path):
        report = run_tree(tmp_path, {"serve/good.py": """\
            class PromptServeEngine:
                def submit(self, request):
                    with self._lock:
                        session = self.session(request.user_id)
                        self._pending.extend([])      # a list, not a tune
                    fork, epochs = session.prepare(request.samples)
                    with self._lock:
                        session.publish(fork, epochs)
                        session.deployment()          # programming is allowed
                def observe(self, user_id, sample):
                    return self.submit(sample)
        """}, ["LOCK-002"])
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run_tree(tmp_path, {"serve/ok.py": """\
            class Engine:
                def warm(self, session, samples):
                    with self._lock:
                        session.extend(samples)  # repro: noqa[LOCK-002] offline
        """}, ["LOCK-002"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# SNAP-001: snapshot completeness
# ----------------------------------------------------------------------
class TestSnap001:
    def test_true_positive_missing_attribute(self, tmp_path):
        report = run_tree(tmp_path, {"nvm/bad.py": """\
            class Bank:
                def __init__(self):
                    self.levels = []
                    self.new_counter = 0
                def snapshot(self):
                    return {"levels": self.levels}
                def restore(self, snap):
                    self.levels = snap["levels"]
        """}, ["SNAP-001"])
        assert rules_of(report) == ["SNAP-001"]
        assert "new_counter" in report.findings[0].message

    def test_true_negative_covered_string_key_and_excluded(self, tmp_path):
        report = run_tree(tmp_path, {"nvm/good.py": """\
            class Bank:
                _SNAPSHOT_EXCLUDED = ("device",)
                def __init__(self, device):
                    self.device = device
                    self.levels = []
                    self.count = 0
                def snapshot(self):
                    return {"levels": self.levels, "count": self.count}
                def restore(self, snap):
                    for name in ("levels", "count"):
                        setattr(self, name, snap[name])
        """}, ["SNAP-001"])
        assert report.findings == []

    def test_no_snapshot_method_means_no_contract(self, tmp_path):
        report = run_tree(tmp_path, {"nvm/plain.py": """\
            class Plain:
                def __init__(self):
                    self.anything = 1
        """}, ["SNAP-001"])
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run_tree(tmp_path, {"nvm/ok.py": """\
            class Bank:
                def __init__(self):
                    self.levels = []
                    self.scratch = None  # repro: noqa[SNAP-001] rebuilt lazily
                def snapshot(self):
                    return {"levels": self.levels}
        """}, ["SNAP-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# SEC-001: no pickle / eval / exec
# ----------------------------------------------------------------------
class TestSec001:
    def test_true_positive_pickle_eval_np_load(self, tmp_path):
        report = run_tree(tmp_path, {"serve/bad.py": """\
            import pickle
            import numpy as np
            def load(blob, path):
                a = pickle.loads(blob)
                b = eval("1 + 1")
                c = np.load(path, allow_pickle=True)
                return a, b, c
        """}, ["SEC-001"])
        assert rules_of(report) == ["SEC-001"] * 4

    def test_true_negative_typed_codec(self, tmp_path):
        report = run_tree(tmp_path, {"serve/good.py": """\
            import json
            import numpy as np
            def load(blob, path):
                return json.loads(blob), np.load(path, allow_pickle=False)
        """}, ["SEC-001"])
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run_tree(tmp_path, {"eval/ok.py": """\
            import marshal  # repro: noqa[SEC-001] compat shim, never loads
        """}, ["SEC-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# STATS-001: stats() keys declared in the manifest
# ----------------------------------------------------------------------
MANIFEST = """\
    STATS_MANIFEST = {
        "requests": "additive",
        "cap": "capacity",
        "rate": ("ratio", "requests", "cap"),
    }
"""


class TestStats001:
    def test_true_positive_undeclared_key(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/stats_manifest.py": MANIFEST,
            "serve/engine.py": """\
                class PromptServeEngine:
                    def stats(self):
                        out = {"requests": 1}
                        out["mystery"] = 2
                        return out
            """,
        }, ["STATS-001"])
        assert rules_of(report) == ["STATS-001"]
        assert "mystery" in report.findings[0].message

    def test_true_negative_all_declared(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/stats_manifest.py": MANIFEST,
            "serve/engine.py": """\
                class PromptServeEngine:
                    def stats(self):
                        return {"requests": 1, "cap": None, "rate": 0.0}
            """,
        }, ["STATS-001"])
        assert report.findings == []

    def test_missing_manifest_is_a_finding(self, tmp_path):
        report = run_tree(tmp_path, {"serve/engine.py": """\
            class PromptServeEngine:
                def stats(self):
                    return {"requests": 1}
        """}, ["STATS-001"])
        assert rules_of(report) == ["STATS-001"]
        assert "missing" in report.findings[0].message

    def test_non_literal_manifest_is_a_finding(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/stats_manifest.py":
                "STATS_MANIFEST = dict(requests='additive')\n",
        }, ["STATS-001"])
        assert rules_of(report) == ["STATS-001"]

    def test_bad_ratio_reference_is_a_finding(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/stats_manifest.py": """\
                STATS_MANIFEST = {
                    "rate": ("ratio", "requests", "missing_den"),
                }
            """,
        }, ["STATS-001"])
        assert rules_of(report) == ["STATS-001"]

    def test_suppressed(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/stats_manifest.py": MANIFEST,
            "serve/engine.py": """\
                class PromptServeEngine:
                    def stats(self):
                        return {"debug": 1}  # repro: noqa[STATS-001] local
            """,
        }, ["STATS-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# INF-001: no autograd on the inference path
# ----------------------------------------------------------------------
class TestInf001:
    def test_true_positive_every_mark_of_a_second_decode_loop(self, tmp_path):
        report = run_tree(tmp_path, {"llm/generation.py": """\
            from ..ag import Tensor, no_grad
            def decode(model, ids, cache, use_cache=True):
                with no_grad():
                    out = model(ids, past_kv=cache)
                return Tensor(out)
        """}, ["INF-001"])
        assert rules_of(report) == ["INF-001"] * 5
        # import, parameter, no_grad(), past_kv=, Tensor(...)
        assert [f.line for f in report.findings] == [1, 2, 3, 4, 5]

    def test_true_negative_arrays_and_training_code(self, tmp_path):
        report = run_tree(tmp_path, {
            # ndarray prefixes and prompts are read as they are
            "serve/engine.py": """\
                import numpy as np
                def rows(model, prompt):
                    return np.asarray(prompt, dtype=np.float32)
            """,
            # distill_draft trains: exempt inside an inference module
            "llm/speculative.py": """\
                from ..ag import Tensor
                def distill_draft(draft, stream):
                    return draft(Tensor(stream))
            """,
            # modules off the inference path are out of scope
            "llm/transformer.py": """\
                from ..ag import Tensor, no_grad
                def forward(x):
                    with no_grad():
                        return Tensor(x)
            """,
        }, ["INF-001"])
        assert report.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        report = run_tree(tmp_path, {"gateway/debug.py": """\
            from ..ag import Tensor
            def wrap(x):
                return Tensor(x)  # repro: noqa[INF-001] debug endpoint
        """}, ["INF-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# TUNE-001: no autograd graph on the tune path
# ----------------------------------------------------------------------
class TestTune001:
    def test_true_positive_graph_and_backward(self, tmp_path):
        report = run_tree(tmp_path, {
            "compression/autoencoder.py": """\
                from ..ag import Tensor
                def fit(self, rows):
                    loss = self.loss(Tensor(rows))
                    loss.backward()
            """,
            "tuning/vanilla.py": """\
                from .. import ag
                def step(prompt):
                    ag.Tensor(prompt).sum().backward()
            """,
        }, ["TUNE-001"])
        assert rules_of(report) == ["TUNE-001"] * 4
        assert sorted((f.file, f.line) for f in report.findings) == [
            ("repro/compression/autoencoder.py", 3),
            ("repro/compression/autoencoder.py", 4),
            ("repro/tuning/vanilla.py", 3),
            ("repro/tuning/vanilla.py", 3)]

    def test_true_positive_baselines_and_pretraining(self, tmp_path):
        """Every module under tuning/ and pretraining (which distillation
        runs) are training paths too."""
        report = run_tree(tmp_path, {
            "tuning/prefix.py": """\
                def step(loss):
                    loss.backward()
            """,
            "tuning/some_new_method.py": """\
                from ..ag import Tensor
                def step(prompt):
                    return Tensor(prompt)
            """,
            "llm/pretrain.py": """\
                def step(model, ids, targets):
                    loss = model.loss(ids, targets)
                    loss.backward()
            """,
        }, ["TUNE-001"])
        assert sorted((f.file, f.line) for f in report.findings) == [
            ("repro/llm/pretrain.py", 3),
            ("repro/tuning/prefix.py", 2),
            ("repro/tuning/some_new_method.py", 3)]

    def test_true_negative_array_code_and_other_modules(self, tmp_path):
        report = run_tree(tmp_path, {
            # reading a Tensor and writing .grad by hand are fine
            "core/noise_training.py": """\
                def step(prompt, grad):
                    prompt.grad = grad
                    return prompt.data
            """,
            # the rule covers training, not every module of llm/
            "llm/registry.py": """\
                from ..ag import Tensor
                def wrap(x):
                    return Tensor(x).backward()
            """,
        }, ["TUNE-001"])
        assert report.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        report = run_tree(tmp_path, {"core/framework.py": """\
            from ..ag import Tensor
            def debug(x):
                return Tensor(x)  # repro: noqa[TUNE-001] debug helper
        """}, ["TUNE-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1


# ----------------------------------------------------------------------
# MODEL-001: the shared base model is read-only after set-up
# ----------------------------------------------------------------------
class TestModel001:
    def test_true_positive_convert_flip_and_swap(self, tmp_path):
        report = run_tree(tmp_path, {
            "serve/engine.py": """\
                from ..llm import quantization
                from ..llm.quantization import quantize_model
                def __init__(self, model, draft):
                    quantize_model(model, "int8")
                    quantization.quantize_model_weights(draft, bits=4)
            """,
            "tuning/trainer.py": """\
                def freeze(model):
                    for p in model.parameters():
                        p.requires_grad = False
                    first, model.lm_head.weight.requires_grad = 0, True
            """,
            "tuning/apply.py": """\
                def shift(model, delta):
                    model.token_embedding.weight.data = delta
                    model.blocks[0].ff1.bias.data += delta
                    model.ln_final.weight.data[0] = 1.0
            """,
            "gateway/server.py": """\
                def admin(layer, value):
                    layer.weight.data: object = value
            """,
            "core/framework.py": """\
                def deploy(self):
                    self.model.lm_head.weight.data, self.ready = None, True
            """,
        }, ["MODEL-001"])
        assert rules_of(report) == ["MODEL-001"] * 9
        assert sorted((f.file, f.line) for f in report.findings) == [
            ("repro/core/framework.py", 2),
            ("repro/gateway/server.py", 2),
            ("repro/serve/engine.py", 4),
            ("repro/serve/engine.py", 5),
            ("repro/tuning/apply.py", 2),
            ("repro/tuning/apply.py", 3),
            ("repro/tuning/apply.py", 4),
            ("repro/tuning/trainer.py", 3),
            ("repro/tuning/trainer.py", 4)]

    def test_true_negative_owner_copies_and_prompts(self, tmp_path):
        report = run_tree(tmp_path, {
            # the model's owner builds, trains and converts it
            "llm/pretrain.py": """\
                def pretrain_lm(model):
                    for p in model.parameters():
                        p.requires_grad = True
                    model.lm_head.weight.data = model.lm_head.weight.data * 2
            """,
            "llm/registry.py": """\
                from .quantization import quantize_model_weights
                def load(model):
                    quantize_model_weights(model, bits=4)
            """,
            # reading weights, a variant built on a copy, a fresh prompt
            # Parameter's own data, and importing the converter are fine
            "tuning/apply.py": """\
                import copy
                from ..ag import Tensor
                from ..llm import quantize_model
                def shifted(model, delta):
                    table = model.token_embedding.weight.data
                    embedding = copy.copy(model.token_embedding)
                    embedding.weight = Tensor(table + delta)
                    return embedding
            """,
            "tuning/vanilla.py": """\
                def step(prompt, grad, lr):
                    prompt.data = prompt.data - lr * grad
                    prompt.grad = grad
            """,
            "serve/engine.py": """\
                def footprint(model):
                    return model.lm_head.weight.data.nbytes
            """,
        }, ["MODEL-001"])
        assert report.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        report = run_tree(tmp_path, {"serve/debug.py": """\
            from ..llm import quantize_model
            def convert(model):
                return quantize_model(model, "int8")  # repro: noqa[MODEL-001] private copy
        """}, ["MODEL-001"])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "private copy"


# ----------------------------------------------------------------------
# The rule table
# ----------------------------------------------------------------------
def test_all_shipped_rules_registered():
    assert sorted(RULES) == ["INF-001", "LOCK-001", "LOCK-002", "MODEL-001",
                             "RNG-001", "RNG-002", "SEC-001", "SNAP-001",
                             "STATS-001", "TUNE-001"]
    assert all(rule.rule_id == rule_id for rule_id, rule in RULES.items())
