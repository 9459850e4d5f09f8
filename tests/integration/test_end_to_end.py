"""End-to-end integration tests: the paper's pipeline on a small scale.

These tests exercise the full stack — pretraining, streaming data through
the buffer, RS, (noise-aware) prompt tuning, autoencoding, NVM storage,
scaled search, restoration, generation and scoring.  The paper's
orderings (method ranking, SSA vs MIPS, sweeps, ablations) are asserted in
``tests/eval/test_scorecard.py``; what stays here checks the plumbing.
"""

import numpy as np
import pytest

from repro.core import FrameworkConfig, NVCiMDeployment
from repro.eval import score_output
from repro.eval.runner import ExperimentContext, TABLE1_METHODS, evaluate_method
from repro.llm.generation import generate
from repro.serve import PromptServeEngine
from repro.tuning import TuningConfig
from tests.engine_calls import answer_text
from tests.oracles.retrieval import retrieve


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=0, corpus_sentences=1500, n_queries=8)


FAST_TUNING = TuningConfig(steps=25, lr=0.05)


def fast_config(**overrides):
    defaults = dict(buffer_capacity=12, device_name="NVM-3", sigma=0.1,
                    tuning=FAST_TUNING, seed=0)
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


class TestMethodRegistry:
    def test_six_table1_methods(self):
        names = [m.name for m in TABLE1_METHODS]
        assert names == ["SWV", "CxDNN", "CorrectNet", "No-Miti(MIPS)",
                         "NVP*(MIPS)", "NVCiM-PT"]

    def test_nvcim_pt_combines_nt_and_ssa(self):
        spec = TABLE1_METHODS[-1]
        assert spec.noise_aware and spec.retrieval == "ssa"
        assert spec.mitigation == "none"


class TestUserTaskProtocol:
    def test_stream_covers_domains_in_sessions(self, ctx):
        task = ctx.user_task("LaMP-2", 0, 12)
        domains = task.dataset.user_domains(task.user)
        assert len(task.training_stream) == 12 * len(domains)
        # First session is single-domain (the paper's domain-shift setting).
        first = {s.domain for s in task.training_stream[:12]}
        assert len(first) == 1

    def test_last_buffer_is_final_session(self, ctx):
        task = ctx.user_task("LaMP-2", 0, 12)
        assert len(task.last_buffer) == 12
        assert {s.domain for s in task.last_buffer} == {
            task.dataset.user_domains(task.user)[-1]}

    def test_queries_span_domains(self, ctx):
        task = ctx.user_task("LaMP-2", 1, 12)
        assert len({q.domain for q in task.queries}) > 1


class TestEndToEnd:
    def test_nvcim_pt_beats_zero_shot_on_lamp2(self, ctx):
        """The framework must actually personalise the model."""
        config = fast_config()
        model = ctx.model("phi-2-sim")
        generation = ctx.generation_config()
        task = ctx.user_task("LaMP-2", 0, config.buffer_capacity)
        library = ctx.library("phi-2-sim", "LaMP-2", 0, config)
        engine = PromptServeEngine(model, ctx.tokenizer, config)
        engine.load_session(0, library)
        framework, zero_shot = [], []
        for query in task.queries:
            out = answer_text(engine, 0, query.input_text, generation)
            framework.append(score_output("accuracy", out, query.target_text))
            base = ctx.tokenizer.decode(
                generate(model, ctx.tokenizer.encode(query.input_text),
                         generation))
            zero_shot.append(score_output("accuracy", base, query.target_text))
        assert np.mean(framework) > np.mean(zero_shot)

    def test_evaluate_method_returns_unit_interval(self, ctx):
        score = evaluate_method(ctx, "phi-2-sim", "LaMP-2", TABLE1_METHODS[-1],
                                fast_config(), user_ids=(0,))
        assert 0.0 <= score <= 1.0

    def test_library_cache_reuses_training(self, ctx):
        config = fast_config()
        a = ctx.library("phi-2-sim", "LaMP-2", 0, config)
        b = ctx.library("phi-2-sim", "LaMP-2", 0, config)
        assert a is b

    def test_library_differs_for_noise_aware(self, ctx):
        from dataclasses import replace
        config = fast_config()
        plain = replace(config, noise_aware=False)
        a = ctx.library("phi-2-sim", "LaMP-2", 0, config)
        b = ctx.library("phi-2-sim", "LaMP-2", 0, plain)
        assert a is not b
        # sigma only reaches training through noise injection
        assert ctx.library("phi-2-sim", "LaMP-2", 0,
                           replace(plain, sigma=0.15)) is b
        assert ctx.library("phi-2-sim", "LaMP-2", 0,
                           replace(config, sigma=0.15)) is not a

    def test_deployments_reuse_library_across_devices(self, ctx):
        from dataclasses import replace
        config = fast_config()
        library = ctx.library("phi-2-sim", "LaMP-2", 1, config)
        model = ctx.model("phi-2-sim")
        for device in ("NVM-1", "NVM-4"):
            deployment = NVCiMDeployment(model, ctx.tokenizer, library,
                                         replace(config, device_name=device))
            assert deployment.engine.n_stored == len(library.ovts)

    def test_binary_device_stores_and_retrieves(self, ctx):
        from dataclasses import replace
        config = replace(fast_config(), device_name="NVM-1")
        library = ctx.library("phi-2-sim", "LaMP-2", 0, fast_config())
        deployment = NVCiMDeployment(ctx.model("phi-2-sim"), ctx.tokenizer,
                                     library, config)
        index = retrieve(deployment, "movie about robot space tag")
        assert 0 <= index < len(library.ovts)

    def test_generation_task_end_to_end(self, ctx):
        config = fast_config()
        task = ctx.user_task("LaMP-5", 0, config.buffer_capacity)
        library = ctx.library("phi-2-sim", "LaMP-5", 0, config)
        engine = PromptServeEngine(ctx.model("phi-2-sim"), ctx.tokenizer,
                                   config)
        engine.load_session(0, library)
        out = answer_text(engine, 0, task.queries[0].input_text,
                          ctx.generation_config())
        assert isinstance(out, str) and out


class TestPaperShapeProperties:
    def test_restore_noise_grows_with_sigma(self, ctx):
        from dataclasses import replace
        config = fast_config()
        library = ctx.library("phi-2-sim", "LaMP-2", 0, config)
        model = ctx.model("phi-2-sim")
        errors = []
        for sigma in (0.025, 0.15):
            deployment = NVCiMDeployment(model, ctx.tokenizer, library,
                                         replace(config, sigma=sigma))
            clean = library.ovts[0].matrix
            restored = deployment.restored_prompt(0)
            errors.append(float(np.abs(restored - clean).mean()))
        assert errors[0] < errors[1]
