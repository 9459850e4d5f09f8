"""Noise-aware training in action (paper Eq. 4).

Trains the same user's OVTs twice — with and without noise injection —
and compares what survives an NVM round-trip as device variation grows:
each (training, sigma) arm is one session of a single serving engine and
all arms are queried in one batch.

Run:  python examples/noise_robustness_demo.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    FrameworkConfig,
    GenerationConfig,
    PromptServeEngine,
    QueryRequest,
    build_corpus,
    build_tokenizer,
    load_pretrained_model,
    make_dataset,
    make_user,
)
from repro.core import OVTTrainingPipeline
from repro.eval import score_output

SIGMAS = (0.025, 0.075, 0.125)


def main() -> None:
    tokenizer = build_tokenizer()
    corpus = build_corpus(tokenizer, n_sentences=3000, seed=0)
    model = load_pretrained_model("phi-2-sim", corpus, tokenizer.vocab_size,
                                  seed=0)
    dataset = make_dataset("LaMP-5")
    user = make_user(2, seed=0)
    generation = GenerationConfig(max_new_tokens=8, temperature=0.1,
                                  eos_id=tokenizer.eos_id)
    queries = dataset.generate(user, 8, seed=42)

    libraries = {}
    for noise_aware in (False, True):
        config = FrameworkConfig(buffer_capacity=20, noise_aware=noise_aware)
        pipeline = OVTTrainingPipeline(model, tokenizer, config)
        for domain in dataset.user_domains(user):
            for sample in dataset.generate(user, config.buffer_capacity,
                                           seed=9, domains=[domain]):
                pipeline.observe(sample)
        libraries[noise_aware] = (config, pipeline.library)

    # One session per (sigma, training) arm, in table order.
    arms = [(sigma, noise_aware) for sigma in SIGMAS
            for noise_aware in (False, True)]
    engine = PromptServeEngine(model, tokenizer, max_sessions=len(arms))
    for arm, (sigma, noise_aware) in enumerate(arms):
        config, library = libraries[noise_aware]
        engine.load_session(arm, library,
                            config=replace(config, sigma=sigma))
    responses = engine.answer_batch([
        QueryRequest(user_id=arm, text=q.input_text, generation=generation)
        for arm in range(len(arms)) for q in queries])
    means = {}
    for arm, key in enumerate(arms):
        answers = responses[arm * len(queries):(arm + 1) * len(queries)]
        means[key] = float(np.mean([
            score_output("rouge1", response.answer, q.target_text)
            for response, q in zip(answers, queries)]))

    print(f"{'sigma':>6s} {'plain PT':>10s} {'noise-aware':>12s}")
    for sigma in SIGMAS:
        print(f"{sigma:>6.3f} {means[sigma, False]:>10.3f} "
              f"{means[sigma, True]:>12.3f}")
    print("\n(noise-aware training should hold up better as sigma grows)")


if __name__ == "__main__":
    main()
