"""Explore NVM technologies: accuracy under each Table II device plus the
latency/energy the CiM search saves over a CPU.

One OVT library is trained once and then deployed on all five devices —
exactly how the paper's Table I reuses the same prompts across NVMs — as
five sessions of one serving engine, queried in a single batch.

Run:  python examples/device_explorer.py
"""

from dataclasses import replace

import numpy as np

from repro import (
    FrameworkConfig,
    GenerationConfig,
    PromptServeEngine,
    QueryRequest,
    available_devices,
    build_corpus,
    build_tokenizer,
    get_device,
    load_pretrained_model,
    make_dataset,
    make_user,
)
from repro.cim import retrieval_cost
from repro.core import OVTTrainingPipeline
from repro.eval import score_output


def main() -> None:
    tokenizer = build_tokenizer()
    corpus = build_corpus(tokenizer, n_sentences=3000, seed=0)
    model = load_pretrained_model("phi-2-sim", corpus, tokenizer.vocab_size,
                                  seed=0)
    dataset = make_dataset("LaMP-2")
    user = make_user(1, seed=0)
    config = FrameworkConfig(buffer_capacity=20, sigma=0.1)

    pipeline = OVTTrainingPipeline(model, tokenizer, config)
    for domain in dataset.user_domains(user):
        for sample in dataset.generate(user, config.buffer_capacity,
                                       seed=3, domains=[domain]):
            pipeline.observe(sample)
    queries = dataset.generate(user, 8, seed=77)
    generation = GenerationConfig(max_new_tokens=6, temperature=0.1,
                                  eos_id=tokenizer.eos_id)

    # One session per device, all serving the same library.
    devices = available_devices()
    engine = PromptServeEngine(model, tokenizer, config,
                               max_sessions=len(devices))
    for arm, device_name in enumerate(devices):
        engine.load_session(arm, pipeline.library,
                            config=replace(config, device_name=device_name))
    responses = engine.answer_batch([
        QueryRequest(user_id=arm, text=q.input_text, generation=generation)
        for arm in range(len(devices)) for q in queries])

    print(f"{'device':8s} {'tech':6s} {'levels':>6s} {'accuracy':>9s}")
    for arm, device_name in enumerate(devices):
        device = get_device(device_name)
        answers = responses[arm * len(queries):(arm + 1) * len(queries)]
        scores = [score_output("accuracy", response.answer, q.target_text)
                  for response, q in zip(answers, queries)]
        print(f"{device_name:8s} {device.kind:6s} {device.n_levels:>6d} "
              f"{np.mean(scores):>9.2f}")

    print("\nretrieval cost at 10,000 stored OVTs (paper Fig. 5 model):")
    for backend in ("RRAM", "FeFET", "CPU"):
        report = retrieval_cost(backend, 10_000)
        print(f"  {backend:6s}: {report.latency_ns / 1e3:10.1f} us   "
              f"{report.energy_pj / 1e6:10.2f} uJ")


if __name__ == "__main__":
    main()
