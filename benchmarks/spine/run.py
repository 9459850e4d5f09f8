"""The measurement spine's one command.

Contract mode (what the driver runs; one workload, one process)::

    python3 benchmarks/spine/run.py --workload resident_chat --seed 0 \
        --seconds 15 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/spine/run.py --workload resident_chat --seed 0 \
        --seconds 15 --trace 1        # per-layer metrics, traced pass

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Suite mode (no ``--workload``) runs every workload in a fresh subprocess
each, ``--repeats`` times with the one ``--seed`` (so the spread it prints
is the machine's, not the inputs'), optionally followed by the traced pass
(``--traced``), and writes one result file for ``compare.py``.
``--smoke`` is the seconds-long version of the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spine  # noqa: E402,F401  (pins BLAS before numpy loads)
from spine import OUT_DIR, SRC_DIR  # noqa: E402
from spine.catalog import END_TO_END, PER_LAYER, RUN_SECONDS  # noqa: E402

# The fixed-work phases of a traced run and their shares of --seconds.
TRACED_PHASES = (("warm", 0.08), ("untraced-a", 0.16), ("traced", 0.40),
                 ("untraced-b", 0.16))
CHILD_TIMEOUT_S = 170.0


def _units(catalogue) -> dict:
    return {metric.name: metric.unit for metric in catalogue}


def _print_metrics(title: str, metrics: dict, units: dict,
                   counts: dict | None = None) -> None:
    print(f"\n== {title}")
    for name, value in metrics.items():
        note = f"   (n={counts[name]})" if counts and name in counts else ""
        print(f"  {name:<34} {value:>16.6g} {units.get(name, ''):<6}{note}")


def run_single(args) -> int:
    """One workload in this process; prints the contract's result line."""
    import dataclasses

    from spine.workloads import WORKLOADS
    from spine.world import build_world

    workload = WORKLOADS[args.workload]
    spec = workload.spec
    if args.smoke:
        spec = dataclasses.replace(
            spec, n_users=spec.n_users // 2,
            max_sessions=max(1, spec.max_sessions // 2),
            corpus_sentences=200, pretrain_steps=20)
    world = build_world(spec, args.seed)
    try:
        return _measure(args, workload, world)
    finally:
        world.close()


def _measure(args, workload, world) -> int:
    from spine import measure, metrics as spine_metrics
    from spine.layers import layer_suite, layer_tour
    from spine.tracing import Tracer
    from spine.workloads import Budget

    traced_run = args.trace == 1
    # Calibration and fingerprint go to the detail file only, so a bare
    # contract run does not pay for them.
    calib_before = measure.calibrate() if args.detail else None
    detail = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "setup_s": world.setup_s}

    if not traced_run:
        observation = workload.run(world, Budget(seconds=args.seconds))
        peak_rss = measure.peak_rss_mib()
        values, counts = spine_metrics.end_to_end_metrics(
            workload, world, observation, peak_rss, strict=not args.smoke)
        detail["sample_counts"] = counts
        detail["diagnostics"] = spine_metrics.diagnostics(world, observation)
        units = _units(END_TO_END)
    else:
        # Fixed work, so counts repeat.  The untraced phases on either
        # side of the traced one cancel a drift in machine speed out of
        # the overhead estimate; the first phase only warms caches.
        tracer = Tracer()
        phases = {}
        for part, (label, share) in enumerate(TRACED_PHASES):
            traced_phase = label == "traced"
            if traced_phase:
                tracer.install()
                tracer.phase, tracer.enabled = "workload", True
            try:
                phases[label] = workload.run(
                    world, Budget(units=workload.fixed_units(args.seconds,
                                                             share)),
                    label=label, part=part)
            finally:
                tracer.remove()
        observation = phases["traced"]
        untraced = [phases["untraced-a"], phases["untraced-b"]]
        attempted, failures = workload.verify(world, observation)
        with tracer:
            tracer.phase, tracer.enabled = "tour", True
            tour = layer_tour(world)
        suite = layer_suite(world, quick=args.smoke)
        values = spine_metrics.per_layer_metrics(
            workload, world, untraced, observation, tracer.spans, suite,
            tour)
        counts = None
        detail["exact_counts"] = spine_metrics.exact_counts(
            world, observation)
        detail["spans"] = len(tracer.spans)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{workload.name}-{args.seed}.json")
        units = _units(PER_LAYER)

    if args.detail:
        detail["fingerprint"] = measure.fingerprint()
        detail["calibration"] = measure.calibration_drift(
            calib_before, measure.calibrate())
    if not traced_run:
        attempted, failures = workload.verify(world, observation)
    attempted = max(attempted, 1)
    failed = min(len(failures), attempted)
    detail.update({"attempted": attempted, "failed": failed,
                   "failed_share": failed / attempted,
                   "failures": failures[:20], "metrics": values})

    _print_metrics(f"{workload.name}  seed={args.seed}  "
                   f"{'per-layer (traced)' if traced_run else 'end-to-end'}",
                   values, units, counts)
    for key in ("diagnostics", "exact_counts", "calibration"):
        if key in detail:
            print(f"  {key}: {json.dumps(detail[key], sort_keys=True)}")
    if detail.get("calibration", {}).get("noisy"):
        print("  NOISY: calibration drifted more than 10% across the run")
    for message in failures[:20]:
        print(f"  FAIL {message}")
    print(f"  attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.6f}")
    if args.detail:
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        Path(args.detail).write_text(json.dumps(detail, indent=1),
                                     encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Suite mode
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail_path = OUT_DIR / f"detail-{workload}-{seed}-{trace}.json"
    detail_path.unlink(missing_ok=True)   # a repeat's, not this run's
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail", str(detail_path)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - started
    if not detail_path.exists():
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} produced no result "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}\n"
            f"{done.stderr[-2000:]}")
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    detail["process_wall_s"] = elapsed
    detail["exit_code"] = done.returncode
    return detail


def run_suite(args) -> int:
    from spine import measure
    from spine.workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(RUN_SECONDS))
    result = {"fingerprint": measure.fingerprint(), "seconds": seconds,
              "smoke": args.smoke, "seed": args.seed,
              "repeats": args.repeats, "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        entry = {"runs": [], "traced": None}
        for repeat in range(args.repeats):
            detail = _child(name, args.seed, seconds, 0, args.smoke)
            entry["runs"].append(detail)
            failed += detail["failed"] + (detail["exit_code"] != 0)
            print(f"{name:<20} run {repeat}: "
                  + "  ".join(f"{k}={v:.4g}"
                              for k, v in detail["metrics"].items())
                  + f"  failed_share={detail['failed_share']:.4g}"
                  + ("  NOISY" if detail["calibration"]["noisy"] else ""))
        if args.traced or args.smoke:
            detail = _child(name, args.seed, seconds, 1, args.smoke)
            entry["traced"] = detail
            failed += detail["failed"] + (detail["exit_code"] != 0)
            print(f"{name:<20} traced: {detail['spans']} spans, "
                  f"coverage {detail['metrics']['trace.coverage_share']:.3f},"
                  f" overhead {detail['metrics']['trace.overhead_share']:.3f}")
        result["workloads"][name] = entry

    chat = result["workloads"].get("resident_chat")
    tune = result["workloads"].get("tune_while_serving")
    if chat and tune:
        # The stall a tune imposes on a query: only visible across two
        # workloads, so it lives here and not in a per-run metric.
        result["serve.tune_stall_p90_ms"] = (
            _median_of(tune, "query_p90_ms")
            - _median_of(chat, "query_p90_ms"))
        print(f"serve.tune_stall_p90_ms = "
              f"{result['serve.tune_stall_p90_ms']:.3f} ms")
    if args.repeats >= 4:
        print("\nspread = (q3 - q1) / median over the repeats")
        for name, entry in result["workloads"].items():
            for metric in END_TO_END:
                values = [run["metrics"][metric.name]
                          for run in entry["runs"]]
                print(f"  {name:<20} {metric.name:<16} "
                      f"median {statistics.median(values):>12.5g} "
                      f"{metric.unit:<6} "
                      f"spread {measure.spread(values):.4f}  "
                      f"bound {metric.bound}")
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"wrote {out}")
    print("FAILED" if failed else "OK")
    return 1 if failed else 0


def _median_of(entry: dict, metric: str) -> float:
    return statistics.median(run["metrics"][metric]
                             for run in entry["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run this one workload in-process (contract "
                             "mode); omit to run the whole suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long run at reduced scale, all checks")
    parser.add_argument("--detail", default=None,
                        help="also write this run's full detail JSON here")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the traced pass of every workload")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite: end-to-end runs per workload, all with "
                             "--seed")
    parser.add_argument("--out", default=None,
                        help="suite: result file (default out/result.json)")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "repro").is_dir():
        # The program under test is built from this checkout's sources;
        # without them there is nothing to measure and no result to print.
        print(f"no program to benchmark: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    from spine.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(RUN_SECONDS)
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
