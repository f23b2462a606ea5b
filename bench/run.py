"""Run one cohgraph benchmark workload, or all of them, and print metrics.

    python3 bench/run.py --workload short-cv --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the library is imported from ./src. BLAS
and OpenMP are pinned to one thread before numpy loads. Human-readable lines
go to stdout, and the last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1. `--workload all` runs every workload in a
process of its own and prints each one's lines.
"""

from __future__ import annotations

import os

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("short-cv", "long-d256", "prompts")

# set-up repeats at least this many times and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
MIN_LATENCY_SAMPLES = 100

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (("docs_per_s", "docs/s"), ("doc_ms_p50", "ms"),
              ("doc_ms_p90", "ms"), ("peak_rss_mib", "MiB"), ("setup_s", "s"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> None:
    """Put ./src first on the path; refuse to run without it."""
    if not (SRC / "cohgraph" / "__init__.py").is_file():
        sys.exit(f"error: no cohgraph source at {SRC}; run from the root of "
                 "a cohgraph checkout")
    sys.path.insert(0, str(SRC))
    import cohgraph
    if Path(cohgraph.__file__).resolve().parent != SRC / "cohgraph":
        sys.exit(f"error: cohgraph imported from {cohgraph.__file__}, "
                 f"not from {SRC}")


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(PINNED_THREADS)}


def timed_setups(workload) -> float:
    """Median seconds of repeated full set-ups; the last one is kept."""
    durations = []
    while len(durations) < SETUP_REPEATS or sum(durations) < SETUP_SECONDS:
        started = time.perf_counter()
        workload.setup()
        durations.append(time.perf_counter() - started)
    return statistics.median(durations)


def measure(workload, seconds: float, tally) -> tuple[list[float], list[float]]:
    """Alternate batch rounds and chunks of single-document calls until the
    time is up and at least MIN_LATENCY_SAMPLES latencies were taken.

    Interleaving spreads every metric's samples over the whole run, so a
    slow spell of the machine touches all of them a little instead of one
    of them a lot."""
    started = time.perf_counter()
    rates, latencies = [], []
    while (not rates or len(latencies) < MIN_LATENCY_SAMPLES
           or time.perf_counter() - started < seconds):
        documents, elapsed, samples = workload.batch_round(tally)
        if not elapsed:
            break
        rates.append(documents / elapsed)
        latencies += samples + workload.single_calls(tally)
    return rates, latencies


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, args, tally) -> dict | None:
    setup_s = timed_setups(workload)
    workload.warmup()
    rates, latencies = measure(workload, args.seconds, tally)
    if not rates or len(latencies) < MIN_LATENCY_SAMPLES:
        return None
    values = {"docs_per_s": statistics.median(rates),
              "doc_ms_p50": statistics.median(latencies),
              "doc_ms_p90": statistics.quantiles(latencies, n=10)[8],
              "peak_rss_mib": peak_rss_mib(),
              "setup_s": setup_s}
    print(f"{workload.name}: {len(rates)} batch rounds, "
          f"{len(latencies)} single-document samples")
    for name, value, unit in workload.breakdown():
        print(f"{workload.name} {name:<16} {value:12.4f} {unit} (not gated)")
    print(f"{workload.name} failed_ratio     {tally.failed / tally.attempted:12.4f} "
          f"ratio of {tally.attempted} operations")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_traced(workload, args, tally) -> dict:
    import tracing
    tracer = tracing.Tracer()
    workload.unobserved = tracer.paused
    with tracer.installed():
        workload.setup()
    workload.warmup()
    with tracer.installed():
        traced_s = workload.unit(tally)
    untraced_s = workload.unit(tally)
    probe = workload.probe()
    peaks = tracing.forward_peak_mib(*probe) if probe else {}
    values = tracing.per_layer_metrics(tracer, peaks, traced_s - untraced_s,
                                     untraced_s)
    for line in tracing.format_tree(tracer):
        print(f"{workload.name} | {line}")
    print(f"{workload.name}: tracing overhead {traced_s - untraced_s:.4f} s "
          f"({traced_s:.4f} s traced, {untraced_s:.4f} s untraced)")
    spans_path = BENCH / "out" / f"spans-{workload.name}-{args.seed}.json"
    tracer.write(spans_path, f"{workload.name}-seed{args.seed}")
    print(f"{workload.name}: {len(tracer.spans)} spans -> {spans_path}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in tracing.PER_LAYER_METRICS}


def run_one(args) -> int:
    import_library()
    import workloads
    work_dir = BENCH / ".work"
    work_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tally = workloads.Tally()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine().items()))
    try:
        metrics = (run_traced if args.trace else run_untraced)(workload, args, tally)
    finally:
        workload.corpus_path.unlink(missing_ok=True)
    if metrics is None or not tally.attempted:
        print("error: no complete measurement", file=sys.stderr)
        return 1
    if not args.trace:
        for name, entry in metrics.items():
            print(f"{args.workload} {name:<16} {entry['value']:12.4f} {entry['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a combined summary at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if completed.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {completed.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
