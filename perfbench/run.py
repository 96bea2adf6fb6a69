"""edgeswarm benchmark: one workload, closed loop, one JSON line at the end.

    python3 perfbench/run.py --workload fig5-cli --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` a single client issues the workload's operations back
to back, each only after the previous one returned, for ``--seconds``,
checks every output and reports the end-to-end metrics. With
``--trace 1`` it instead runs traced passes and reports the per-layer
metrics (see perfbench/README.md). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 31


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for "end_to_end" and "per_layer", as declared
    in BENCHMARK.json: the one place names and units are defined."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in declared[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def timed_run(es, wl, seconds: float, setup):
    """Closed loop over whole cycles of the workload's ops for ``seconds``.

    An untimed reference cycle comes first: its outputs are checked
    against the workload's expectations, it counts each op's trace
    events, and it warms caches. Every timed op must then reproduce its
    reference output exactly. Between cycles, spread evenly over the run,
    ``setup()`` is repeated and returns its duration; the ops keep using
    the program they were built with, and the loop's time excludes set-up.
    """
    counter = tracing.Tracer()
    reference, events = [], []
    with tracing.patched(es, counter) as missing:
        for _, call in wl.ops:
            before = counter.counts["sim.trace_events"]
            reference.append(call())
            events.append(counter.counts["sim.trace_events"] - before)
    flagged = wl.check(reference, False)
    problems = [f"{wl.ops[op][0]}: {message}" for op, message in flagged] + missing
    bad_ops = {op for op, _ in flagged}
    if not wl.check(reference, True):
        problems.append("self-test: the output check missed a wrong value")
    keys = [workloads.result_key(out) for out in reference]
    del reference, counter
    gc.collect()

    durations: list[float] = []
    setup_times: list[float] = []
    cycles = failed = 0
    elapsed = 0.0
    clock = time.perf_counter
    while True:
        started = clock()
        for op, ((label, call), key) in enumerate(zip(wl.ops, keys)):
            began = clock()
            try:
                out = call()
            except Exception:  # an op that raises counts as failed
                durations.append(clock() - began)
                failed += 1
                if failed == 1:
                    traceback.print_exc()
                continue
            durations.append(clock() - began)
            if op in bad_ops:
                failed += 1
            elif workloads.result_key(out) != key:
                failed += 1
                problems.append(f"{label}: output differs from the reference cycle")
        cycles += 1
        elapsed += clock() - started
        if elapsed >= seconds:
            break
        # Host speed drifts over seconds, so set-up is sampled across the
        # whole run rather than timed in one burst.
        if elapsed >= seconds * len(setup_times) / SETUP_REPS:
            setup_times.append(setup())
            gc.collect()
    while len(setup_times) < SETUP_REPS:
        setup_times.append(setup())

    durations.sort()
    tail = percentile(durations, wl.tail_q)
    beyond = sum(1 for t in durations if t > tail)
    if beyond < 10:
        print(f"warning: only {beyond} ops beyond p{wl.tail_q * 100:g}", file=sys.stderr)
    metrics = {
        "ops_per_s": len(durations) / elapsed,
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail * 1e3,
        "sim_events_per_s": cycles * sum(events) / elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    notes = (
        f"{cycles} cycles of {len(wl.ops)} ops in {elapsed:.2f} s;"
        f" op_tail_ms is p{wl.tail_q * 100:g}, {beyond} ops beyond it;"
        f" setup_s is the median of {len(setup_times)} set-ups"
    )
    return metrics, len(durations), failed, problems, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "edgeswarm" / "__init__.py").is_file():
        print(f"no edgeswarm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    def setup():
        gc.collect()
        began = time.perf_counter()
        es = workloads.load_program()
        wl = build(es, args.seed, ROOT)
        return time.perf_counter() - began, es, wl

    _, es, wl = setup()
    if not Path(es.cli.__file__).resolve().is_relative_to(src):
        print(f"edgeswarm imported from {es.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics, attempted, failed, problems, spans = tracing.traced_run(es, wl, args.seconds)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for pass_index, records in enumerate(spans):
                for name, start, end, parent, op in records:
                    handle.write(json.dumps([pass_index, op, name, start, end, parent]) + "\n")
        notes = f"{len(spans)} traced passes of {len(wl.ops)} ops; spans in {path.relative_to(ROOT)}"
    else:
        metrics, attempted, failed, problems, notes = timed_run(
            es, wl, args.seconds, lambda: setup()[0]
        )

    for name in sorted(metrics.keys() - units.keys()):
        problems.append(f"{name} is computed but not declared in BENCHMARK.json")
    for name in sorted(units.keys() - metrics.keys()):
        problems.append(f"{name} is declared in BENCHMARK.json but not computed")
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(f"{wl.name} seed {args.seed}: {notes}")
    for name, value in metrics.items():
        print(f"  {name:32} {value:>16.6g} {units.get(name, '?')}")
    if not args.trace:
        print(f"  {'failed_op_frac':32} {failed / attempted:>16.6g} 1")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
