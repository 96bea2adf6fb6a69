"""Compare a parent's and a change's perfbench runs, one end-to-end metric a line.

    python3 bench/compare.py bench/BENCH_<name>-parent.json bench/BENCH_<name>-change.json

Both files are lists of runs as ``bench/record.py`` appends them. The
metrics, the direction each is ``better`` in and its ``bound`` come from
the ``end_to_end`` list of ``BENCHMARK.json`` at the repository root
(``--benchmark`` names another), which is only read. For each metric it
prints:

- the parent's and the change's medians, each with its quartiles in
  brackets (``statistics.quantiles(n=4, method="inclusive")``)
- the change's wins: pair ``i`` is the ``i``-th run of each file, in
  file order, and a tie is no win
- the relative move of the change's median from the parent's
- whether that move stays within the bound: a move in the worse
  direction by more than ``bound`` times the parent's median does not

A header line gives each file's runs, how many said ``correct: true``
and the failed share of attempted ops. The exit code is 1 when a metric
moves outside its bound, a change run is not correct, or the change
fails a larger share of ops than the parent; 0 otherwise.

    python3 bench/compare.py --ladder <parent label> <change label>

reads two labels of ``bench/BENCH_ladder.json`` (``--ladder-file`` names
another) instead. For each (nodes, shape, mode) row of the parent's first
run it prints the medians over each label's runs of ``total_ms``,
``engine_ms`` and ``gc_ms`` with their moves, and whether every run of
both labels has the same ``trace_sha256`` and ``t_total_s``. A last
line counts the rows with the same trace; the exit code is 1 when a
row's trace differs or is missing, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER_SPLITS = ("total_ms", "engine_ms", "gc_ms")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's BENCH_<label>.json, or its ladder label")
    parser.add_argument("change", help="the change's BENCH_<label>.json, or its ladder label")
    parser.add_argument(
        "--benchmark", default=str(ROOT / "BENCHMARK.json"), help="where the metrics are declared"
    )
    parser.add_argument(
        "--ladder", action="store_true", help="compare two labels of the ladder file"
    )
    parser.add_argument(
        "--ladder-file", default=str(ROOT / "bench" / "BENCH_ladder.json"), help="the ladder file"
    )
    return parser.parse_args(argv)


def shown(value: float) -> str:
    """``value`` with at least four significant digits, thousands
    separated and never in exponent form."""
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    decimals = max(0, 3 - math.floor(math.log10(abs(value))))
    return f"{value:,.{decimals}f}"


def summary(values: list[float]) -> str:
    """The median of ``values`` and its inclusive quartiles."""
    if len(values) < 2:
        return shown(values[0])
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{shown(median)} [{shown(low)}-{shown(high)}]"


def metric_line(metric: dict, parent: list[float], change: list[float]) -> tuple[str, bool]:
    """One metric's line, and whether its move stays within the bound."""
    higher = metric["better"] == "higher"
    before, after = statistics.median(parent), statistics.median(change)
    move = (after - before) / before if before else 0.0
    worse_by = -move if higher else move
    within = worse_by <= metric["bound"]
    pairs = list(zip(parent, change))
    wins = sum((b > a) if higher else (b < a) for a, b in pairs)
    verdict = "within" if within else "OUTSIDE"
    line = (
        f"{metric['name']} ({metric['better']}): {summary(parent)} -> {summary(change)},"
        f" wins {wins}/{len(pairs)}, {move:+.1%}, {verdict} the {metric['bound']:.0%} bound"
    )
    return line, within


def tally(runs: list[dict]) -> tuple[int, int, int]:
    """Runs that said ``correct: true``, failed ops and attempted ops."""
    results = [run["result"] for run in runs]
    return (
        sum(result.get("correct") is True for result in results),
        sum(result.get("failed", 0) for result in results),
        sum(result.get("attempted", 0) for result in results),
    )


def compare(
    parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]
) -> tuple[list[str], bool]:
    """The printed lines, and whether the change keeps within every bound."""
    lines, shares = [], []
    for name, runs in (("parent", parent_runs), ("change", change_runs)):
        correct, failed, attempted = tally(runs)
        counts = f"{correct} correct, {failed}/{attempted} ops failed"
        lines.append(f"{name}: {len(runs)} runs, {counts}")
        shares.append(failed / attempted if attempted else 0.0)
    # correct is the change's count, from the loop's last pass.
    ok = correct == len(change_runs) and shares[1] <= shares[0]
    for metric in metrics:
        name = metric["name"]
        values = [
            [run["result"]["metrics"].get(name, {}).get("value") for run in runs]
            for runs in (parent_runs, change_runs)
        ]
        if any(value is None for side in values for value in side) or not all(values):
            lines.append(f"{name}: missing from some run")
            ok = False
            continue
        line, within = metric_line(metric, *values)
        lines.append(line)
        ok = ok and within
    return lines, ok


def compare_ladder(parent_runs: list[dict], change_runs: list[dict]) -> tuple[list[str], bool]:
    """The printed lines, and whether every row has the same trace."""
    rows = []
    for runs in (parent_runs, change_runs):
        by_key: dict[tuple, list[dict]] = {}
        for run in runs:
            for row in run["rows"]:
                by_key.setdefault((row["nodes"], row["shape"], row["mode"]), []).append(row)
        rows.append(by_key)
    lines = [
        f"{name}: {len(runs)} runs of {', '.join(sorted({run['commit'][:8] for run in runs}))}"
        for name, runs in (("parent", parent_runs), ("change", change_runs))
    ]
    keys = [(row["nodes"], row["shape"], row["mode"]) for row in parent_runs[0]["rows"]]
    same_traces = 0
    for key in keys:
        before, after = rows[0][key], rows[1].get(key, [])
        if not after:
            lines.append(f"{key[0]} {key[1]} {key[2]}: missing from the change")
            continue
        moves = []
        for split in LADDER_SPLITS:
            a = statistics.median(row[split] for row in before)
            b = statistics.median(row[split] for row in after)
            move = (b - a) / a if a else 0.0
            moves.append(f"{split} {shown(a)} -> {shown(b)} ({move:+.1%})")
        same = {}
        for field in ("trace_sha256", "t_total_s"):
            values = {row.get(field) for row in before + after}
            same[field] = len(values) == 1 and None not in values
            verdict = "missing" if None in values else "same" if same[field] else "DIFFERS"
            moves.append(f"{field} {verdict}")
        same_traces += same["trace_sha256"]
        lines.append(f"{key[0]} {key[1]} {key[2]}: {', '.join(moves)}")
    lines.append(f"same trace: {same_traces}/{len(keys)} rows")
    return lines, same_traces == len(keys)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.ladder:
        runs = json.loads(Path(args.ladder_file).read_text(encoding="utf-8"))
        labelled = []
        for label in (args.parent, args.change):
            labelled.append([run for run in runs if run["label"] == label])
            if not labelled[-1]:
                print(f"no run labelled {label!r} in {args.ladder_file}", file=sys.stderr)
                return 2
        lines, ok = compare_ladder(*labelled)
        print("\n".join(lines))
        return 0 if ok else 1
    metrics = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))["end_to_end"]
    parent_runs, change_runs = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in (args.parent, args.change)
    )
    lines, ok = compare(parent_runs, change_runs, metrics)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
