import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
COMPARE = BENCH / "compare.py"


def compare(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(COMPARE), str(parent), str(change), *extra],
        capture_output=True, text=True, timeout=60,
    )


def test_reads_the_committed_side_by_side_pairs():
    # The crosscheck pairs recorded side by side for one-pass elaboration.
    result = compare(
        BENCH / "BENCH_crosscheck-onepass-side-parent.json",
        BENCH / "BENCH_crosscheck-onepass-side-change.json",
    )
    assert result.returncode == 0, result.stderr
    lines = {line.split(" ")[0]: line for line in result.stdout.splitlines()}
    assert lines["parent:"] == "parent: 6 runs, 6 correct, 0/479600 ops failed"
    assert lines["ops_per_s"].startswith(
        "ops_per_s (higher): 2,654 [2,646-2,685] -> 2,736 [2,692-2,769], wins 6/6, +3.1%,"
    )
    assert lines["ops_per_s"].endswith("within the 25% bound")
    assert set(lines) == {
        "parent:", "change:", "ops_per_s", "op_p50_ms", "op_tail_ms",
        "sim_events_per_s", "peak_rss_mb", "setup_s",
    }


def run_with(value, correct=True, failed=0):
    return {"result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"op_p50_ms": {"value": value}},
    }}


def write_runs(path, runs):
    path.write_text(json.dumps(runs), encoding="utf-8")
    return path


def test_bounds_wins_in_file_order_and_failures(tmp_path):
    benchmark = write_runs(tmp_path / "BENCHMARK.json", {"end_to_end": [
        {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    ]})
    parent = write_runs(tmp_path / "parent.json", [run_with(v) for v in (1.0, 2.0, 3.0)])
    # Pairs (1, 1.5), (2, 2), (3, 2.9): a loss, a tie and one win.
    mixed = write_runs(tmp_path / "mixed.json", [run_with(v) for v in (1.5, 2.0, 2.9)])
    result = compare(parent, mixed, "--benchmark", benchmark)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2] == (
        "op_p50_ms (lower): 2.000 [1.500-2.500] -> 2.000 [1.750-2.450],"
        " wins 1/3, +0.0%, within the 25% bound"
    )
    slower = write_runs(tmp_path / "slower.json", [run_with(v) for v in (3.1, 3.1, 3.1)])
    result = compare(parent, slower, "--benchmark", benchmark)
    assert result.returncode == 1
    assert result.stdout.splitlines()[2].endswith("wins 0/3, +55.0%, OUTSIDE the 25% bound")
    failing = write_runs(tmp_path / "failing.json", [run_with(1.0, failed=1)] * 3)
    result = compare(parent, failing, "--benchmark", benchmark)
    assert result.returncode == 1
    assert result.stdout.splitlines()[1] == "change: 3 runs, 3 correct, 3/300 ops failed"
    wrong = write_runs(tmp_path / "wrong.json", [run_with(1.0, correct=False)] * 3)
    assert compare(parent, wrong, "--benchmark", benchmark).returncode == 1


def test_reads_the_committed_ladder_labels():
    # The join wave's ladder runs, three per label, recorded alternately.
    result = compare("wave-parent", "wave-change", "--ladder")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["parent: 3 runs of 030d138b", "change: 3 runs of e564798f"]
    rows = {line.split(":")[0]: line for line in lines[2:-1]}
    assert len(rows) == 16
    assert all(line.endswith("trace_sha256 same, t_total_s same") for line in rows.values())
    assert "engine_ms 474.7 -> 458.8 (-3.4%)" in rows["10000 unicast-equal strict_barrier"]
    assert lines[-1] == "same trace: 16/16 rows"


def ladder_run(label, sha, engine_ms):
    row = {
        "nodes": 2, "shape": "multicast", "mode": "strict_barrier", "trace_sha256": sha,
        "t_total_s": 1.5, "total_ms": 2 * engine_ms, "engine_ms": engine_ms, "gc_ms": 0.0,
    }
    return {"label": label, "commit": "0" * 40, "rows": [row]}


def test_a_ladder_row_whose_trace_differs_fails(tmp_path):
    ladder = write_runs(tmp_path / "BENCH_ladder.json", [
        ladder_run("a", "x", 1.0), ladder_run("b", "x", 3.0), ladder_run("b", "x", 1.0),
        ladder_run("c", "y", 1.0),
    ])
    result = compare("a", "b", "--ladder", "--ladder-file", ladder)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2] == (
        "2 multicast strict_barrier: total_ms 2.000 -> 4.000 (+100.0%),"
        " engine_ms 1.000 -> 2.000 (+100.0%), gc_ms 0 -> 0 (+0.0%),"
        " trace_sha256 same, t_total_s same"
    )
    result = compare("a", "c", "--ladder", "--ladder-file", ladder)
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1] == "same trace: 0/1 rows"
    assert compare("a", "d", "--ladder", "--ladder-file", ladder).returncode == 2
