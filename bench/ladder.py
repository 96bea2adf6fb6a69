"""Time ``sim.run`` layer by layer up the member-count ladder, in BENCH_ladder.json.

    python3 bench/ladder.py --tree DIR --label NAME [--nodes 2,100,1000,10000]

Runs the edgeswarm of ``DIR/src`` on four swarm shapes at each member
count, in both simulation modes: perfbench's three shapes, the
scenarios ``DIR/perfbench/workloads.py::swarm`` builds with
``swarm_scenario`` and ``SWARM_NODES`` set to the count, and the tests'
many-sizes swarm, ``DIR/tests/conftest.py::swarm_scenario``. Each
(count, shape) runs in a fresh process, which builds the scenario once
(untimed) and then, for each mode, splits a run the way ``sim.run``
makes it:

- ``gate_ms``: ``validate_scenario``
- ``prepare_ms``: ``prepare``
- ``engine_ms``: building ``sim._Engine``, ``seed_initial_events``
  (``InitSwarm`` and the join requests) and ``drain`` (every later
  event, the leader's join replies and the t=0 deploys included)
- ``report_ms``: ``build_report``, which derives the timeline (compute
  starts included), lists a strict run's records from the deliver
  barrier on and places any ``DeadlineExpired`` record. Strict rows
  recorded before the report listed a run's computes, returns and last
  three barriers count that work in ``engine_ms`` instead

A row gives the median of ``REPEATS`` runs for each split and for
``total_ms``, their sum. ``gc_ms`` is the time the cyclic collector
spent inside a run and ``gc_passes`` the collections of each generation,
medians too, read through ``gc.callbacks`` of that process alone; the
collector's settings stay as they are, and each run starts after a
``gc.collect()``. ``trace_records``, ``trace_sha256`` (the sha256 of
``repr(report.trace)``, taken after the timed span) and ``t_total_s``
let rows from two commits be checked for the same run; each must be
equal across a row's runs.

The run is appended to the list in ``BENCH_ladder.json`` (by default
next to this script) with its label, the tree's commit, the Python
version, the processors this process may use (what ``nproc`` prints)
and whether PyYAML has libyaml. To compare two commits, check each out
into its own directory and alternate which one runs first, one label
per commit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from record import append_run, where_and_how

HERE = Path(__file__).resolve().parent
MODES = ("strict_barrier", "per_node_overlap")
CONFTEST_SHAPE = "conftest-rate_weighted"
SEED = 1
REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(HERE.parent), help="checkout whose src/ runs")
    parser.add_argument("--label", required=True, help="names the commit in BENCH_ladder.json")
    parser.add_argument("--nodes", default="2,100,1000,10000", help="member counts, comma-separated")
    parser.add_argument("--out-dir", default=str(HERE), help="where BENCH_ladder.json lives")
    # One (count, shape) measured in this process; main starts one process per pair.
    parser.add_argument("--row", nargs=2, metavar=("NODES", "SHAPE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.nodes = [int(n) for n in args.nodes.split(",")]
    if min(args.nodes) < 1:
        parser.error("every member count must be at least 1")
    return args


def use_tree(tree: Path) -> list[str]:
    """Import from the tree from now on; return perfbench's shape names,
    read from the tree, then the tests' swarm."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench"), str(tree / "tests")]
    import workloads

    return [name for name, _, _ in workloads.SWARM_SHAPES] + [CONFTEST_SHAPE]


def build_scenario(nodes: int, shape: str):
    """The shape at ``nodes`` members, from the same generators perfbench
    and the tests use, so the 250-member rows run perfbench's scenarios."""
    import workloads

    if shape == CONFTEST_SHAPE:
        import conftest

        return conftest.swarm_scenario(SEED, nodes)
    workloads.SWARM_NODES = nodes
    scenarios = workloads.swarm(workloads.load_program(), SEED, HERE).scenarios
    names = [name for name, _, _ in workloads.SWARM_SHAPES]
    return scenarios[names.index(shape)]


def timed_run(scenario, mode: str) -> dict:
    """One run split by layer, with the collections made inside it."""
    from edgeswarm import scenario as scenario_module
    from edgeswarm import sim

    passes, spans, started = [0, 0, 0], [], []

    def on_gc(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            spans.append(time.perf_counter() - started.pop())
            passes[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        t0 = time.perf_counter()
        violations = scenario_module.validate_scenario(scenario)
        t1 = time.perf_counter()
        prep = scenario_module.prepare(scenario)
        t2 = time.perf_counter()
        engine = sim._Engine(prep, mode)
        engine.seed_initial_events()
        engine.drain()
        t3 = time.perf_counter()
        report = engine.build_report()
        t4 = time.perf_counter()
    finally:
        gc.callbacks.remove(on_gc)
    if violations:
        raise SystemExit(f"generated scenario fails the gate: {violations}")
    return {
        "members": len(prep.members),
        "gate_ms": (t1 - t0) * 1e3,
        "prepare_ms": (t2 - t1) * 1e3,
        "engine_ms": (t3 - t2) * 1e3,
        "report_ms": (t4 - t3) * 1e3,
        "total_ms": (t4 - t0) * 1e3,
        "gc_ms": sum(spans) * 1e3,
        "gc_passes": passes,
        "trace_records": len(report.trace),
        "trace_sha256": hashlib.sha256(repr(report.trace).encode()).hexdigest(),
        "t_total_s": report.breakdown.t_total_s,
    }


def measure_rows(tree: Path, nodes: int, shape: str) -> list[dict]:
    use_tree(tree)
    scenario = build_scenario(nodes, shape)
    rows = []
    for mode in MODES:
        runs = [timed_run(scenario, mode) for _ in range(REPEATS)]
        row = {"nodes": nodes, "shape": shape, "mode": mode, "repeats": REPEATS}
        for key in ("members", "trace_records", "trace_sha256", "t_total_s"):
            if len({run[key] for run in runs}) != 1:
                raise SystemExit(f"{shape} at {nodes} nodes, {mode}: {key} differs between runs")
            row[key] = runs[0][key]
        for key in ("gate_ms", "prepare_ms", "engine_ms", "report_ms", "total_ms", "gc_ms"):
            row[key] = statistics.median(run[key] for run in runs)
        row["gc_passes"] = [
            statistics.median(run["gc_passes"][g] for run in runs) for g in range(3)
        ]
        rows.append(row)
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    tree = Path(args.tree).resolve()
    if args.row:
        rows = measure_rows(tree, int(args.row[0]), args.row[1])
        print(json.dumps(rows))
        return 0
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    rows, shapes = [], use_tree(tree)
    for nodes in args.nodes:
        for shape in shapes:
            result = subprocess.run(
                [sys.executable, __file__, "--tree", str(tree), "--label", args.label,
                 "--row", str(nodes), shape],
                stdout=subprocess.PIPE,
                text=True,
            )
            if result.returncode != 0:
                print(f"{shape} at {nodes} nodes failed", file=sys.stderr)
                return result.returncode
            for row in json.loads(result.stdout):
                print(
                    f"{row['nodes']:>6} {row['shape']:<22} {row['mode']:<16} "
                    f"gate {row['gate_ms']:9.2f}  prepare {row['prepare_ms']:9.2f}  "
                    f"engine {row['engine_ms']:9.2f}  report {row['report_ms']:8.2f}  "
                    f"gc {row['gc_ms']:8.2f} ms"
                )
                rows.append(row)
    record = {"label": args.label, **where_and_how(tree), "seed": SEED, "started": started}
    append_run(Path(args.out_dir) / "BENCH_ladder.json", dict(record, rows=rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
