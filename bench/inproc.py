"""Time two checkouts' perfbench op cycles in one process, alternating, in BENCH_inproc.json.

    python3 bench/inproc.py --parent DIR --change DIR [--cycles 20] [--label NAME]

Loads each tree's ``src/edgeswarm`` as its own package
(``edgeswarm_parent`` and ``edgeswarm_change``) through
``importlib.util.spec_from_file_location``, and each tree's
``perfbench/workloads.py`` beside it, which is only imported: its
``load_program`` is never called. For each workload of ``WORKLOADS``,
each tree's op cycle is ``WORKLOADS[name](es, 1, root)`` built on that
tree's modules, every op once. Each cycle runs once untimed, and its
outputs must pass the workload's own check. Then ``--cycles`` timed
cycles follow. A cycle runs the two trees' ops in pairs, op ``i`` of
one tree right after op ``i`` of the other, and sums each tree's op
times; the tree that runs first in each pair alternates from one cycle
to the next. The collector's settings stay as they are, and nothing
runs under a profile or trace hook.

Per workload one line gives each tree's median ms per cycle with its
inclusive quartiles, the median and the least of the per-cycle ratios
change / parent, and the change's wins (cycles where the change took
less time). The run is appended to the list in ``BENCH_inproc.json``
(by default next to this script) with its label, both trees' commits,
the Python version, the processors this process may use and whether
PyYAML has libyaml. The exit code is 1 if a cycle fails its check, 0
otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

from compare import shown, summary
from record import append_run, commit_of, where_and_how

HERE = Path(__file__).resolve().parent
SEED = 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the checkout compared against")
    parser.add_argument("--change", required=True, help="the checkout under test")
    parser.add_argument("--cycles", type=int, default=20, help="timed samples per tree")
    parser.add_argument("--label", default="inproc", help="names the run in BENCH_inproc.json")
    parser.add_argument("--out-dir", default=str(HERE), help="where BENCH_inproc.json lives")
    args = parser.parse_args(argv)
    if args.cycles < 1:
        parser.error("--cycles must be at least 1")
    return args


def load(name: str, path: Path, package: Path | None = None) -> ModuleType:
    """Import ``path`` as module ``name`` (a package if ``package`` is its
    directory), registered in ``sys.modules`` so relative imports and
    dataclasses find it."""
    locations = None if package is None else [str(package)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, tag: str) -> tuple[SimpleNamespace, ModuleType]:
    """The tree's edgeswarm modules by short name, and its perfbench workloads."""
    package = tree / "src" / "edgeswarm"
    load(f"edgeswarm_{tag}", package / "__init__.py", package)
    workloads = load(f"workloads_{tag}", tree / "perfbench" / "workloads.py")
    es = SimpleNamespace(
        **{name: importlib.import_module(f"edgeswarm_{tag}.{name}") for name in workloads.MODULES}
    )
    return es, workloads


def compare(name: str, trees: dict, cycles: int) -> dict | None:
    """Both trees' ms per cycle of workload ``name``, or ``None`` if a
    cycle fails its check."""
    ops = {}
    for tag, (es, workloads, root) in trees.items():
        workload = workloads.WORKLOADS[name](es, SEED, root)
        problems = workload.check([op() for _, op in workload.ops], False)
        if problems:
            print(f"{name}: the {tag} cycle fails its check: {problems[:3]}", file=sys.stderr)
            return None
        ops[tag] = [op for _, op in workload.ops]
    samples = {"parent": [], "change": []}
    clock = time.perf_counter
    for cycle in range(cycles):
        order = ("parent", "change") if cycle % 2 == 0 else ("change", "parent")
        spent = dict.fromkeys(order, 0.0)
        # Op by op, so a burst of load on the host falls on both trees alike.
        for pair in zip(ops[order[0]], ops[order[1]]):
            for tag, op in zip(order, pair):
                start = clock()
                op()
                spent[tag] += clock() - start
        for tag in order:
            samples[tag].append(spent[tag] * 1000)
    ratios = [c / p for p, c in zip(samples["parent"], samples["change"])]
    return {
        "parent_ms": samples["parent"],
        "change_ms": samples["change"],
        "ratio_median": statistics.median(ratios),
        "ratio_min": min(ratios),
        "wins": sum(ratio < 1 for ratio in ratios),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    trees = {tag: (*load_tree(tree, tag), tree) for tag, tree in (("parent", parent), ("change", change))}
    results = {}
    for name in trees["change"][1].WORKLOADS:
        result = compare(name, trees, args.cycles)
        if result is None:
            return 1
        results[name] = result
        print(
            f"{name}: parent {summary(result['parent_ms'])} ms, "
            f"change {summary(result['change_ms'])} ms per cycle; "
            f"change/parent median {shown(result['ratio_median'])}, "
            f"min {shown(result['ratio_min'])}; change faster in {result['wins']}/{args.cycles}"
        )
    record = {
        "label": args.label,
        **where_and_how(change),
        "parent_commit": commit_of(parent),
        "cycles": args.cycles,
        "started": started,
        "workloads": results,
    }
    append_run(Path(args.out_dir) / "BENCH_inproc.json", record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
