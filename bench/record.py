"""Record one perfbench run, with where and how it ran, in BENCH_<label>.json.

    python3 bench/record.py --tree DIR --label NAME -- --workload fig5-cli --seed 1 --seconds 30

Runs ``DIR/perfbench/run.py`` with the arguments after ``--``, from inside
``DIR``, under this interpreter, and takes the run's last JSON line. It
adds the tree's commit, the Python version, the processors this process
may use (what ``nproc`` prints), whether PyYAML has libyaml, the seed and
seconds asked for, and the label, then appends the run to the list in
``BENCH_<label>.json`` (by default next to this script). To compare two
commits, check each out into its own directory and alternate which one
runs first, one label per commit. perfbench's output, checks and bounds
are read as they are. Exits with the run's own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", required=True, help="checkout whose perfbench/run.py runs")
    parser.add_argument("--label", required=True, help="the run goes to BENCH_<label>.json")
    parser.add_argument("--out-dir", default=str(HERE), help="where BENCH_<label>.json lives")
    parser.add_argument("run_args", nargs=argparse.REMAINDER, help="-- then run.py's arguments")
    args = parser.parse_args(argv)
    if args.run_args[:1] == ["--"]:
        del args.run_args[0]
    # run.py's own defaults, to record what the run used.
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--seed", type=int, default=1)
    settings.add_argument("--seconds", type=float, default=30.0)
    used = settings.parse_known_args(args.run_args)[0]
    args.seed, args.seconds = used.seed, used.seconds
    return args


def commit_of(tree: Path) -> str | None:
    result = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True
    )
    return result.stdout.strip() if result.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    tree = Path(args.tree).resolve()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args.run_args],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = result.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"no JSON line at the end of the run's output:\n{result.stdout}", file=sys.stderr)
        return result.returncode or 2
    record = {
        "label": args.label,
        "commit": commit_of(tree),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "libyaml": yaml.__with_libyaml__,
        "seed": args.seed,
        "seconds": args.seconds,
        "argv": args.run_args,
        "started": started,
        "exit_code": result.returncode,
        "result": outcome,
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    runs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    print(lines[-1])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
