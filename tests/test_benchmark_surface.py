"""The program names perfbench reaches, checked without running the benchmark.

perfbench's traced passes patch the calls listed in ``tracing.PATCHES`` and
replay ``prepare`` one public call at a time through ``tracing.replay_prepare``.
A rename or deletion in the program shows there only as a failed benchmark
run, so this test builds every workload and replays each of its scenarios.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a subprocess: perfbench imports the program afresh, which would
# swap this session's modules. No bytecode is written under perfbench/.
SURFACE_SCRIPT = """
import sys

sys.dont_write_bytecode = True
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src"]

from pathlib import Path

import tracing
import workloads

es = workloads.load_program()
print("program", es.cli.__file__)
for name, build in workloads.WORKLOADS.items():
    wl = build(es, 1, Path(root))
    tracer = tracing.Tracer()
    with tracing.patched(es, tracer) as missing:
        for problem in missing:
            print("problem", name, problem)
    for scenario in wl.scenarios:
        for problem in tracing.replay_prepare(es, tracer, scenario, es.scenario.prepare(scenario)):
            print("problem", name, problem)
        print("replayed", name)
"""


def test_perfbench_patches_and_replays_every_workload():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", SURFACE_SCRIPT, str(ROOT)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"program {ROOT / 'src' / 'edgeswarm' / 'cli.py'}"
    assert [line for line in lines if line.startswith("problem")] == []
    replayed = [line.split()[1] for line in lines if line.startswith("replayed")]
    assert {name: replayed.count(name) for name in set(replayed)} == {
        "fig5-cli": 1,
        "crosscheck": 200,
        "swarm-250": 3,
    }
