import json
import subprocess
import sys
from pathlib import Path

import yaml

RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"

# Stands in for perfbench/run.py: prints its arguments and working
# directory, then one JSON line, and exits 1 when asked for seed 13.
FAKE_RUN = """
import json, os, sys
print("fake run", sys.argv[1:])
print(json.dumps({"correct": True, "cwd": os.getcwd(), "argv": sys.argv[1:]}))
sys.exit(1 if "13" in sys.argv else 0)
"""


def record(tree, out_dir, *run_args):
    return subprocess.run(
        [sys.executable, str(RECORD), "--tree", str(tree), "--label", "try",
         "--out-dir", str(out_dir), "--", *run_args],
        capture_output=True, text=True, timeout=60,
    )


def test_appends_each_run_with_its_settings(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    first = record(tree, tmp_path, "--workload", "fig5-cli", "--seconds", "2")
    second = record(tree, tmp_path, "--workload", "fig5-cli", "--seed", "13")
    assert (first.returncode, second.returncode) == (0, 1)
    runs = json.loads((tmp_path / "BENCH_try.json").read_text(encoding="utf-8"))
    assert [(run["seed"], run["seconds"], run["exit_code"]) for run in runs] == [
        (1, 2.0, 0), (13, 30.0, 1)
    ]
    assert runs[0]["argv"] == ["--workload", "fig5-cli", "--seconds", "2"]
    assert runs[0]["result"] == {
        "correct": True, "cwd": str(tree.resolve()), "argv": runs[0]["argv"]
    }
    assert {run["label"] for run in runs} == {"try"}
    assert runs[0]["libyaml"] is yaml.__with_libyaml__
    assert runs[0]["python"] == ".".join(map(str, sys.version_info[:3]))
    assert runs[0]["nproc"] >= 1
    assert json.loads(first.stdout) == runs[0]["result"]


def test_a_run_without_a_json_line_is_not_recorded(tmp_path):
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text("print('no json')\n", encoding="utf-8")
    result = record(tree, tmp_path, "--workload", "fig5-cli")
    assert result.returncode == 2
    assert "no JSON line" in result.stderr
    assert not (tmp_path / "BENCH_try.json").exists()
