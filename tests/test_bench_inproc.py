import json
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
INPROC = ROOT / "bench" / "inproc.py"
WORKLOADS = ("fig5-cli", "crosscheck", "swarm-250")


def test_checkout_against_itself(tmp_path):
    result = subprocess.run(
        [sys.executable, str(INPROC), "--parent", str(ROOT), "--change", str(ROOT),
         "--cycles", "2", "--label", "same", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == list(WORKLOADS), lines
    for line in lines:
        assert "change faster in" in line and line.endswith("/2"), line
    [run] = json.loads((tmp_path / "BENCH_inproc.json").read_text(encoding="utf-8"))
    assert run["label"] == "same"
    assert run["cycles"] == 2
    assert run["libyaml"] is yaml.__with_libyaml__
    assert run["commit"] == run["parent_commit"]
    assert list(run["workloads"]) == list(WORKLOADS)
    for name, result in run["workloads"].items():
        assert len(result["parent_ms"]) == len(result["change_ms"]) == 2, name
        assert min(result["parent_ms"] + result["change_ms"]) > 0, name
        assert 0 <= result["wins"] <= 2
        assert 0 < result["ratio_min"] <= result["ratio_median"]


def test_a_failing_check_exits_1(tmp_path):
    # A longer fig5 task changes what `edgeswarm run` prints for it.
    tree = tmp_path / "tree"
    for part in ("src", "perfbench", "scenarios"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    fig5 = tree / "scenarios" / "fig5.yaml"
    text = fig5.read_text(encoding="utf-8")
    fig5.write_text(text.replace("duration_s: 74", "duration_s: 75"), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(INPROC), "--parent", str(ROOT), "--change", str(tree),
         "--cycles", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("fig5-cli: the change cycle fails its check"), result.stderr
    assert not (tmp_path / "BENCH_inproc.json").exists()
