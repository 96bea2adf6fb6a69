import json
import math
import re
import subprocess
import sys
from pathlib import Path

import yaml

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder.py"
SHAPES = {"unicast-equal", "unicast-rate_weighted", "multicast", "conftest-rate_weighted"}
MODES = {"strict_barrier", "per_node_overlap"}
SPLITS = ("gate_ms", "prepare_ms", "engine_ms", "report_ms", "total_ms")


def test_one_row_per_rung_shape_and_mode(tmp_path):
    result = subprocess.run(
        [sys.executable, str(LADDER), "--label", "try", "--nodes", "2,100", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    [run] = json.loads((tmp_path / "BENCH_ladder.json").read_text(encoding="utf-8"))
    assert run["label"] == "try"
    assert run["libyaml"] is yaml.__with_libyaml__
    assert run["python"] == ".".join(map(str, sys.version_info[:3]))
    assert run["nproc"] >= 1
    rows = run["rows"]
    keys = [(row["nodes"], row["shape"], row["mode"]) for row in rows]
    assert sorted(keys) == sorted(
        (nodes, shape, mode) for nodes in (2, 100) for shape in SHAPES for mode in MODES
    )
    for row in rows:
        assert row["members"] == row["nodes"]
        for split in SPLITS:
            assert 0 < row[split] < math.inf, (row, split)
        assert row["total_ms"] >= row["engine_ms"]
        assert 0 <= row["gc_ms"] < math.inf
        assert row["trace_records"] > 0
        assert re.fullmatch("[0-9a-f]{64}", row["trace_sha256"]), row
