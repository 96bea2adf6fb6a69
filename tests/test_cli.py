import contextlib
import copy
import dataclasses
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeswarm
from conftest import scenario_batch
from edgeswarm import cli
from edgeswarm.cli import (
    CSV_HEADER,
    FIG5_CAPACITIES_KBPS,
    ScenarioParseError,
    _parse_capacities,
    _ScenarioLoader,
    build_parser,
    load_scenario,
    main,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
    write_sweep_csv,
)
from edgeswarm.latency import analytic_scenario
from edgeswarm.scenario import fig5_scenario
from edgeswarm.sim import sweep
from edgeswarm.swarmproto import REQUIRED_PORTS, SwarmNetworkConfig

FIG5_YAML = str(Path(__file__).resolve().parent.parent / "scenarios" / "fig5.yaml")

RUN_LINE = "t_ce=2.00 t_d=15.04 t_c=29.10 t_r=0.00 total=46.14 success=true"
ROW_100 = "100,0,150.4,58.2005,0,208.601,20,150.4,29.1003,0,199.5,0.0436253"
ROW_1000 = "1000,0,15.04,58.2005,0,73.2405,2,15.04,29.1003,0,46.1403,0.370017"


def fig5_tree():
    with open(FIG5_YAML, "r", encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def write_tree(tmp_path, tree, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_example_file_round_trips_exactly(self):
        first = load_scenario(FIG5_YAML)
        text = serialize_scenario(first)
        second = parse_scenario(yaml.safe_load(text))
        assert second == first
        assert serialize_scenario(second) == text

    def test_example_file_matches_packaged_scenario(self):
        import dataclasses

        loaded = load_scenario(FIG5_YAML)
        packaged = fig5_scenario()
        # The file schema carries no task id; everything else must agree.
        assert dataclasses.replace(loaded.task, task_id=packaged.task.task_id) == packaged.task
        assert loaded.functions == packaged.functions
        assert loaded.images == packaged.images
        assert loaded.nodes == packaged.nodes
        assert loaded.channel == packaged.channel
        assert loaded.policy == packaged.policy
        assert loaded.sim == packaged.sim
        assert analytic_scenario(loaded) == analytic_scenario(packaged)

    def test_unit_conversion(self):
        scenario = load_scenario(FIG5_YAML)
        assert scenario.task.total_size_bits == 30_080_000
        assert scenario.channel.source_channel_capacity_bps == 2_000_000.0
        assert scenario.images[0].rw_layer.size_bits == 2_000_000

    def test_unknown_key_rejected(self, tmp_path):
        tree = fig5_tree()
        tree["task"]["color"] = "blue"
        with pytest.raises(ScenarioParseError, match="task: unknown key 'color'"):
            load_scenario(write_tree(tmp_path, tree))

    def test_missing_key_rejected(self):
        tree = fig5_tree()
        del tree["channel"]["server_kbps"]
        with pytest.raises(ScenarioParseError, match="channel: missing key 'server_kbps'"):
            parse_scenario(tree)

    def test_type_errors(self):
        cases = [
            (("task", "fps"), "thirty", "expected a number"),
            (("task", "width"), 12.5, "expected an integer"),
            (("task", "function"), 7, "expected a string"),
            (("policy", "ignore_return"), "yes please", "expected a boolean"),
            (("task", "fps"), True, "expected a number"),
        ]
        for (section, key), value, message in cases:
            tree = fig5_tree()
            tree[section][key] = value
            with pytest.raises(ScenarioParseError, match=message):
                parse_scenario(tree)

    def test_non_mapping_root(self):
        with pytest.raises(ScenarioParseError, match="scenario: expected a mapping"):
            parse_scenario(["not", "a", "scenario"])

    def test_node_port_must_be_integer(self):
        tree = fig5_tree()
        tree["nodes"][0]["ports"] = ["2377"]
        with pytest.raises(ScenarioParseError, match="ports"):
            parse_scenario(tree)

    def test_stored_layer_must_be_string(self):
        tree = fig5_tree()
        tree["nodes"][0]["layers"] = [42]
        with pytest.raises(ScenarioParseError, match="layers"):
            parse_scenario(tree)

    def test_node_fields_are_read_in_file_order(self):
        tree = fig5_tree()
        tree["nodes"][0]["layers"] = [42]
        tree["nodes"][0]["rate_wu_s"] = "fast"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tree)
        assert str(err.value) == "nodes[0].rate_wu_s: expected a number, got 'fast'"

    def test_rw_layer_id_is_derived(self):
        scenario = parse_scenario(fig5_tree())
        assert scenario.images[0].rw_layer.layer_id == "feat-image.rw"

    def test_optional_k_key(self):
        tree = fig5_tree()
        tree["policy"]["group"] = "top_k"
        tree["policy"]["k"] = 2
        scenario = parse_scenario(tree)
        assert scenario.policy.k == 2
        assert parse_scenario(fig5_tree()).policy.k is None

    def test_serialize_keeps_numbers_tidy(self):
        text = serialize_scenario(fig5_scenario())
        assert "size_mb: 3.76" in text
        assert "rate_wu_s: 95.36" in text
        assert "source_total_kbps: 2000" in text
        assert "duration_s: 74" in text

    def test_parse_capacities(self):
        assert _parse_capacities(["100,200", "300"]) == [100.0, 200.0, 300.0]
        assert _parse_capacities(["100, 200 "]) == [100.0, 200.0]
        from edgeswarm.model import ValidationError

        with pytest.raises(ValidationError):
            _parse_capacities(["12,axe"])


class TestValidateCommand:
    def test_clean_file(self, capsys):
        assert main(["validate", FIG5_YAML]) == 0
        assert capsys.readouterr().err == ""

    def test_violations_listed_on_stderr(self, tmp_path, capsys):
        tree = fig5_tree()
        tree["nodes"][1]["cpu_budget"] = 1.3
        tree["channel"]["internode_kbps"] = -5
        assert main(["validate", write_tree(tmp_path, tree)]) == 1
        err = capsys.readouterr().err
        assert "nodes[edge-b].cpu_budget_fraction: must be in (0, 1], got 1.3" in err
        assert "channel.internode" in err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["validate", "no/such/file.yaml"]) == 2
        assert capsys.readouterr().err != ""

    def test_malformed_yaml_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("task: [unclosed\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        tree = fig5_tree()
        tree["task"]["color"] = "blue"
        assert main(["validate", write_tree(tmp_path, tree)]) == 2
        assert "parse error: task: unknown key 'color'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, keys, message",
        [
            (("task",), (5, "bogus"), "task: unknown key 5"),
            (("nodes", 0), (None, "bogus"), "nodes[0]: unknown key None"),
        ],
        ids=["int_and_string_in_task", "null_and_string_in_node"],
    )
    def test_unknown_keys_that_do_not_compare_are_exit_2(
        self, tmp_path, capsys, path, keys, message
    ):
        tree = fig5_tree()
        for key in keys:
            at(tree, path)[key] = 1
        scenario = write_tree(tmp_path, tree)
        for command in ("validate", "run"):
            assert main([command, scenario]) == 2
            assert f"parse error: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, field",
        [
            (("task", "size_mb"), "task.size_mb"),
            (("images", 0, "layers", 0, "size_mb"), "images[0].layers[0].size_mb"),
            (("images", 0, "rw_layer_mb"), "images[0].rw_layer_mb"),
            (("nodes", 1, "memory_mb"), "nodes[1].memory_mb"),
        ],
        ids=["size_mb", "layer_size_mb", "rw_layer_mb", "memory_mb"],
    )
    def test_non_finite_size_is_exit_2(self, tmp_path, capsys, path, field):
        for value in (math.nan, math.inf, 1e303):
            tree = fig5_tree()
            section = tree
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
            scenario_path = write_tree(tmp_path, tree)
            for command in ("validate", "run"):
                assert main([command, scenario_path]) == 2
                assert f"parse error: {field}: expected a finite size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    @pytest.mark.parametrize(
        "field",
        [
            "task.duration_s",
            "task.fps",
            "task.size_mb",
            "task.deadline_s",
            "functions[0].per_frame_cost_wu",
            "functions[0].output_ratio",
            "images[0].layers[0].size_mb",
            "images[0].rw_layer_mb",
            "nodes[1].rate_wu_s",
            "nodes[1].cpu_budget",
            "nodes[1].memory_mb",
            "nodes[1].startup_s",
            "channel.source_total_kbps",
            "channel.internode_kbps",
            "channel.server_kbps",
        ],
    )
    def test_integer_no_float_can_hold_is_exit_2(self, tmp_path, capsys, field, command):
        tree = fig5_tree()
        path = [int(key) if key.isdigit() else key for key in re.split(r"[.\[\]]+", field)]
        at(tree, path[:-1])[path[-1]] = 10**400
        argv = [command, write_tree(tmp_path, tree)]
        if command == "sweep":
            argv += ["--capacities", "100"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {field}: ")
        assert "Traceback" not in err

    def test_non_finite_frame_count_is_exit_1(self, tmp_path, capsys):
        for key, value in (("duration_s", math.inf), ("fps", 1e308), ("fps", 1e15)):
            tree = fig5_tree()
            tree["task"][key] = value
            scenario_path = write_tree(tmp_path, tree)
            for command in ("validate", "run"):
                assert main([command, scenario_path]) == 1
                assert "task.duration_s: frame count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, violation",
        [
            (
                {("nodes", 1, "startup_s"): math.inf},
                "nodes[edge-b].container_startup_s: must be finite",
            ),
            (
                {("functions", 0, "per_frame_cost_wu"): math.inf},
                "functions[feat-extract].per_frame_cost_wu: must be finite",
            ),
            (
                # 0 x inf output bits on a zero-size task with return on.
                {
                    ("functions", 0, "output_ratio"): math.inf,
                    ("task", "size_mb"): 0,
                    ("policy", "ignore_return"): False,
                },
                "functions[feat-extract].output_ratio: must be finite",
            ),
            (
                {("nodes", 0, "cpu_budget"): 1e-320},
                "nodes[edge-a]: worst-case compute time",
            ),
            (
                {("nodes", 1, "rate_wu_s"): 1e-320},
                "nodes[edge-b]: worst-case compute time",
            ),
            (
                {("channel", "source_total_kbps"): 1e-320},
                "channel.source_total: worst-case delivery time",
            ),
            (
                {("channel", "server_kbps"): 1e-320, ("policy", "ignore_return"): False},
                "channel.server: worst-case return time",
            ),
            (
                {("channel", "internode_kbps"): 1e-320},
                "channel.internode: worst-case establish time",
            ),
            (
                # Each component is finite; their sum is not.
                {
                    ("task", "size_mb"): 2e301,
                    ("channel", "source_total_kbps"): 1e-3,
                    ("functions", 0, "per_frame_cost_wu"): 1e302,
                    ("nodes", 0, "rate_wu_s"): 1e-2,
                    ("nodes", 1, "rate_wu_s"): 1e-2,
                },
                "scenario: worst-case total",
            ),
        ],
        ids=[
            "startup_s",
            "per_frame_cost_wu",
            "output_ratio",
            "cpu_budget",
            "rate_wu_s",
            "source_total_kbps",
            "server_kbps",
            "internode_kbps",
            "total",
        ],
    )
    def test_infinite_model_input_is_exit_1(self, tmp_path, capsys, changes, violation):
        tree = fig5_tree()
        for path, value in changes.items():
            section = tree
            for key in path[:-1]:
                section = section[key]
            section[path[-1]] = value
        scenario_path = write_tree(tmp_path, tree)
        for command in ("validate", "run"):
            assert main([command, scenario_path]) == 1
            err = capsys.readouterr().err
            assert violation in err
            assert "got nan" not in err

    def test_slow_server_link_is_fine_when_return_is_ignored(self, tmp_path, capsys):
        tree = fig5_tree()
        tree["channel"]["server_kbps"] = 1e-320
        scenario_path = write_tree(tmp_path, tree)
        assert main(["validate", scenario_path]) == 0
        assert main(["run", scenario_path]) == 0
        assert capsys.readouterr().out.strip() == RUN_LINE

    def test_conflicting_layer_sizes_is_exit_1(self, tmp_path, capsys):
        # A second image reuses fig5's 0 MB layer id with 1 MB of content.
        tree = fig5_tree()
        tree["images"].append(
            {"id": "other", "layers": [{"id": "feat-image.app", "size_mb": 1}], "rw_layer_mb": 0}
        )
        scenario_path = write_tree(tmp_path, tree)
        for command in ("validate", "run"):
            assert main([command, scenario_path]) == 1
            assert (
                "images[other].layers[feat-image.app].size: 8000000 bits conflicts with 0 bits"
                in capsys.readouterr().err
            )


class TestRunCommand:
    def test_breakdown_line(self, capsys):
        assert main(["run", FIG5_YAML]) == 0
        assert capsys.readouterr().out.strip() == RUN_LINE

    def test_mode_override(self, capsys):
        assert main(["run", FIG5_YAML, "--mode", "per_node_overlap"]) == 0
        line = capsys.readouterr().out.strip()
        assert line == "t_ce=2.00 t_d=15.04 t_c=29.10 t_r=0.00 total=44.14 success=true"

    def test_seed_override_keeps_timing(self, capsys):
        assert main(["run", FIG5_YAML, "--seed", "99"]) == 0
        assert capsys.readouterr().out.strip() == RUN_LINE

    def test_invalid_scenario_is_exit_1(self, tmp_path, capsys):
        tree = fig5_tree()
        tree["nodes"][0]["cpu_budget"] = 0
        tree["nodes"][1]["cpu_budget"] = 0
        assert main(["run", write_tree(tmp_path, tree)]) == 1
        assert "cpu_budget_fraction" in capsys.readouterr().err

    def test_missed_deadline_still_exit_0(self, tmp_path, capsys):
        tree = fig5_tree()
        tree["task"]["deadline_s"] = 40
        assert main(["run", write_tree(tmp_path, tree)]) == 0
        out = capsys.readouterr().out
        assert "success=false" in out

    def test_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "events.tsv"
        tree = fig5_tree()
        tree["task"]["deadline_s"] = 40
        scenario_path = write_tree(tmp_path, tree)
        assert main(["run", scenario_path, "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        assert lines, "trace file is empty"
        for line in lines:
            assert len(line.split("\t")) == 5
        assert lines[0].startswith("0\t")
        assert any("DeadlineExpired" in line for line in lines)
        times = [float(line.split("\t")[0]) for line in lines]
        assert times == sorted(times)

    def test_trace_path_that_cannot_be_written_is_exit_2_with_empty_stdout(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "missing" / "events.tsv"
        assert main(["run", FIG5_YAML, "--trace", str(trace_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert str(trace_path) in err
        assert not trace_path.parent.exists()


class TestSweepCommand:
    def test_csv_header_is_byte_exact(self, capsys):
        assert main(["sweep", FIG5_YAML, "--capacities", "500"]) == 0
        first_line = capsys.readouterr().out.splitlines()[0]
        assert first_line == (
            "capacity_kbps,base_tce,base_td,base_tc,base_tr,base_total,"
            "coop_tce,coop_td,coop_tc,coop_tr,coop_total,savings"
        )
        assert first_line == CSV_HEADER

    def test_rows_sorted_and_formatted(self, capsys):
        assert main(["sweep", FIG5_YAML, "--capacities", "1000,100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == ROW_100
        assert lines[2] == ROW_1000

    def test_matches_library_writer(self, capsys):
        assert main(["sweep", FIG5_YAML, "--capacities", "250", "750"]) == 0
        cli_text = capsys.readouterr().out
        buffer = io.StringIO()
        write_sweep_csv(sweep(fig5_scenario(), [250_000.0, 750_000.0]), buffer)
        assert cli_text == buffer.getvalue()

    def test_out_file_identical_to_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        assert main(["sweep", FIG5_YAML, "--capacities", "300", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["sweep", FIG5_YAML, "--capacities", "300"]) == 0
        assert out_path.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_nonpositive_capacity_is_exit_1(self, capsys):
        assert main(["sweep", FIG5_YAML, "--capacities", "0"]) == 1
        assert "capacities" in capsys.readouterr().err

    # 1e306 kb/s is finite, but not in bit/s.
    @pytest.mark.parametrize("typed", ["-5", "0", "inf", "nan", "1e306"])
    def test_bad_capacity_is_named_in_kbps(self, capsys, typed):
        assert main(["sweep", FIG5_YAML, "--capacities", f"100,{typed}"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"capacities: must be positive and finite, got {typed} kb/s\n"
        assert captured.out == ""

    def test_non_numeric_capacity_is_exit_1(self, capsys):
        assert main(["sweep", FIG5_YAML, "--capacities", "12,axe"]) == 1
        assert "axe" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, violation",
        [
            (
                ("nodes", 1, "ports"),
                [2377, 7946],
                "nodes[edge-b].ports: required port 4789 is closed",
            ),
            (("task", "duration_s"), math.nan, "task.duration_s: must be >= 0, got nan"),
        ],
        ids=["closed_port", "nan_duration"],
    )
    def test_invalid_template_is_exit_1(self, tmp_path, capsys, path, value, violation):
        tree = fig5_tree()
        section = tree
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        scenario_path = write_tree(tmp_path, tree)
        for argv in (["validate", scenario_path], ["sweep", scenario_path, "--capacities", "100"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert violation in err
            assert "Traceback" not in err

    def test_template_channel_is_replaced_not_validated(self, tmp_path, capsys):
        # sweep overwrites these two capacities, so their file values do not matter.
        tree = fig5_tree()
        tree["channel"]["source_total_kbps"] = 0
        tree["channel"]["internode_kbps"] = -1
        assert main(["sweep", write_tree(tmp_path, tree), "--capacities", "100"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == ROW_100


class TestExitCodes:
    def test_every_command_lists_violations_one_per_line(self, tmp_path, capsys):
        path = tmp_path / "budgets.yaml"
        text = Path(FIG5_YAML).read_text(encoding="utf-8")
        path.write_text(text.replace("cpu_budget: 0.4", "cpu_budget: 1.5"), encoding="utf-8")
        expected = "".join(
            f"nodes[{node}].cpu_budget_fraction: must be in (0, 1], got 1.5\n"
            for node in ("edge-a", "edge-b")
        )
        for argv in (["validate"], ["run"], ["sweep", "--capacities", "100"]):
            assert main([argv[0], str(path), *argv[1:]]) == 1
            assert capsys.readouterr() == ("", expected)


class TestFig5Command:
    def test_full_table(self, capsys):
        assert main(["fig5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert lines[0] == CSV_HEADER
        assert lines[1] == ROW_100
        assert lines[10] == ROW_1000
        capacities = [float(line.split(",")[0]) for line in lines[1:]]
        assert capacities == [float(k) for k in FIG5_CAPACITIES_KBPS]
        savings = [float(line.split(",")[-1]) for line in lines[1:]]
        assert savings == sorted(savings)

    def test_two_invocations_identical(self, capsys):
        assert main(["fig5"]) == 0
        first = capsys.readouterr().out
        assert main(["fig5"]) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "fig5.csv"
        assert main(["fig5", "--out", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("\n")


class TestSerialization:
    def test_dict_tree_round_trip(self):
        scenario = fig5_scenario()
        tree = scenario_to_dict(scenario)
        rebuilt = parse_scenario(tree)
        assert scenario_to_dict(rebuilt) == tree

    @pytest.mark.parametrize("seed", [0x09AC1E, 0x5EED, 0x0BE1A9])
    def test_generated_scenarios_round_trip(self, seed):
        """Every policy shape, ``top_k`` with ``k`` and the rest without.
        The file carries no task id and lists every node's ports, and a
        bit rate that is not a whole number of kb/s comes back within an
        ulp; everything else comes back equal."""
        for scenario in scenario_batch(seed, 200):
            tree = scenario_to_dict(scenario)
            rebuilt = parse_scenario(tree)
            assert scenario_to_dict(rebuilt) == tree
            for name in ("source_channel_capacity_bps", "internode_capacity_bps",
                         "edge_to_server_capacity_bps"):
                bps = getattr(scenario.channel, name)
                assert abs(getattr(rebuilt.channel, name) - bps) <= math.ulp(bps)
            open_ports = {node.node_id: frozenset(REQUIRED_PORTS) for node in scenario.nodes}
            assert rebuilt == dataclasses.replace(
                scenario,
                task=dataclasses.replace(scenario.task, task_id="task"),
                channel=rebuilt.channel,
                network=SwarmNetworkConfig(ports_open=open_ports),
            )

    def test_serialized_batch_is_pinned(self):
        text = "".join(serialize_scenario(s) for s in scenario_batch(0x09AC1E, 200))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bf37f434e6fbbf28773ba4b1889e493c229944e058718914633b3a1bb4db58cb"
        )

    def test_ports_are_listed_explicitly(self):
        tree = scenario_to_dict(fig5_scenario())
        assert tree["nodes"][0]["ports"] == [2377, 4789, 7946]


def run_python(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Python in a fresh process that imports this package; a crash there
    cannot take pytest down."""
    package_root = str(Path(edgeswarm.__file__).resolve().parent.parent)
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``edgeswarm`` in a fresh process."""
    return run_python("-m", "edgeswarm.cli", *argv)


DEEP_FILES = {
    "flow_sequence": "[" * 100_000 + "]" * 100_000,
    "block_sequence": "- " * 100_000 + "x\n",
    "flow_mapping": "{a: " * 100_000 + "b" + "}" * 100_000,
}


class TestHostileFiles:
    @pytest.mark.parametrize("name", sorted(DEEP_FILES))
    def test_deep_nesting_is_exit_2_in_a_fresh_process(self, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(DEEP_FILES[name], encoding="utf-8")
        result = run_cli("validate", str(path))
        assert result.returncode >= 0, f"killed by signal {-result.returncode}"
        assert result.returncode == 2
        assert "parse error" in result.stderr
        assert "nesting too deep" in result.stderr
        assert "Traceback" not in result.stderr

    def test_moderate_nesting_is_exit_2_in_every_command(self, tmp_path, capsys):
        path = str(tmp_path / "nested.yaml")
        Path(path).write_text("[" * 2000 + "]" * 2000, encoding="utf-8")
        for argv in (["validate", path], ["run", path], ["sweep", path, "--capacities", "100"]):
            assert main(argv) == 2
            assert f"parse error: {path}: nesting too deep" in capsys.readouterr().err

    def test_undecodable_file_is_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "latin.yaml")
        Path(path).write_bytes(b"task: \xff\xfe\n")
        for argv in (["validate", path], ["run", path], ["sweep", path, "--capacities", "100"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("parse error")
            assert "latin.yaml" in err

    @pytest.mark.parametrize(
        "text",
        [
            "task: !!float x\n",
            "!!int x\n",
            "!!int 0x\n",
            "!!float\n",
            "!!bool x\n",
            "!!timestamp x\n",
            "!!timestamp 2020-13-45\n",
        ],
    )
    def test_explicit_tag_on_a_value_it_cannot_hold_is_exit_2(self, tmp_path, capsys, text):
        # PyYAML's constructor raises ValueError, KeyError, IndexError or
        # AttributeError on these, not a YAMLError.
        path = str(tmp_path / "tagged.yaml")
        Path(path).write_text(text, encoding="utf-8")
        for argv in (["validate", path], ["run", path], ["sweep", path, "--capacities", "100"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"parse error: {path}: ")
            assert "Traceback" not in err

    def test_utf16_file_with_bom_loads_like_utf8(self, tmp_path):
        path = tmp_path / "fig5-utf16.yaml"
        path.write_bytes(Path(FIG5_YAML).read_text(encoding="utf-8").encode("utf-16"))
        assert path.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
        assert load_scenario(str(path)) == load_scenario(FIG5_YAML)
        assert main(["validate", str(path)]) == 0


FEATURE_SNIPPETS = [
    "base: &b {x: 1, y: [1, 2]}\nmerged: {<<: *b, y: 3}\nalias: *b\n",
    "list:\n  - &one 1\n  - *one\nmulti: {<<: [{a: 1}, {b: 2}], c: 3}\n",
    "date: 2018-05-12\nstamp: 2001-12-14t21:59:43.10-05:00\nspaced: 2001-12-14 21:59:43.10 -5\n",
    "values: [.inf, -.Inf, .NAN, .nan, 1e3, 6.8523015e+5, -0.0, 685_230.15]\n",
    "ints: [0x1F, 0o17, 0b101, -0, +12, 1_000, 190:20:30]\n",
    "flags: [yes, No, on, OFF, true, False, y, n, ~, null, Null]\n",
    "blob: !!binary |\n  ZWRnZXN3YXJtAP8=\n",
    "set: !!set {a, b, c}\nomap: !!omap [{z: 1}, {a: 2}]\npairs: !!pairs [{a: 1}, {a: 2}]\n",
    "dup: 1\ndup: 2\nnested: {k: 1, k: 2}\n",
    "literal: |\n  line one\n  line two\nfolded: >-\n  folded\n  text\n\n  kept\nkeep: |+\n  x\n\n",
    "emoji: \"\\U0001F600 \\u00e9\"\nraw: 😀𝄞\nquoted: 'it''s'\n",
    "'quoted key': {nested: [a, {b: c}]}\n",
    "empty_map: {}\nempty_list: []\nempty: \nstr: !!str 12\nint: !!int '7'\nfloat: !!float '1'\n",
    "--- \n- a\n- b\n...\n",
    "",
    "just a scalar\n",
]

MALFORMED_SNIPPETS = [
    "task: [unclosed\n",
    "task: {unclosed: 1\n",
    "a: b: c\n",
    "a: *undefined\n",
    "a: !!python/object:os.system echo\n",
    "a: !!python/name:os.system ''\n",
    "a: 1\n---\nb: 2\n",
    "a:\n\tb: 1\n",
    "a: 'unterminated\n",
    "a: &x 1\nb: &x\n  - *y\n",
    "a: !!binary a\n",
    "? [unhashable]\n: v\n",
]


def load_with_cli_loader(text: str):
    return yaml.load(text.encode("utf-8"), Loader=_ScenarioLoader)


class TestLoader:
    """The CLI's loader builds exactly the tree ``yaml.safe_load`` builds.

    Without libyaml the loader is ``yaml.SafeLoader`` itself, so these
    cover that path too.
    """

    def test_example_file(self):
        with open(FIG5_YAML, "rb") as handle:
            assert repr(yaml.load(handle, Loader=_ScenarioLoader)) == repr(fig5_tree())

    def test_serialized_batch(self):
        for scenario in scenario_batch(0x09AC1E, 200):
            text = serialize_scenario(scenario)
            assert repr(load_with_cli_loader(text)) == repr(yaml.safe_load(text))

    @pytest.mark.parametrize("text", FEATURE_SNIPPETS)
    def test_yaml_features(self, text):
        assert repr(load_with_cli_loader(text)) == repr(yaml.safe_load(text))

    @pytest.mark.parametrize("text", MALFORMED_SNIPPETS)
    def test_malformed_raise_the_same_error(self, text):
        with pytest.raises(yaml.YAMLError) as expected:
            yaml.safe_load(text)
        with pytest.raises(yaml.YAMLError) as got:
            load_with_cli_loader(text)
        assert type(got.value) is type(expected.value)


def load_outcome(load, data: bytes):
    """``repr`` of the tree ``load`` builds from ``data``, or its error's
    type and message."""
    try:
        return repr(load(io.BytesIO(data)))
    except Exception as error:  # every error is part of the outcome
        return type(error), str(error)


def full_loader(handle):
    return yaml.load(handle, Loader=_ScenarioLoader)


# Each file uses one feature the event walk leaves to the full loader.
FALLBACK_FILES = {
    "scalar anchor": "a: &x 1\nb: 2\n",
    "collection anchor": "a: &x [1]\nb: {c: 2}\n",
    "alias": "a: &x 1\nb: *x\n",
    "explicit tag": "a: !!str 1\n",
    "non-specific tag": "a: ! 1\n",
    "collection tag": "a: !!set {b, c}\n",
    "merge key": "base: {x: 1}\nmerged: {<<: {x: 2}, y: 3}\n",
    "value key": "=: 1\n",
    "sequence key": "? [a, b]\n: 1\n",
    "mapping key": "? {a: 1}\n: 2\n",
    "too deep": "[" * (cli._WALK_DEPTH + 1) + "]" * (cli._WALK_DEPTH + 1),
    "bad timestamp": "a: 2020-13-45\n",
    "value scalar": "a: =\n",
    "second document": "a: 1\n---\nb: 2\n",
    "second document's error": "a: 1\n--- [unclosed\n",
}


class TestEventWalk:
    """``load_scenario`` builds trees from the parser's events and leaves
    every other file to ``_ScenarioLoader``, with the same outcome."""

    @pytest.fixture
    def composed(self, monkeypatch):
        """The number of documents PyYAML's composer builds, which only the
        full loader does."""
        calls = []
        compose_document = yaml.composer.Composer.compose_document

        def counted(loader):
            calls.append(None)
            return compose_document(loader)

        monkeypatch.setattr(yaml.composer.Composer, "compose_document", counted)
        return calls

    def assert_walked(self, data: bytes, composed):
        expected = load_outcome(full_loader, data)
        composed.clear()
        assert load_outcome(cli._load_yaml, data) == expected
        assert composed == []

    def test_example_file_is_walked(self, composed):
        data = Path(FIG5_YAML).read_bytes()
        self.assert_walked(data, composed)
        self.assert_walked(data.decode("utf-8").encode("utf-16"), composed)
        expected = parse_scenario(fig5_tree())
        composed.clear()
        assert load_scenario(FIG5_YAML) == expected
        assert composed == []

    def test_serialized_batch_is_walked(self, composed):
        for scenario in scenario_batch(0x09AC1E, 200):
            self.assert_walked(serialize_scenario(scenario).encode("utf-8"), composed)

    def test_nesting_up_to_the_bound_is_walked(self, composed):
        depth = cli._WALK_DEPTH
        self.assert_walked(("[" * depth + "]" * depth).encode(), composed)
        self.assert_walked(("{a: " * depth + "b" + "}" * depth).encode(), composed)

    @pytest.mark.parametrize("text", FEATURE_SNIPPETS + MALFORMED_SNIPPETS)
    def test_snippets_load_as_the_full_loader_loads_them(self, text):
        data = text.encode("utf-8")
        assert load_outcome(cli._load_yaml, data) == load_outcome(full_loader, data)

    @pytest.mark.parametrize("name", sorted(FALLBACK_FILES))
    def test_fallback(self, name, composed):
        data = FALLBACK_FILES[name].encode("utf-8")
        expected = load_outcome(full_loader, data)
        composed.clear()
        assert load_outcome(cli._load_yaml, data) == expected
        assert composed == [None]

    def test_fallback_errors_keep_their_exit_code(self, tmp_path, capsys):
        path = tmp_path / "stamp.yaml"
        path.write_text("task: 2020-13-45\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: {path}: month must be in 1..12\n"


# Loads a scenario and validates a second file with the CLI, after hiding
# libyaml first when asked to: then the loader is yaml.SafeLoader itself.
LOADER_SCRIPT = """
import sys

import yaml

if sys.argv[1] == "pure":
    yaml.__with_libyaml__ = False
from edgeswarm import cli

print(cli._ScenarioLoader is yaml.SafeLoader)
print(repr(cli.load_scenario(sys.argv[2])))
sys.exit(cli.main(["validate", sys.argv[3]]))
"""


class TestLoaderWithoutLibyaml:
    def test_same_scenario_and_nesting_error_as_with_libyaml(self, tmp_path):
        deep = tmp_path / "deep.yaml"
        deep.write_text(DEEP_FILES["flow_sequence"], encoding="utf-8")
        # One hash seed for both, so the reprs list set members alike.
        pure, default = (
            run_python("-c", LOADER_SCRIPT, mode, FIG5_YAML, str(deep), PYTHONHASHSEED="0")
            for mode in ("pure", "default")
        )
        assert pure.stdout.splitlines()[0] == "True"
        assert default.stdout.splitlines()[0] == str(not yaml.__with_libyaml__)
        assert pure.stdout.splitlines()[1] == default.stdout.splitlines()[1]
        assert pure.returncode == 2
        assert f"parse error: {deep}: nesting too deep" in pure.stderr
        assert "Traceback" not in pure.stderr


def tree_paths(tree, prefix=()):
    """Every path into ``tree``, the root's ``()`` first."""
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from tree_paths(value, (*prefix, key))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from tree_paths(value, (*prefix, index))


def at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


# Mostly numbers and the schema's own words, so that many mutated files
# parse and reach validation.
LEAF_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0, -1, 0.5, 1e15, 2**60, 10**400,
    2377, 4789, None, True, "", "edge-a", "feat-image.app", "top_k", "leader_only",
    "rate_weighted", "multicast", "per_node_overlap", [], [1], ["feat-image.app"], {},
]


@st.composite
def mutated_fig5_trees(draw):
    """fig5's tree with 1-3 leaves replaced, keys added or keys removed."""
    tree = fig5_tree()
    for _ in range(draw(st.integers(1, 3))):
        paths = list(tree_paths(tree))
        path = draw(st.sampled_from(paths))
        target = at(tree, path)
        kind = draw(st.sampled_from(["replace", "replace", "replace", "remove", "extra"]))
        if kind == "extra" and isinstance(target, dict):
            key = draw(st.sampled_from(["k", "extra", "id"]))
            target[key] = copy.deepcopy(draw(st.sampled_from(LEAF_VALUES)))
        elif kind == "extra" and isinstance(target, list) and target:
            target.append(copy.deepcopy(draw(st.sampled_from(target))))
        elif path and kind == "remove":
            del at(tree, path[:-1])[path[-1]]
        elif path:
            at(tree, path[:-1])[path[-1]] = copy.deepcopy(draw(st.sampled_from(LEAF_VALUES)))
    return tree


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestEveryFileGetsAnExitCode:
    @given(tree=mutated_fig5_trees())
    @settings(max_examples=60, deadline=None)
    def test_mutated_scenarios(self, tree):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "mutated.yaml")
            with open(path, "w", encoding="utf-8") as handle:
                yaml.safe_dump(tree, handle, sort_keys=False)
            validated = quiet_main(["validate", path])
            codes = [
                quiet_main(["run", path]),
                quiet_main(["run", path, "--mode", "strict_barrier"]),
                quiet_main(["run", path, "--mode", "per_node_overlap"]),
                quiet_main(["sweep", path, "--capacities", "100,1000"]),
            ]
        assert validated in (0, 1, 2)
        assert set(codes) <= {0, 1, 2}
        if validated == 0:
            assert codes == [0, 0, 0, 0]


class TestSharedParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_parsing_leaves_no_state(self):
        build_parser().parse_args(["run", FIG5_YAML, "--seed", "3", "--mode", "per_node_overlap"])
        args = build_parser().parse_args(["run", FIG5_YAML])
        assert (args.seed, args.mode, args.trace) == (None, None, None)

    def test_repeated_calls_print_what_fresh_processes_print(self, capsys):
        # A leaked --mode would change the second line; a leaked --seed would not.
        calls = [["run", FIG5_YAML, "--seed", "3", "--mode", "per_node_overlap"], ["run", FIG5_YAML]]
        in_process = []
        for argv in calls:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        fresh = [run_cli(*argv) for argv in calls]
        assert [result.returncode for result in fresh] == [0, 0]
        assert in_process == [result.stdout for result in fresh]
        assert in_process[0] != in_process[1]
