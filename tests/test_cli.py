import io
import math
from pathlib import Path

import pytest
import yaml

from edgeswarm.cli import (
    CSV_HEADER,
    FIG5_CAPACITIES_KBPS,
    ScenarioParseError,
    _parse_capacities,
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

    def test_ports_are_listed_explicitly(self):
        tree = scenario_to_dict(fig5_scenario())
        assert tree["nodes"][0]["ports"] == [2377, 4789, 7946]
