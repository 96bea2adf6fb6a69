import dataclasses
import gc
import hashlib
import heapq
import math
import random
import sys
import weakref
from bisect import bisect_left
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeswarm import scenario as scenario_module
from edgeswarm import sim as sim_module
from edgeswarm import swarmproto
from edgeswarm.cli import FIG5_CAPACITIES_KBPS
from edgeswarm.latency import analytic_scenario, waterfill_completions
from edgeswarm.model import BPS_PER_KBPS, ValidationError
from edgeswarm.scenario import (
    PER_NODE_OVERLAP,
    STRICT_BARRIER,
    ScenarioPolicy,
    ScenarioValidationError,
    SimSettings,
    as_baseline,
    fig5_scenario,
    prepare,
    validate_scenario,
    with_per_link_capacity,
)
from edgeswarm.sim import SimReport, SweepRow, _Engine, run, sweep
from edgeswarm.swarmproto import SwarmNetworkConfig
from conftest import random_scenario, scenario_batch, swarm_scenario
from oracles import overlap_makespan, strict_barrier_totals

FIG5_TOTAL = 2.0 + 15.04 + 1110 / 38.144


def components_close(a, b, rel=1e-9):
    for x, y in zip(a.components() + (a.t_total_s,), b.components() + (b.t_total_s,)):
        if not math.isclose(x, y, rel_tol=rel, abs_tol=1e-12):
            return False
    return True


# sha256 over repr((trace, breakdown, per_node_timeline, success)) of each
# run in order. repr keeps every float bit; to_line()'s %g would hide a
# change in the last digits.
TRACE_DIGESTS = {
    ("fig5", STRICT_BARRIER): "ba434b5da5f0e7b89714583a51ba43eb84f46ff0372dd66a6fff6ace0ab22ea4",
    ("fig5", PER_NODE_OVERLAP): "bb1795790ffc8ef289a4b279487de4185be0a93107b739253d8f1e770ee85816",
    ("batch", STRICT_BARRIER): "6abcd0ad907fc76d93a9ec785541eeaea90e197ff3d40fd244592221e610c2f9",
    ("batch", PER_NODE_OVERLAP): "02c3fc811754034cc2b225072427cfee15c81dcd5ac3eb0787977146c0c09c2d",
}


def report_digest(scenarios, mode) -> str:
    digest = hashlib.sha256()
    for scenario in scenarios:
        r = run(scenario, mode)
        digest.update(repr((r.trace, r.breakdown, r.per_node_timeline, r.success)).encode())
    return digest.hexdigest()


class TestTraceDigests:
    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_reports_are_pinned(self, mode):
        for name, scenarios in (
            ("fig5", [fig5_scenario()]),
            ("batch", scenario_batch(0x09AC1E, 200)),
        ):
            assert report_digest(scenarios, mode) == TRACE_DIGESTS[(name, mode)], name


# Same digest as TRACE_DIGESTS, over swarm_scenario(0x5123, 320),
# where fair-share delivery drains one batch per distinct chunk size.
MANY_SIZES_DIGESTS = {
    STRICT_BARRIER: "6fea903188b5d249b1aa62a161127a42050732530a08ef848b88a1eb0fba3990",
    PER_NODE_OVERLAP: "14ac6bc88f77f9a7a46bee472f4abd4bd43b8e79b16ccd3a7f56b48d6e7f3e70",
}


class TestManyChunkSizes:
    @pytest.fixture(scope="class")
    def scenario(self):
        return swarm_scenario(0x5123, 320)

    def test_chunks_take_many_sizes(self, scenario):
        assert len({chunk.size_bits for chunk in prepare(scenario).chunks}) >= 100

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_reports_are_pinned(self, scenario, mode):
        assert report_digest([scenario], mode) == MANY_SIZES_DIGESTS[mode]


# Same digest again, over swarm_scenario(0x250, 250, "equal", mode): a
# unicast-equal swarm and a multicast one, both with result return on.
LARGE_SWARM_DIGESTS = {
    ("unicast", STRICT_BARRIER): "769608c1680d99c50825fb3f3657b26a9d21da2083dd8b375c239d69a5c56821",
    ("unicast", PER_NODE_OVERLAP): "68a17781ed7450598f9956490b4ef4756f16405f25aa893c9dd66e498826e348",
    ("multicast", STRICT_BARRIER): "4a88ea2be6f95a2bb704c0c75ec3deed86bba40c845e5f120e8433f3854da936",
    ("multicast", PER_NODE_OVERLAP): "c135682972380165f0780ce9cca37d247dffe42125d1288a171a0ca4da326235",
}


class TestLargeSwarms:
    @pytest.mark.parametrize("delivery, mode", list(LARGE_SWARM_DIGESTS))
    def test_reports_are_pinned(self, delivery, mode):
        scenario = swarm_scenario(0x250, 250, "equal", delivery)
        assert report_digest([scenario], mode) == LARGE_SWARM_DIGESTS[(delivery, mode)]


# Every numeric field of fig5's task, function, second node and channel,
# with the rule a value that is not a number breaks.
NUMERIC_FIELDS = [
    ("task", None, "duration_s", "task.duration_s: must be a number"),
    ("task", None, "fps", "task.fps: must be a number"),
    ("task", None, "width_px", "task.width_px: must be a positive integer"),
    ("task", None, "height_px", "task.height_px: must be a positive integer"),
    ("task", None, "total_size_bits", "task.total_size_bits: must be an integer >= 0"),
    ("task", None, "deadline_s", "task.deadline_s: must be a number"),
    (
        "functions", 0, "per_frame_cost_wu",
        "functions[feat-extract].per_frame_cost_wu: must be a number",
    ),
    ("functions", 0, "output_ratio", "functions[feat-extract].output_ratio: must be a number"),
    ("nodes", 1, "compute_rate_wu_s", "nodes[edge-b].compute_rate_wu_s: must be a number"),
    ("nodes", 1, "cpu_budget_fraction", "nodes[edge-b].cpu_budget_fraction: must be a number"),
    ("nodes", 1, "memory_budget_bits", "nodes[edge-b].memory_budget_bits: must be a number"),
    ("nodes", 1, "container_startup_s", "nodes[edge-b].container_startup_s: must be a number"),
    ("channel", None, "source_channel_capacity_bps", "channel.source_total: must be a number"),
    ("channel", None, "internode_capacity_bps", "channel.internode: must be a number"),
    ("channel", None, "edge_to_server_capacity_bps", "channel.server: must be a number"),
]


def counted_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` with a wrapper that records each call's
    arguments in the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def counted_everywhere(monkeypatch, name) -> list:
    """:func:`counted_calls` for swarmproto's ``name``, in every edgeswarm
    module that holds it, recording into one list."""
    original = getattr(swarmproto, name)
    calls = counted_calls(monkeypatch, swarmproto, name)
    for module in [m for n, m in sys.modules.items() if n.startswith("edgeswarm")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, getattr(swarmproto, name))
    return calls


class TestValidateScenario:
    def test_fig5_is_clean(self):
        assert validate_scenario(fig5_scenario()) == []

    def test_random_scenarios_are_clean(self):
        for scenario in scenario_batch(0xBA7C4, 50):
            assert validate_scenario(scenario) == []

    def test_cpu_budget_out_of_range(self):
        scenario = fig5_scenario()
        bad = dataclasses.replace(scenario.nodes[1], cpu_budget_fraction=1.3)
        scenario = dataclasses.replace(scenario, nodes=(scenario.nodes[0], bad))
        assert (
            "nodes[edge-b].cpu_budget_fraction: must be in (0, 1], got 1.3"
            in validate_scenario(scenario)
        )

    def test_no_image_holder(self):
        scenario = fig5_scenario()
        stripped = dataclasses.replace(scenario.nodes[0], stored_layer_ids=frozenset())
        scenario = dataclasses.replace(scenario, nodes=(stripped, scenario.nodes[1]))
        violations = validate_scenario(scenario)
        assert any(v.startswith("NoImageHolder") for v in violations)

    def test_closed_management_port(self):
        scenario = dataclasses.replace(
            fig5_scenario(),
            network=SwarmNetworkConfig(ports_open={"edge-a": frozenset({7946, 4789})}),
        )
        assert "nodes[edge-a].ports: required port 2377 is closed" in validate_scenario(scenario)

    def test_nonpositive_channel(self):
        scenario = fig5_scenario()
        chan = dataclasses.replace(scenario.channel, internode_capacity_bps=0.0)
        violations = validate_scenario(dataclasses.replace(scenario, channel=chan))
        assert any(v.startswith("channel.internode") for v in violations)

    def test_every_per_node_violation_in_order(self):
        scenario = fig5_scenario()
        bad_node = dataclasses.replace(
            scenario.nodes[1],
            cpu_budget_fraction=1.5,
            compute_rate_wu_s=-2.0,
            memory_budget_bits=-1,
            container_startup_s=math.inf,
        )
        scenario = dataclasses.replace(
            scenario,
            nodes=(scenario.nodes[0], bad_node),
            network=SwarmNetworkConfig(ports_open={"edge-b": frozenset({7946})}),
        )
        assert validate_scenario(scenario) == [
            "nodes[edge-b].cpu_budget_fraction: must be in (0, 1], got 1.5",
            "nodes[edge-b].compute_rate_wu_s: must be >= 0, got -2.0",
            "nodes[edge-b]: effective compute rate must be positive",
            "nodes[edge-b].memory_budget_bits: must be >= 0, got -1",
            "nodes[edge-b].container_startup_s: must be finite and >= 0, got inf",
            "nodes[edge-b].ports: required port 2377 is closed",
            "nodes[edge-b].ports: required port 4789 is closed",
        ]

    def test_every_violation_is_reported(self):
        scenario = fig5_scenario()
        bad_node = dataclasses.replace(scenario.nodes[1], cpu_budget_fraction=0.0)
        bad_chan = dataclasses.replace(scenario.channel, source_channel_capacity_bps=-1.0)
        bad_policy = dataclasses.replace(scenario.policy, split="fancy")
        scenario = dataclasses.replace(
            scenario,
            nodes=(scenario.nodes[0], bad_node),
            channel=bad_chan,
            policy=bad_policy,
        )
        violations = validate_scenario(scenario)
        assert len(violations) >= 3
        joined = "\n".join(violations)
        assert "cpu_budget_fraction" in joined
        assert "channel.source_total" in joined
        assert "policy.split" in joined

    def test_top_k_requires_k(self):
        scenario = fig5_scenario()
        policy = dataclasses.replace(scenario.policy, group="top_k", k=None)
        violations = validate_scenario(dataclasses.replace(scenario, policy=policy))
        assert any(v.startswith("policy.k") for v in violations)

    def test_run_raises_with_all_violations(self):
        scenario = fig5_scenario()
        chan = dataclasses.replace(scenario.channel, internode_capacity_bps=-2.0)
        scenario = dataclasses.replace(scenario, channel=chan)
        with pytest.raises(ScenarioValidationError) as err:
            run(scenario)
        assert err.value.violations == validate_scenario(scenario)

    @pytest.mark.parametrize(
        "change, violations",
        [
            (
                lambda s: dataclasses.replace(s, nodes=()),
                [
                    "nodes: at least one node is required",
                    "NoImageHolder: no node stores the read-only layers of image 'feat-image'",
                ],
            ),
            (
                lambda s: dataclasses.replace(s, nodes=(s.nodes[0], s.nodes[0])),
                ["nodes: duplicate node ids"],
            ),
            (
                lambda s: replace_leaf(s, "task", None, "duration_s", -1.0),
                ["task.duration_s: must be >= 0, got -1.0"],
            ),
            (
                lambda s: replace_leaf(s, "task", None, "width_px", 1280.0),
                ["task.width_px: must be a positive integer, got 1280.0"],
            ),
            (
                lambda s: replace_leaf(s, "nodes", 0, "compute_rate_wu_s", math.inf),
                ["nodes[edge-a].compute_rate_wu_s: must be finite, got inf"],
            ),
            (
                lambda s: dataclasses.replace(s, policy=ScenarioPolicy(group="top_k", k=2.0)),
                ["policy.k: top_k needs an integer k >= 1, got 2.0"],
            ),
            (
                lambda s: dataclasses.replace(s, sim=SimSettings(mode="loose", seed=7.0)),
                ["sim.mode: unknown mode 'loose'", "sim.seed: must be an integer, got 7.0"],
            ),
            *(
                (
                    lambda s, store=store: replace_leaf(s, "nodes", 1, "stored_layer_ids", store),
                    [f"nodes[edge-b].stored_layer_ids: must be a set of layer ids, got {store!r}"],
                )
                for store in (None, "feat-image.app", ("feat-image.app",))
            ),
            (
                # The only holder's store is not a set, so nobody holds the image.
                lambda s: replace_leaf(s, "nodes", 0, "stored_layer_ids", "feat-image.app"),
                [
                    "nodes[edge-a].stored_layer_ids: must be a set of layer ids, "
                    "got 'feat-image.app'",
                    "NoImageHolder: no node stores the read-only layers of image 'feat-image'",
                ],
            ),
            *(
                (
                    lambda s, value=value: replace_leaf(s, "policy", None, "ignore_return", value),
                    [f"policy.ignore_return: must be a boolean, got {value!r}"],
                )
                for value in ("no", 0, None)
            ),
            # A nan id used to pass the gate, then break form_group's id sort.
            *(
                (
                    lambda s, node_id=node_id: replace_leaf(s, "nodes", 1, "node_id", node_id),
                    [f"nodes[{node_id!r}].node_id: must be a string, got {node_id!r}"],
                )
                for node_id in (math.nan, None, 1.5, -1)
            ),
        ],
        ids=[
            "no_nodes", "duplicate_ids", "duration", "width", "rate", "k", "sim",
            "store_none", "store_str", "store_tuple", "holder_store_str",
            "ignore_return_str", "ignore_return_int", "ignore_return_none",
            "node_id_nan", "node_id_none", "node_id_float", "node_id_int",
        ],
    )
    def test_names_the_rule_broken(self, change, violations):
        scenario = change(fig5_scenario())
        assert validate_scenario(scenario) == violations
        for entry_point in (analytic_scenario, run):
            with pytest.raises(ScenarioValidationError) as err:
                entry_point(scenario)
            assert err.value.violations == violations

    @pytest.mark.parametrize("size", [30_080_000.0, 30_080_000.5, True])
    def test_task_size_must_be_an_int(self, size):
        scenario = replace_leaf(fig5_scenario(), "task", None, "total_size_bits", size)
        assert validate_scenario(scenario) == [
            f"task.total_size_bits: must be an integer >= 0, got {size!r}"
        ]
        with pytest.raises(ScenarioValidationError):
            run(scenario)

    @pytest.mark.parametrize("value", ["x", None, True])
    @pytest.mark.parametrize(
        "section, index, name, rule",
        NUMERIC_FIELDS,
        ids=[f"{section}.{name}" for section, _, name, _ in NUMERIC_FIELDS],
    )
    def test_non_number_is_named(self, section, index, name, rule, value):
        scenario = replace_leaf(fig5_scenario(), section, index, name, value)
        violations = [f"{rule}, got {value!r}"]
        assert validate_scenario(scenario) == violations
        for entry_point in (analytic_scenario, run):
            with pytest.raises(ScenarioValidationError) as err:
                entry_point(scenario)
            assert err.value.violations == violations

    def test_every_numeric_field_is_covered(self):
        numeric = {
            (section, name)
            for section, _, name, leaf in leaves(fig5_scenario())
            if section not in ("policy", "sim") and not isinstance(leaf, str)
        }
        assert numeric == {(section, name) for section, _, name, _ in NUMERIC_FIELDS}


# Out-of-range numbers for any numeric leaf: non-finite, zero, negative,
# fractional, overflowing and subnormal.
BAD_NUMBERS = [math.nan, math.inf, -math.inf, 0, -1, 0.5, 1e308, 1e-320]


def leaves(scenario):
    """(section, index, field, value) of every number and string in the
    task, functions, nodes, channel, policy and sim settings."""
    for section in ("task", "functions", "nodes", "channel", "policy", "sim"):
        value = getattr(scenario, section)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for index, item in items:
            for field in dataclasses.fields(item):
                leaf = getattr(item, field.name)
                if not isinstance(leaf, (bool, frozenset)):
                    yield section, index, field.name, leaf


def replace_leaf(scenario, section, index, name, value):
    holder = getattr(scenario, section)
    if index is None:
        return dataclasses.replace(
            scenario, **{section: dataclasses.replace(holder, **{name: value})}
        )
    items = list(holder)
    items[index] = dataclasses.replace(items[index], **{name: value})
    return dataclasses.replace(scenario, **{section: tuple(items)})


def bad_values(leaf):
    """An unknown id or kind for a string; for a number (or an unset k),
    every out-of-range number and a float where an int belongs."""
    if isinstance(leaf, str):
        return ["ghost"]
    return BAD_NUMBERS + [2.0 if leaf is None else float(leaf)]


@st.composite
def mutated_scenarios(draw):
    """A conftest random scenario with 1-2 leaves replaced by bad values."""
    scenario = random_scenario(random.Random(draw(st.integers(0, 2**32 - 1))))
    for _ in range(draw(st.integers(1, 2))):
        section, index, name, leaf = draw(st.sampled_from(list(leaves(scenario))))
        value = draw(st.sampled_from(bad_values(leaf)))
        scenario = replace_leaf(scenario, section, index, name, value)
    return scenario


class TestOneGate:
    """run, sweep and analytic_scenario accept exactly what
    validate_scenario accepts, and reject the rest with its violations."""

    @given(scenario=mutated_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_entry_points_agree_with_the_gate(self, scenario):
        violations = validate_scenario(scenario)
        entry_points = (
            analytic_scenario,
            lambda s: run(s, STRICT_BARRIER).breakdown,
            lambda s: run(s, PER_NODE_OVERLAP).breakdown,
        )
        for entry_point in entry_points:
            if violations:
                with pytest.raises(ScenarioValidationError) as err:
                    entry_point(scenario)
                assert err.value.violations == violations
            else:
                assert math.isfinite(entry_point(scenario).t_total_s)
        # sweep replaces the source and inter-node capacities, so it
        # validates the template with the first row's values in them.
        first_row = with_per_link_capacity(scenario, 1e6, max(len(scenario.nodes), 1))
        row_violations = validate_scenario(first_row)
        assert not (row_violations and not violations)
        if row_violations:
            with pytest.raises(ScenarioValidationError) as err:
                sweep(scenario, [1e6])
            assert err.value.violations == row_violations
        else:
            assert len(sweep(scenario, [1e6])) == 1


def replace_layer_size(scenario, which, bits):
    """``scenario`` with its image's first read-only layer (``which`` is
    ``"layers"``) or its writable layer resized to ``bits``."""
    image = scenario.images[0]
    if which == "layers":
        layer = dataclasses.replace(image.layers[0], size_bits=bits)
        image = dataclasses.replace(image, layers=(layer, *image.layers[1:]))
    else:
        image = dataclasses.replace(
            image, rw_layer=dataclasses.replace(image.rw_layer, size_bits=bits)
        )
    return dataclasses.replace(scenario, images=(image,))


# Every numeric model field, as a function (scenario, value) -> scenario.
# output_ratio is read only when results return, so it is set both ways;
# k is read only by top_k.
SET_NUMBER = {
    **{
        f"{section}.{name}": lambda s, v, at=(section, index, name): replace_leaf(s, *at, v)
        for section, index, name, _ in NUMERIC_FIELDS
    },
    "functions.output_ratio.returned": lambda s, v: replace_leaf(
        replace_leaf(s, "policy", None, "ignore_return", False), "functions", 0, "output_ratio", v
    ),
    "images.layers.size_bits": lambda s, v: replace_layer_size(s, "layers", v),
    "images.rw_layer.size_bits": lambda s, v: replace_layer_size(s, "rw_layer", v),
    "policy.k": lambda s, v: dataclasses.replace(s, policy=ScenarioPolicy(group="top_k", k=v)),
    "sim.seed": lambda s, v: replace_leaf(s, "sim", None, "seed", v),
}


def model_type(section, index, name) -> str:
    holder = getattr(fig5_scenario(), section)
    item = holder if index is None else holder[index]
    return {field.name: field.type for field in dataclasses.fields(item)}[name]


# Fields the model types float, but output_ratio, which only the return reads.
FLOAT_FIELDS = [
    field for field in NUMERIC_FIELDS
    if model_type(*field[:3]) == "float" and field[2] != "output_ratio"
]

# Entry points of API callers; the CLI makes every file number a float first.
ENTRY_POINTS = {
    "validate_scenario": validate_scenario,
    "run": run,
    "analytic_scenario": analytic_scenario,
    "sweep": lambda scenario: sweep(scenario, [1e6]),
}


class TestIntegersBeyondFloats:
    """An int in any numeric field that no float can hold (10**400) or
    that one just holds (int(1e308)): nothing raises but the gate's own
    error, and a scenario the gate passes runs."""

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "value", [10**400, int(1e308), -10**5000], ids=["10**400", "int(1e308)", "-10**5000"]
    )
    @pytest.mark.parametrize("field", list(SET_NUMBER))
    def test_named_or_run(self, field, value, entry):
        scenario = SET_NUMBER[field](fig5_scenario(), value)
        clean = not validate_scenario(scenario)
        try:
            ENTRY_POINTS[entry](scenario)
        except ScenarioValidationError:
            assert not clean

    @pytest.mark.parametrize(
        "section, index, name, rule",
        FLOAT_FIELDS,
        ids=[f"{section}.{name}" for section, _, name, _ in FLOAT_FIELDS],
    )
    def test_float_field_names_the_integer_by_size(self, section, index, name, rule):
        scenario = replace_leaf(fig5_scenario(), section, index, name, 10**400)
        field = rule.split(":")[0]
        assert validate_scenario(scenario) == [
            f"{field}: must fit a float, got a 1329-bit integer"
        ]

    @pytest.mark.parametrize(
        "field",
        [
            "task.width_px", "task.height_px", "nodes.memory_budget_bits",
            "functions.output_ratio", "policy.k", "sim.seed",
        ],
    )
    def test_fields_that_take_any_integer(self, field):
        assert validate_scenario(SET_NUMBER[field](fig5_scenario(), 10**400)) == []

    @pytest.mark.parametrize(
        "field, rule",
        [
            ("task.width_px", "task.width_px: must be a positive integer"),
            ("task.height_px", "task.height_px: must be a positive integer"),
            ("task.total_size_bits", "task.total_size_bits: must be an integer >= 0"),
            (
                "images.layers.size_bits",
                "images[feat-image].layers[feat-image.app].size: must be an integer >= 0",
            ),
            ("nodes.memory_budget_bits", "nodes[edge-b].memory_budget_bits: must be >= 0"),
            ("policy.k", "policy.k: top_k needs an integer k >= 1"),
        ],
    )
    def test_message_names_an_integer_past_4300_digits_by_size(self, field, rule):
        # repr of an int with more than 4,300 digits raises ValueError.
        scenario = SET_NUMBER[field](fig5_scenario(), -10**5000)
        violations = [f"{rule}, got a 16610-bit integer"]
        assert validate_scenario(scenario) == violations
        for name, entry in ENTRY_POINTS.items():
            if name != "validate_scenario":
                with pytest.raises(ScenarioValidationError) as err:
                    entry(scenario)
                assert err.value.violations == violations


class TestIdsBeyondRepr:
    """A function, image or layer id of more than 4,300 digits is named by
    its size in every message prefix, as a node id is."""

    @pytest.mark.parametrize("huge", [10**5000, -10**5000], ids=["+10**5000", "-10**5000"])
    @pytest.mark.parametrize("field", ["function_id", "image_id", "layer_id"])
    def test_only_the_gate_error(self, field, huge):
        # A negative cost and size make every prefix print.
        scenario = replace_layer_size(fig5_scenario(), "layers", -1)
        scenario = replace_leaf(scenario, "functions", 0, "per_frame_cost_wu", -1.0)
        if field == "layer_id":
            layer = dataclasses.replace(scenario.images[0].layers[0], layer_id=huge)
            scenario = replace_leaf(
                scenario, "images", 0, "layers", (layer, *scenario.images[0].layers[1:])
            )
        else:
            section = "functions" if field == "function_id" else "images"
            scenario = replace_leaf(scenario, section, 0, field, huge)
        violations = validate_scenario(scenario)
        assert any("[a 16610-bit integer]" in violation for violation in violations)
        for name, entry in ENTRY_POINTS.items():
            if name != "validate_scenario":
                with pytest.raises(ScenarioValidationError) as err:
                    entry(scenario)
                assert err.value.violations == violations


def with_id(scenario, where, value):
    """``scenario`` with the id at ``where`` set to ``value``."""
    image = scenario.images[0]
    if where == "node_id":
        return replace_leaf(scenario, "nodes", 0, where, value)
    if where == "layer_id":
        layer = dataclasses.replace(image.layers[0], layer_id=value)
        return replace_leaf(scenario, "images", 0, "layers", (layer, *image.layers[1:]))
    if where == "rw_layer_id":
        layer = dataclasses.replace(image.rw_layer, layer_id=value)
        return replace_leaf(scenario, "images", 0, "rw_layer", layer)
    if where == "task.function_id":
        return replace_leaf(scenario, "task", None, "function_id", value)
    section = "images" if where == "image_id" else "functions"
    return replace_leaf(scenario, section, 0, where, value)


class TestIdsThatAreNotStrings:
    """An id the gate keys a set or dict with must be a ``str``; any other
    value is named, and the rules that key by id leave it out."""

    @pytest.mark.parametrize(
        "where, value, violations",
        [
            ("node_id", [1], ["nodes[[1]].node_id: must be a string, got [1]"]),
            ("node_id", {}, ["nodes[{}].node_id: must be a string, got {}"]),
            (
                "function_id",
                [1],
                [
                    "functions[[1]].function_id: must be a string, got [1]",
                    "task.function: unknown function 'feat-extract'",
                ],
            ),
            (
                "image_id",
                [1],
                [
                    "functions[feat-extract].image: unknown image 'feat-image'",
                    "images[[1]].image_id: must be a string, got [1]",
                ],
            ),
            (
                "layer_id",
                [1],
                ["images[feat-image].layers[[1]].layer_id: must be a string, got [1]"],
            ),
            (
                "rw_layer_id",
                {1},
                ["images[feat-image].layers[{1}].layer_id: must be a string, got {1}"],
            ),
            ("task.function_id", [1], ["task.function_id: must be a string, got [1]"]),
            (
                "required_image_id",
                [1],
                ["functions[feat-extract].required_image_id: must be a string, got [1]"],
            ),
        ],
    )
    def test_unhashable_ids_are_named(self, where, value, violations):
        scenario = with_id(fig5_scenario(), where, value)
        assert validate_scenario(scenario) == violations
        entries = [
            lambda s: run(s, STRICT_BARRIER),
            lambda s: run(s, PER_NODE_OVERLAP),
            analytic_scenario,
            lambda s: sweep(s, [1e6]),
        ]
        for entry in entries:
            with pytest.raises(ScenarioValidationError) as err:
                entry(scenario)
            assert err.value.violations == violations

    @pytest.mark.parametrize("where", ["function_id", "image_id", "layer_id", "rw_layer_id"])
    def test_int_ids_are_named(self, where):
        violations = validate_scenario(with_id(fig5_scenario(), where, 5))
        assert any(v.endswith(f".{where.removeprefix('rw_')}: must be a string, got 5")
                   for v in violations)

    def test_duplicate_rules_count_string_ids_only(self):
        scenario = fig5_scenario()
        fn = dataclasses.replace(scenario.functions[0], function_id=[1])
        scenario = dataclasses.replace(scenario, functions=(scenario.functions[0], fn, fn))
        assert "functions: duplicate function ids" not in validate_scenario(scenario)
        scenario = dataclasses.replace(scenario, functions=scenario.functions[:1] * 2)
        assert validate_scenario(scenario) == ["functions: duplicate function ids"]


class Float(float):
    pass


class Int(int):
    pass


class LayerIds(frozenset):
    pass


class NodeId(str):
    pass


def with_node_field(scenario, name, value):
    """``scenario`` with ``name`` set to ``value`` on every node, but the
    layer store, which only the image holder gets. For ``node_id``,
    ``value`` is a ``str`` subclass that each node's id is cast to."""
    if name == "stored_layer_ids":
        return replace_leaf(scenario, "nodes", 0, name, value)
    if name == "node_id":
        nodes = [dataclasses.replace(n, node_id=value(n.node_id)) for n in scenario.nodes]
        return dataclasses.replace(scenario, nodes=tuple(nodes))
    nodes = [dataclasses.replace(node, **{name: value}) for node in scenario.nodes]
    return dataclasses.replace(scenario, nodes=tuple(nodes))


class TestChannelThatIsNotAChannelModel:
    """The gate names a channel of another type, and skips the capacity
    and worst-case rules, which would read its fields."""

    @pytest.mark.parametrize(
        "channel, shown",
        [
            (None, "None"),
            ("x", "'x'"),
            (2e6, "2000000.0"),
            ((1e6, 1e6, 1e6), "(1000000.0, 1000000.0, 1000000.0)"),
        ],
        ids=["None", "str", "float", "tuple"],
    )
    def test_only_the_gate_error(self, channel, shown):
        scenario = dataclasses.replace(fig5_scenario(), channel=channel)
        expected = [f"channel: must be a ChannelModel, got {shown}"]
        assert validate_scenario(scenario) == expected
        for entry in (
            lambda: run(scenario, STRICT_BARRIER),
            lambda: run(scenario, PER_NODE_OVERLAP),
            lambda: analytic_scenario(scenario),
            lambda: sweep(scenario, [1e5, 1e6]),
        ):
            with pytest.raises(ScenarioValidationError) as err:
                entry()
            assert err.value.violations == expected

    def test_named_in_the_channel_rules_place(self):
        fig5 = fig5_scenario()
        scenario = dataclasses.replace(
            replace_leaf(fig5, "nodes", 1, "cpu_budget_fraction", 1.5),
            channel=None,
            policy=ScenarioPolicy(split="x"),
        )
        assert validate_scenario(scenario) == [
            "nodes[edge-b].cpu_budget_fraction: must be in (0, 1], got 1.5",
            "channel: must be a ChannelModel, got None",
            "policy.split: unknown kind 'x'",
        ]


class Opaque:
    """No model class; its repr is fixed, so messages can be pinned."""

    def __repr__(self):
        return "Opaque()"


# Values of the wrong class for a section or an item: none, a number, a
# string, a mapping, and a list holding something that is no model value.
WRONG_CLASSES = [None, 5, "x", {}, [Opaque()]]
SECTIONS = {
    "task": "a VideoTask",
    "functions": "a tuple of ProcessingFunction",
    "images": "a tuple of ContainerImage",
    "nodes": "a tuple of EdgeNode",
    "channel": "a ChannelModel",
    "policy": "a ScenarioPolicy",
    "sim": "a SimSettings",
    "network": "a SwarmNetworkConfig",
}
ITEMS = {"functions": "a ProcessingFunction", "images": "a ContainerImage", "nodes": "an EdgeNode"}


def wrong_section_violation(section, value):
    if section in ITEMS and isinstance(value, list):
        return f"{section}[0]: must be {ITEMS[section]}, got Opaque()"
    return f"{section}: must be {SECTIONS[section]}, got {value!r}"


def raises_only_gate_errors(scenario):
    """Every entry point on ``scenario`` raises ScenarioValidationError
    with the gate's own violations, which name something."""
    violations = validate_scenario(scenario)
    assert violations
    for entry in (
        lambda: run(scenario, STRICT_BARRIER),
        lambda: run(scenario, PER_NODE_OVERLAP),
        lambda: analytic_scenario(scenario),
        lambda: sweep(scenario, [1e6]),
    ):
        with pytest.raises(ScenarioValidationError) as err:
            entry()
        assert err.value.violations == violations
    return violations


class TestWrongClasses:
    """A section or item of the wrong class is named, with its value, and
    the rules that would read it are skipped: no entry point raises
    anything but the gate's own error."""

    @pytest.mark.parametrize("value", WRONG_CLASSES, ids=repr)
    @pytest.mark.parametrize("section", list(SECTIONS))
    def test_section(self, section, value):
        scenario = dataclasses.replace(fig5_scenario(), **{section: value})
        assert raises_only_gate_errors(scenario) == [wrong_section_violation(section, value)]

    @pytest.mark.parametrize("value", WRONG_CLASSES, ids=repr)
    @pytest.mark.parametrize(
        "section, index", [("functions", 0), ("images", 0), ("nodes", 0), ("nodes", 1)]
    )
    def test_item(self, section, index, value):
        items = list(getattr(fig5_scenario(), section))
        items[index] = value
        scenario = dataclasses.replace(fig5_scenario(), **{section: tuple(items)})
        assert raises_only_gate_errors(scenario) == [
            f"{section}[{index}]: must be {ITEMS[section]}, got {value!r}"
        ]

    @pytest.mark.parametrize(
        "change, violation",
        [
            ({"layers": None}, "images[feat-image].layers: must be a tuple of Layer, got None"),
            ({"layers": (5,)}, "images[feat-image].layers[0]: must be a Layer, got 5"),
            ({"rw_layer": "x"}, "images[feat-image].rw_layer: must be a Layer, got 'x'"),
        ],
        ids=["layers", "layer", "rw_layer"],
    )
    def test_image_part(self, change, violation):
        fig5 = fig5_scenario()
        image = dataclasses.replace(fig5.images[0], **change)
        assert raises_only_gate_errors(dataclasses.replace(fig5, images=(image,))) == [violation]

    def test_port_sets(self):
        network = SwarmNetworkConfig(ports_open={"edge-a": 2377})
        scenario = dataclasses.replace(fig5_scenario(), network=network)
        assert raises_only_gate_errors(scenario) == [
            "network.ports_open: must map node ids to sets of ports, got {'edge-a': 2377}"
        ]

    def test_not_a_scenario(self):
        assert validate_scenario(None) == ["scenario: must be a Scenario, got None"]
        with pytest.raises(ScenarioValidationError):
            run(None)

    def test_lists_run_as_tuples(self):
        fig5 = fig5_scenario()
        image = dataclasses.replace(fig5.images[0], layers=list(fig5.images[0].layers))
        scenario = dataclasses.replace(
            fig5, functions=list(fig5.functions), images=[image], nodes=list(fig5.nodes)
        )
        assert validate_scenario(scenario) == []
        for mode in (STRICT_BARRIER, PER_NODE_OVERLAP):
            assert run(scenario, mode).breakdown == run(fig5, mode).breakdown
        assert sweep(scenario, [1e6]) == sweep(fig5, [1e6])


class TestOneNodePath:
    """Every node goes through one per-node function, which tests its
    fields' exact classes at once before calling a rule."""

    @pytest.mark.parametrize(
        "name, value, same_numbers",
        [
            ("node_id", NodeId, True),
            ("compute_rate_wu_s", Float(95.36), True),
            ("compute_rate_wu_s", Int(95), False),
            ("cpu_budget_fraction", Float(0.4), True),
            ("cpu_budget_fraction", Int(1), False),
            ("memory_budget_bits", Int(4000 * 8 * 10**6), True),
            ("memory_budget_bits", Float(3.2e10), True),
            ("stored_layer_ids", LayerIds({"feat-image.app"}), True),
            ("container_startup_s", Float(0.0), True),
            ("container_startup_s", Int(1), False),
        ],
        ids=[
            "node_id", "rate-float", "rate-int", "budget-float", "budget-int", "memory-int",
            "memory-float", "layer_store", "startup-float", "startup-int",
        ],
    )
    def test_subclasses_validate_clean_and_run(self, name, value, same_numbers):
        scenario = with_node_field(fig5_scenario(), name, value)
        assert validate_scenario(scenario) == []
        for mode in (STRICT_BARRIER, PER_NODE_OVERLAP):
            breakdown = run(scenario, mode).breakdown
            assert math.isfinite(breakdown.t_total_s)
            if same_numbers:
                assert breakdown == run(fig5_scenario(), mode).breakdown

    def test_a_clean_node_calls_no_helper(self, monkeypatch):
        swarm = swarm_scenario(11, 250)
        alone = dataclasses.replace(swarm, nodes=swarm.nodes[:1])
        calls = {
            name: counted_calls(monkeypatch, scenario_module, name)
            for name in ("_shown", "_meets")
        }
        assert validate_scenario(alone) == []
        per_scenario = {name: len(made) for name, made in calls.items()}
        assert validate_scenario(swarm) == []
        # No message is formatted, and the nodes, 250 or one, add no call
        # to those the task, function and channel fields make.
        assert per_scenario["_shown"] == 0
        assert {name: len(made) for name, made in calls.items()} == {
            name: 2 * count for name, count in per_scenario.items()
        }


def assert_baseline_adds_no_violation(scenario):
    baseline = set(validate_scenario(as_baseline(scenario)))
    assert baseline <= set(validate_scenario(scenario))


class TestBaselineGate:
    """A row's leader-only baseline never has a violation the row lacks,
    which is why sweep gates only the cooperative scenario."""

    @given(scenario=mutated_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_mutated_scenarios(self, scenario):
        assert_baseline_adds_no_violation(scenario)

    def test_generated_scenarios(self):
        for scenario in scenario_batch(0x5EED, 200):
            assert_baseline_adds_no_violation(scenario)

    def test_a_bad_group_hides_no_worst_case(self):
        # The group and k rules come last, so the worst cases, which never
        # read them, are checked for the row as for its baseline.
        scenario = replace_leaf(fig5_scenario(), "channel", None, "internode_capacity_bps", 1e-320)
        scenario = replace_leaf(scenario, "policy", None, "group", "ghost")
        assert validate_scenario(scenario) == [
            "channel.internode: worst-case establish time must be finite, got inf",
            "policy.group: unknown kind 'ghost'",
        ]
        assert_baseline_adds_no_violation(scenario)


class TestEventOrder:
    """The engine's event heap must run events, same-time pushes
    included, exactly in the ``(time, seq)`` order of a plain heap."""

    @staticmethod
    def engine():
        return _Engine(prepare(fig5_scenario()), STRICT_BARRIER)

    def test_same_time_pushes_follow_due_heap_entries_in_push_order(self):
        engine, log = self.engine(), []

        def step(now, arg):
            name, pushes = arg
            log.append((now, name))
            for when, child, grandchildren in pushes:
                engine.push(when, step, (child, grandchildren))

        engine.push(1.0, step, ("a", ((1.0, "c", ((1.0, "e", ()), (2.0, "f", ()))), (1.0, "d", ()))))
        engine.push(1.0, step, ("b", ()))
        engine.push(0.0, step, ("z", ()))
        engine.drain()
        assert log == [
            (0.0, "z"), (1.0, "a"), (1.0, "b"), (1.0, "c"), (1.0, "d"), (1.0, "e"), (2.0, "f"),
        ]

    def test_push_into_the_past_raises(self):
        engine = self.engine()
        engine.push(1.0, lambda now, _: engine.push(now - 0.5, lambda now, _: None))
        with pytest.raises(AssertionError, match="event queue went backwards in time"):
            engine.drain()


class TestEngineLifetime:
    """Once drained, no reference cycle keeps a finished engine alive, so
    it goes with its last reference while the cyclic collector is off.
    That covers ``admit`` and the t=0 deploy step, which ride the heap."""

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    @pytest.mark.parametrize("name", ["fig5", "swarm"])
    def test_drained_engine_dies_with_its_last_reference(self, name, mode):
        scenario = fig5_scenario() if name == "fig5" else swarm_scenario(0x11FE, 60)
        prep = prepare(scenario)
        enabled = gc.isenabled()
        gc.disable()
        try:
            engine = _Engine(prep, mode)
            alive = weakref.ref(engine)
            engine.run()
            del engine
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


# fig5's image: a 0-bit read-only layer and a 0.25 MB writable one.
APP, RW = "feat-image.app", "feat-image.rw"


def wave_scenario(*nodes, size_bits=None, group="all_available"):
    """fig5 on a hand-built roster of 1-3 nodes, each a (stored layers,
    container startup) pair. They are named a, b and c with falling rates,
    so a (which must hold APP) leads, and the workers join in roster order
    and get chunks 1 and 2 of an equal unicast split."""
    base = fig5_scenario()
    roster = tuple(
        dataclasses.replace(
            base.nodes[0], node_id=name, compute_rate_wu_s=rate,
            stored_layer_ids=frozenset(stored), container_startup_s=startup,
        )
        for name, rate, (stored, startup) in zip("abc", (95.36, 80.0, 60.0), nodes)
    )
    task = base.task if size_bits is None else dataclasses.replace(
        base.task, total_size_bits=size_bits
    )
    policy = dataclasses.replace(base.policy, group=group)
    return dataclasses.replace(base, task=task, nodes=roster, policy=policy)


def records_at_zero(scenario, mode) -> list[tuple[str, str, str, str]]:
    return [
        (event.node_id, event.old_phase, event.label, event.new_phase)
        for event in run(scenario, mode).trace
        if event.time_s == 0.0
    ]


# The join wave up to the replies, for leader a and workers b and c:
# InitSwarm, then each worker's JoinRequest to itself and to the leader.
JOIN_REQUESTS = [
    ("a", "idle", "InitSwarm", "leader_initialized"),
    ("b", "idle", "JoinRequest", "joining"),
    ("a", "leader_initialized", "JoinRequest", "leader_initialized"),
    ("c", "idle", "JoinRequest", "joining"),
    ("a", "leader_initialized", "JoinRequest", "leader_initialized"),
]
JOIN_REPLIES = [
    ("b", "joining", "JoinAccepted", "member"),
    ("c", "joining", "JoinAccepted", "member"),
]


class TestJoinWave:
    """The records at t=0 in the module docstring's ``(time, seq)`` order,
    where the join wave meets other work due at t=0. InitSwarm and the
    join requests come first. An overlap run's first chunk batch, if it
    lands at t=0, is pushed before ``admit`` and runs before the leader's
    replies; the deploys due at t=0 run behind whatever is on the heap
    for t=0 when the last member joins."""

    def test_zero_size_task_lands_its_chunks_before_the_replies(self):
        # (a) Every chunk is 0 bits, so they all land at t=0, while the
        # workers still wait for their replies. Then a (no startup) and b
        # (a puller) are deployed at t=0; c's startup puts it later.
        scenario = wave_scenario(([APP], 0.0), ([APP], 1.0), ([APP, RW], 2.0), size_bits=0)
        assert records_at_zero(scenario, PER_NODE_OVERLAP) == [
            *JOIN_REQUESTS,
            ("a", "leader_initialized", "ChunkDelivered[0]", "leader_initialized"),
            ("b", "joining", "ChunkDelivered[1]", "joining"),
            ("c", "joining", "ChunkDelivered[2]", "joining"),
            *JOIN_REPLIES,
            ("a", "leader_initialized", "DeployService", "container_ready"),
            ("b", "member", "DeployService", "transferring_layers"),
        ]

    def test_zero_and_nonzero_chunks_queue_the_rate_change_before_the_deploys(self):
        # (a) One bit over three chunks: chunk 0 carries it, chunks 1 and 2
        # land at t=0 and queue the source channel's rate change, which
        # comes after the replies and before the deploys.
        scenario = wave_scenario(([APP], 0.0), ([APP], 1.0), ([APP, RW], 2.0), size_bits=1)
        assert [chunk.size_bits for chunk in prepare(scenario).chunks] == [1, 0, 0]
        assert records_at_zero(scenario, PER_NODE_OVERLAP) == [
            *JOIN_REQUESTS,
            ("b", "joining", "ChunkDelivered[1]", "joining"),
            ("c", "joining", "ChunkDelivered[2]", "joining"),
            *JOIN_REPLIES,
            ("source-channel", "-", "FlowRateRecomputed", "-"),
            ("a", "leader_initialized", "DeployService", "container_ready"),
            ("b", "member", "DeployService", "transferring_layers"),
        ]

    @pytest.mark.parametrize("mode, after_init", [
        # (b) The chunk batch is queued before the leader joins, so its
        # deploy comes after the chunk.
        (PER_NODE_OVERLAP, [
            ("a", "leader_initialized", "ChunkDelivered[0]", "leader_initialized"),
            ("a", "leader_initialized", "DeployService", "container_ready"),
        ]),
        # Strict delivery waits for the establish barrier.
        (STRICT_BARRIER, [
            ("a", "leader_initialized", "DeployService", "container_ready"),
            ("source-channel", "-", "PhaseBarrierReached[establish]", "-"),
            ("a", "container_ready", "ChunkDelivered[0]", "container_ready"),
            ("source-channel", "-", "PhaseBarrierReached[deliver]", "-"),
        ]),
    ])
    def test_leader_only_zero_size_task(self, mode, after_init):
        scenario = wave_scenario(
            ([APP], 0.0), ([APP], 1.0), ([APP, RW], 0.0), size_bits=0, group="leader_only"
        )
        assert records_at_zero(scenario, mode) == [
            ("a", "idle", "InitSwarm", "leader_initialized"), *after_init,
        ]

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_zero_startup_member_deploys_in_member_order(self, mode):
        # (c) b pulls nothing and has no startup, so its deploy is due at
        # t=0 like puller c's, and comes first; a's startup puts it later.
        scenario = wave_scenario(([APP], 1.0), ([APP, RW], 0.0), ([], 1.0))
        assert records_at_zero(scenario, mode) == [
            *JOIN_REQUESTS,
            *JOIN_REPLIES,
            ("b", "member", "DeployService", "container_ready"),
            ("c", "member", "DeployService", "transferring_layers"),
        ]

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_zero_length_layer_flows_end_at_zero(self, mode):
        # (d) b and c miss only the 0-bit layer: both flows end at t=0,
        # queued behind both deploys, and with no startup each layer
        # transfer follows at t=0 too. Strict mode then reaches the
        # establish barrier at t=0.
        scenario = wave_scenario(([APP], 0.0), ([RW], 0.0), ([RW], 0.0))
        barrier = [("source-channel", "-", "PhaseBarrierReached[establish]", "-")]
        assert records_at_zero(scenario, mode) == [
            *JOIN_REQUESTS,
            *JOIN_REPLIES,
            ("a", "leader_initialized", "DeployService", "container_ready"),
            ("b", "member", "DeployService", "transferring_layers"),
            ("c", "member", "DeployService", "transferring_layers"),
            ("b", "transferring_layers", "LayerFlowCompleted", "transferring_layers"),
            ("c", "transferring_layers", "LayerFlowCompleted", "transferring_layers"),
            ("b", "transferring_layers", "LayerTransfer", "container_ready"),
            ("c", "transferring_layers", "LayerTransfer", "container_ready"),
            *(barrier if mode == STRICT_BARRIER else []),
        ]


class TestStrictRun:
    def test_fig5_matches_analytic(self):
        report = run(fig5_scenario())
        assert components_close(report.breakdown, analytic_scenario(fig5_scenario()))
        assert report.breakdown.t_total_s == pytest.approx(FIG5_TOTAL)
        assert report.success is True

    def test_fig5_baseline_matches_analytic(self):
        scenario = as_baseline(fig5_scenario())
        assert components_close(run(scenario).breakdown, analytic_scenario(scenario))

    def test_trace_times_never_decrease(self):
        for scenario in scenario_batch(0x5EED, 20):
            times = [ev.time_s for ev in run(scenario).trace]
            assert times == sorted(times)

    def test_determinism_is_bitwise(self):
        for scenario in scenario_batch(0xD37, 20):
            a = run(scenario)
            b = run(scenario)
            assert a.breakdown == b.breakdown
            assert a.trace == b.trace
            assert a.per_node_timeline == b.per_node_timeline
            assert a.success == b.success

    def test_empty_task_costs_only_establishment(self):
        scenario = fig5_scenario()
        task = dataclasses.replace(
            scenario.task, duration_s=0.0, fps=0.0, total_size_bits=0
        )
        report = run(dataclasses.replace(scenario, task=task))
        assert report.breakdown.t_ce_s == 2.0
        assert report.breakdown.t_d_s == 0.0
        assert report.breakdown.t_c_s == 0.0
        assert report.breakdown.t_total_s == 2.0

    def test_timeline_rows_are_ordered_per_node(self):
        order = {"establish": 0, "deliver": 1, "compute": 2, "return": 3}
        for scenario in scenario_batch(0x71AE, 20):
            report = run(scenario)
            per_node: dict[str, list[tuple[str, float, float]]] = {}
            for node_id, phase, start, end in report.per_node_timeline:
                assert end >= start
                per_node.setdefault(node_id, []).append((phase, start, end))
            for rows in per_node.values():
                indices = [order[phase] for phase, _, _ in rows]
                assert indices == sorted(indices)
                for (_, _, prev_end), (_, start, _) in zip(rows, rows[1:]):
                    assert start >= prev_end - 1e-12

    def test_fig5_timeline(self):
        report = run(fig5_scenario())
        rows = {(r[0], r[1]): (r[2], r[3]) for r in report.per_node_timeline}
        assert rows[("edge-a", "establish")] == (0.0, 0.0)
        assert rows[("edge-b", "establish")] == (0.0, 2.0)
        assert rows[("edge-a", "deliver")] == (2.0, 17.04)
        assert rows[("edge-b", "compute")][0] == 17.04

    def test_tail_ties_break_computes_barrier_returns(self):
        """With every return span rounding away, the last computes, the
        compute barrier and the returns all share one time, so only the
        order they were listed in separates them."""
        scenario = fig5_scenario()
        scenario = dataclasses.replace(
            scenario,
            policy=dataclasses.replace(scenario.policy, ignore_return=False),
            channel=dataclasses.replace(scenario.channel, edge_to_server_capacity_bps=1e300),
        )
        tail = [(ev.time_s, ev.node_id, ev.label) for ev in run(scenario).trace[-6:]]
        end = 46.14025167785235
        assert tail == [
            (end, "edge-a", "ComputeCompleted"),
            (end, "edge-b", "ComputeCompleted"),
            (end, "source-channel", "PhaseBarrierReached[compute]"),
            (end, "edge-a", "ResultUploaded"),
            (end, "edge-b", "ResultUploaded"),
            (end, "source-channel", "PhaseBarrierReached[return]"),
        ]


class TestPreparedRun:
    @pytest.mark.parametrize("mode", [None, STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_runs_like_the_scenario(self, mode):
        for scenario in [fig5_scenario(), *scenario_batch(0x9E7A, 30)]:
            a = run(prepare(scenario), mode)
            b = run(scenario, mode)
            assert a.trace == b.trace
            assert a.breakdown == b.breakdown
            assert a.per_node_timeline == b.per_node_timeline
            assert a.success == b.success

    def test_skips_the_gate(self, monkeypatch):
        prep = prepare(fig5_scenario())
        gate = counted_calls(monkeypatch, sim_module, "validate_scenario")
        elaborations = counted_calls(monkeypatch, sim_module, "prepare")
        run(prep)
        assert gate == [] and elaborations == []


class TestRunCost:
    """prepare decides each fact of the lifecycle once; the engine's
    handlers only read it."""

    def test_one_join_token_and_no_rng(self, monkeypatch):
        rngs = counted_calls(monkeypatch, random, "Random")
        tokens = counted_everywhere(monkeypatch, "derive_join_token")
        run(fig5_scenario())
        assert tokens == [(fig5_scenario().sim.seed,)]
        assert rngs == []
        prep = prepare(fig5_scenario())
        tokens.clear()
        run(prep)
        assert tokens == []

    def test_layers_planned_only_in_prepare(self, monkeypatch):
        scenario = swarm_scenario(0x250, 250, "equal")
        prep = prepare(scenario)
        stores = {node.stored_layer_ids for node in prep.members[1:]}
        plans = counted_everywhere(monkeypatch, "plan_layer_transfer")
        run(prep)
        assert plans == []
        run(scenario)
        assert len(plans) == len(stores) > 1

    def test_no_lifecycle_helper(self, monkeypatch):
        # prepare builds the swarm and transfer plans in one pass; only the
        # engine replays the lifecycle, message by message.
        names = ("init_swarm", "join_swarm", "deploy_service")
        calls = [counted_everywhere(monkeypatch, name) for name in names]
        for scenario in scenario_batch(0xC057, 20):
            prepare(scenario)
        run(fig5_scenario())
        assert calls == [[], [], []]


def calls_per_member(members: int, mode: str) -> tuple[float, float]:
    """Python and C calls that ``run`` makes on a ``members``-node swarm,
    counted by a profile hook, and trace records, each per member."""
    scenario = swarm_scenario(0x11EA, members)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        report = run(scenario, mode)
    finally:
        sys.setprofile(None)
    return calls / members, len(report.trace) / members


class TestLinearCost:
    """The gate, prepare, the engine and the report make no more calls per
    member at 2,000 members than at 200, so a run's cost grows linearly.

    A profile hook sees a call into a Python function or a C function, and
    nothing inside one: work inside a single C call (``list.index``, ``in``
    on a list, a sort) or inside a Python loop that calls nothing is not
    counted, and could grow with the member count unseen.
    """

    # Calls per member fall as the member count grows (fixed costs spread
    # out), so 2 % leaves room for a different mix without hiding the
    # factor of 10 a pass over every member per member would add.
    MARGIN = 1.02

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_calls_per_member_do_not_grow(self, mode):
        small_calls, small_records = calls_per_member(200, mode)
        large_calls, large_records = calls_per_member(2_000, mode)
        assert large_calls <= small_calls * self.MARGIN
        assert large_records <= small_records * self.MARGIN


def heap_events_per_member(members: int, split: str, delivery: str, mode: str) -> float:
    """Events the engine's heap carries in one run, counted at the pop
    that ``drain`` uses, per member."""
    events = 0

    def pop(heap):
        nonlocal events
        events += 1
        return heapq.heappop(heap)

    scenario = swarm_scenario(0x11EA, members, split, delivery)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=pop))
        run(scenario, mode)
    return events / members


# Upper bounds on heap events per member at 200 members, per (split,
# delivery): (strict, overlap).
HEAP_EVENTS_AT_200 = {
    ("equal", "unicast"): (2.02, 4.02),
    ("rate_weighted", "unicast"): (3.86, 5.86),
    ("equal", "multicast"): (2.01, 4.01),
}


class TestHeapEvents:
    """The heap carries no more events per member at 2,000 members than at
    200 (within TestLinearCost's margin), and no more at 200 than the
    pinned counts."""

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    @pytest.mark.parametrize("split, delivery", list(HEAP_EVENTS_AT_200))
    def test_events_per_member_do_not_grow(self, split, delivery, mode):
        small = heap_events_per_member(200, split, delivery, mode)
        large = heap_events_per_member(2_000, split, delivery, mode)
        # In overlap mode every member's compute is a heap event. In strict
        # mode the report lists the computes, but every member of these
        # swarms has a nonzero startup, so its deploy or its layer flow is.
        assert 1 <= small <= HEAP_EVENTS_AT_200[(split, delivery)][mode == PER_NODE_OVERLAP]
        assert large <= small * TestLinearCost.MARGIN

    def test_strict_pushes_nothing_after_the_last_arrival(self):
        """From the deliver barrier on, a strict run's records are the
        report's, so the engine pushes nothing later than the last chunk."""
        scenarios = [fig5_scenario(), *scenario_batch(0x09AC1E, 200)]
        scenarios += [swarm_scenario(0x11EA, 200, *shape) for shape in HEAP_EVENTS_AT_200]
        pushed = []

        def push(heap, entry):
            pushed.append(entry[0])
            heapq.heappush(heap, entry)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_module, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop))
            for scenario in scenarios:
                pushed.clear()
                trace = run(scenario, STRICT_BARRIER).trace
                last = max(ev.time_s for ev in trace if ev.label.startswith("ChunkDelivered"))
                assert max(pushed) <= last


def reference_inputs(prep) -> dict:
    """The arguments of the oracles' whole-scenario models, read off ``prep``."""
    scenario = prep.scenario
    node_ids = list(prep.plan.node_ids())
    members = {node.node_id: node for node in prep.members}
    return dict(
        transfer_bits_by_node={nid: bits for nid, _, bits in prep.transfer_plans},
        startup_by_node={
            nid: members[nid].container_startup_s for nid, _, _ in prep.transfer_plans
        },
        internode_bps=scenario.channel.internode_capacity_bps,
        chunk_sizes_bits=[c.size_bits for c in prep.chunks],
        source_bps=scenario.channel.source_channel_capacity_bps,
        frames_by_node={nid: prep.plan.frames_assigned_to(nid) for nid in node_ids},
        cost_wu=prep.function.per_frame_cost_wu,
        rate_by_node={nid: members[nid].effective_rate_wu_s for nid in node_ids},
        output_bits_by_node={
            nid: prep.plan.input_bits_for(nid) * prep.function.output_ratio for nid in node_ids
        },
        server_bps=scenario.channel.edge_to_server_capacity_bps,
        ignore_return=scenario.policy.ignore_return,
    )


class TestOracleEquivalence:
    def test_sim_matches_analytic_on_200_scenarios(self):
        scenarios = scenario_batch(0x0AC1E, 200)
        for i, scenario in enumerate(scenarios):
            analytic = analytic_scenario(scenario)
            simulated = run(scenario, mode=STRICT_BARRIER).breakdown
            assert components_close(analytic, simulated), (
                f"scenario {i}: analytic {analytic} != simulated {simulated}"
            )

    def test_sim_matches_flat_reference_model(self):
        for scenario in scenario_batch(0xF1A7, 60):
            expected = strict_barrier_totals(**reference_inputs(prepare(scenario)))
            got = run(scenario, mode=STRICT_BARRIER).breakdown
            for want, have in zip(expected, got.components()):
                assert math.isclose(want, have, rel_tol=1e-9, abs_tol=1e-12)


class TestOverlapMode:
    def test_fig5_overlap_total(self):
        report = run(fig5_scenario(), mode=PER_NODE_OVERLAP)
        # Delivery hides the layer transfer entirely at this capacity.
        assert report.breakdown.t_total_s == pytest.approx(15.04 + 1110 / 38.144)
        assert report.breakdown.t_ce_s == 2.0
        assert report.breakdown.t_d_s == 15.04

    def test_overlap_never_beats_component_sum(self):
        for scenario in scenario_batch(0x0BE1A9, 200):
            overlap = run(scenario, mode=PER_NODE_OVERLAP).breakdown
            strict = run(scenario, mode=STRICT_BARRIER).breakdown
            assert overlap.t_total_s <= strict.t_total_s

    def test_overlap_components_match_strict(self):
        for scenario in scenario_batch(0xC0FE, 40):
            overlap = run(scenario, mode=PER_NODE_OVERLAP).breakdown
            strict = run(scenario, mode=STRICT_BARRIER).breakdown
            for o, s in zip(overlap.components(), strict.components()):
                assert math.isclose(o, s, rel_tol=1e-9, abs_tol=1e-9)

    def test_overlap_total_matches_per_member_chain(self):
        scenarios = (
            scenario_batch(0x0BE1A9, 200)
            + scenario_batch(0x5EED, 200)
            + [fig5_scenario(), as_baseline(fig5_scenario())]
            + [swarm_scenario(0x5123, 320)]
            + [swarm_scenario(0x250, 250, "equal", delivery) for delivery in ("unicast", "multicast")]
        )
        shorter = 0
        for scenario in scenarios:
            prep = prepare(scenario)
            # Plan entry j carries chunk j.
            receivers = [[nid for nid, _ in entry.node_frames] for entry in prep.plan.entries]
            expected = overlap_makespan(chunk_receivers=receivers, **reference_inputs(prep))
            overlap = run(prep, mode=PER_NODE_OVERLAP).breakdown.t_total_s
            assert math.isclose(expected, overlap, rel_tol=1e-9, abs_tol=1e-12)
            shorter += overlap < run(prep, mode=STRICT_BARRIER).breakdown.t_total_s
        # Overlap must differ from strict often, or the check says little.
        assert shorter > len(scenarios) // 2

    def test_unknown_mode_rejected(self):
        # An int no float can hold is named by its size: its repr raises.
        cases = [
            (fig5_scenario(), "relaxed", "'relaxed'"),
            (fig5_scenario(), 10**5000, "a 16610-bit integer"),
            (prepare(fig5_scenario()), 10**5000, "a 16610-bit integer"),
        ]
        for scenario, mode, shown in cases:
            with pytest.raises(ValidationError) as error:
                run(scenario, mode=mode)
            assert str(error.value) == f"mode: unknown simulation mode {shown}"

    def test_chunks_land_at_the_waterfill_completions(self):
        # Delivery starts at t=0 here, so each chunk's arrival is exactly
        # its completion in the closed-form progressive filling.
        scenarios = scenario_batch(0x3A7E, 100) + [swarm_scenario(0x5123, 320)]
        for scenario in scenarios:
            chunks = prepare(scenario).chunks
            completions = waterfill_completions(
                [chunk.size_bits for chunk in chunks],
                scenario.channel.source_channel_capacity_bps,
            )
            delivered = [
                (int(ev.label[len("ChunkDelivered["):-1]), ev.time_s)
                for ev in run(scenario, mode=PER_NODE_OVERLAP).trace
                if ev.label.startswith("ChunkDelivered[")
            ]
            assert {index for index, _ in delivered} == set(range(len(chunks)))
            for index, time_s in delivered:
                assert time_s == completions[index], (index, time_s, completions[index])


# The float fields whose scales the property below sets far apart.
EXTREME_FIELDS = {
    "channel": (
        "source_channel_capacity_bps", "internode_capacity_bps", "edge_to_server_capacity_bps"
    ),
    "nodes": ("compute_rate_wu_s", "container_startup_s"),
    "functions": ("per_frame_cost_wu", "output_ratio"),
}


@st.composite
def extreme_float_scenarios(draw):
    """A conftest random scenario with 1-3 of its capacities, startups,
    compute rates, per-frame cost or output ratio set to finite floats
    anywhere from the least subnormal to near the largest double."""
    scenario = random_scenario(random.Random(draw(st.integers(0, 2**32 - 1))))
    targets = [
        (section, index, name)
        for section, index, name, _ in leaves(scenario)
        if name in EXTREME_FIELDS.get(section, ())
    ]
    for _ in range(draw(st.integers(1, 3))):
        section, index, name = draw(st.sampled_from(targets))
        value = draw(st.floats(min_value=5e-324, max_value=1.7e308))
        scenario = replace_leaf(scenario, section, index, name, value)
    return scenario


class TestExtremeFloats:
    """However far apart in scale its float fields are, a scenario the
    gate passes runs strict exactly as the closed forms say, and overlap
    as the per-member chain oracle says, never beyond the strict total."""

    @staticmethod
    def check(prep):
        strict = run(prep, STRICT_BARRIER).breakdown
        assert strict == analytic_scenario(prep)
        # Plan entry j carries chunk j.
        receivers = [[nid for nid, _ in entry.node_frames] for entry in prep.plan.entries]
        expected = overlap_makespan(chunk_receivers=receivers, **reference_inputs(prep))
        overlap = run(prep, PER_NODE_OVERLAP).breakdown.t_total_s
        assert math.isclose(overlap, expected, rel_tol=1e-9)
        # Each chain's end and the strict total are one rounding of exact
        # sums whose terms the strict ones bound, so no ulp is allowed.
        assert overlap <= strict.t_total_s

    @given(scenario=extreme_float_scenarios())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_gate_clean_runs_match_the_oracles(self, scenario):
        if not validate_scenario(scenario):
            self.check(prepare(scenario))

    def test_a_late_leader_keeps_the_delivery_span(self):
        # The leader's container comes up at 1e300 s, which swallows the
        # 15.04 s delivery in the strict total but not in t_d.
        scenario = replace_leaf(fig5_scenario(), "nodes", 0, "container_startup_s", 1e300)
        assert validate_scenario(scenario) == []
        assert run(scenario, STRICT_BARRIER).breakdown.t_d_s == pytest.approx(15.04)
        self.check(prepare(scenario))

    def test_a_chain_summed_one_addition_at_a_time_passed_strict(self):
        # Two compute rates far apart. When a chain was rounded one
        # addition at a time (compute end, then return end), this overlap
        # total read 45.59124758784947 against a strict 45.591247587849466.
        scenario = random_scenario(random.Random(3536784466))
        for index, rate in ((4, 0.008048659329424442), (5, 7.949508903941128)):
            scenario = replace_leaf(scenario, "nodes", index, "compute_rate_wu_s", rate)
        assert validate_scenario(scenario) == []
        self.check(prepare(scenario))


class TestDeadline:
    @staticmethod
    def fig5_with_deadline(deadline_s):
        scenario = fig5_scenario()
        return dataclasses.replace(
            scenario, task=dataclasses.replace(scenario.task, deadline_s=deadline_s)
        )

    def test_success_iff_total_within_deadline(self):
        total = run(fig5_scenario()).breakdown.t_total_s
        assert run(self.fig5_with_deadline(total + 0.01)).success is True
        assert run(self.fig5_with_deadline(total)).success is True
        assert run(self.fig5_with_deadline(total - 0.01)).success is False

    def test_deadline_event_logged_only_on_failure(self):
        ok = run(self.fig5_with_deadline(300.0))
        assert all(ev.label != "DeadlineExpired" for ev in ok.trace)
        late = run(self.fig5_with_deadline(40.0))
        expired = [ev for ev in late.trace if ev.label == "DeadlineExpired"]
        assert len(expired) == 1
        assert expired[0].time_s == 40.0
        assert late.success is False

    def test_random_scenarios_report_soundly(self):
        for scenario in scenario_batch(0xDEAD, 50):
            report = run(scenario)
            assert report.success == (
                report.breakdown.t_total_s <= scenario.task.deadline_s
            )

    def test_infinite_deadline_always_succeeds(self):
        scenario = fig5_scenario()
        task = dataclasses.replace(scenario.task, deadline_s=math.inf)
        report = run(dataclasses.replace(scenario, task=task))
        assert report.success is True
        assert all(ev.label != "DeadlineExpired" for ev in report.trace)


def deadlines_between(times):
    """Every positive time in ``times`` and the midpoint of each adjacent pair."""
    times = sorted(set(times))
    return [t for t in times + [(a + b) / 2 for a, b in zip(times, times[1:])] if t > 0]


class TestReportRules:
    """``build_report`` places ``DeadlineExpired`` and a strict run's return
    barrier, and derives each compute start, from what the engine stored:
    checked here against the trace's own records, with the deadline at
    every trace time and between each two."""

    SCENARIOS = scenario_batch(0x4E90, 100) + [swarm_scenario(0x11FE, 30)]

    @staticmethod
    def check(report, deadline, mode):
        trace = list(report.trace)
        times = [event.time_s for event in trace]
        assert times == sorted(times)
        expired = [i for i, event in enumerate(trace) if event.label == "DeadlineExpired"]
        assert len(expired) == (not report.success)
        if expired:
            del trace[expired[0]]
            assert expired[0] == bisect_left(trace, deadline, key=lambda event: event.time_s)
            assert report.trace[expired[0]].time_s == deadline
        ready, arrival, uploads, barriers = {}, {}, [], {}
        for event in trace:
            if event.new_phase == "container_ready" != event.old_phase:
                ready[event.node_id] = event.time_s
            elif event.label.startswith("ChunkDelivered["):
                arrival[event.node_id] = event.time_s
            elif event.label == "ResultUploaded":
                uploads.append(event.time_s)
            elif event.label.startswith("PhaseBarrierReached["):
                barriers[event.label] = event.time_s
        starts = {row[0]: row[2] for row in report.per_node_timeline if row[1] == "compute"}
        if mode == STRICT_BARRIER:
            assert trace[-1].label == "PhaseBarrierReached[return]"
            end = max(uploads) if uploads else barriers["PhaseBarrierReached[compute]"]
            assert trace[-1].time_s == end
            assert set(starts.values()) == {max(arrival.values())}
        else:
            assert "PhaseBarrierReached[return]" not in barriers
            assert starts == {n: max(ready[n], arrival[n]) for n in starts}

    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_records_and_starts_follow_the_rules(self, mode):
        outcomes = []
        for scenario in self.SCENARIOS:
            prep = prepare(scenario)
            for deadline in deadlines_between(ev.time_s for ev in run(prep, mode).trace):
                task = dataclasses.replace(scenario.task, deadline_s=deadline)
                moved = dataclasses.replace(scenario, task=task)
                report = run(dataclasses.replace(prep, scenario=moved), mode)
                self.check(report, deadline, mode)
                outcomes.append(report.success)
        # Most deadlines fall inside the run, but not all: both cases occur.
        assert outcomes.count(False) > 1000 and outcomes.count(True) > 50


def whole_gate_sweep(template, capacities) -> list:
    """What ``sweep`` gives, from the whole gate and separate runs: the
    violations it raises, or each row's capacity, baseline and cooperative
    breakdowns."""
    ordered = sorted(capacities)
    first_row = with_per_link_capacity(template, ordered[0], len(template.nodes))
    violations = validate_scenario(first_row)
    if violations:
        return violations
    member_count = len(prepare(template).members)
    rows = []
    for capacity in ordered:
        cooperative = with_per_link_capacity(template, capacity, member_count)
        violations = validate_scenario(cooperative)
        if violations:
            return violations
        baseline = run(as_baseline(cooperative)).breakdown
        rows.append((capacity, baseline, run(cooperative).breakdown))
    return rows


class TestSweep:
    def test_rows_sorted_by_capacity(self):
        rows = sweep(fig5_scenario(), [1_000_000.0, 300_000.0, 600_000.0])
        assert [row.capacity_bps for row in rows] == [300_000.0, 600_000.0, 1_000_000.0]

    def test_row_values_match_independent_runs(self):
        rows = sweep(fig5_scenario(), [100_000.0, 1_000_000.0])
        low, high = rows
        assert high.cooperative.t_total_s == pytest.approx(FIG5_TOTAL)
        assert high.baseline.t_total_s == pytest.approx(15.04 + 2220 / 38.144)
        assert high.savings_fraction == pytest.approx(
            (high.baseline.t_total_s - high.cooperative.t_total_s) / high.baseline.t_total_s
        )
        assert low.savings_fraction == pytest.approx(0.0436253, abs=5e-6)

    def test_duplicate_capacities_produce_duplicate_rows(self):
        rows = sweep(fig5_scenario(), [500_000.0, 500_000.0])
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_baseline_keeps_the_channel_total(self):
        rows = sweep(fig5_scenario(), [400_000.0])
        # One leader link carrying the whole 2 x 400 kb/s channel.
        assert rows[0].baseline.t_d_s == pytest.approx(30_080_000 / 800_000.0)
        assert rows[0].baseline.t_ce_s == 0.0

    def test_empty_capacity_list_rejected(self):
        with pytest.raises(ValidationError):
            sweep(fig5_scenario(), [])

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_rejects_bad_capacity(self, bad):
        with pytest.raises(ValidationError) as err:
            sweep(fig5_scenario(), [250_000.0, bad])
        assert err.value.field_name == "capacities"

    @pytest.mark.parametrize(
        "bad, shown",
        [
            (10**400, "a 1329-bit integer"),
            (-10**5000, "a 16610-bit integer"),
            ("x", "'x'"),
            (None, "None"),
            (True, "True"),
        ],
        ids=["10**400", "-10**5000", "str", "None", "True"],
    )
    def test_names_a_capacity_no_float_holds(self, bad, shown):
        with pytest.raises(ValidationError) as err:
            sweep(fig5_scenario(), [250_000.0, bad])
        assert str(err.value) == f"capacities: must be positive and finite, got {shown}"

    @pytest.mark.parametrize(
        "one_shot",
        [iter, lambda capacities: (capacity for capacity in capacities)],
        ids=["iterator", "generator"],
    )
    def test_reads_one_shot_capacities_once(self, one_shot):
        capacities = [1_000_000.0, 300_000.0, 600_000.0]
        assert sweep(fig5_scenario(), one_shot(capacities)) == sweep(fig5_scenario(), capacities)
        with pytest.raises(ValidationError) as err:
            sweep(fig5_scenario(), one_shot([]))
        assert str(err.value) == "capacities: at least one capacity is required"
        with pytest.raises(ValidationError) as err:
            sweep(fig5_scenario(), one_shot([250_000.0, math.nan]))
        assert str(err.value) == "capacities: must be positive and finite, got nan"

    def test_takes_ints_and_number_subclasses(self):
        rows = sweep(fig5_scenario(), [250_000, Float(500_000.0), Int(750_000)])
        assert rows == sweep(fig5_scenario(), [250_000.0, 500_000.0, 750_000.0])

    def test_every_row_is_validated_before_any_run(self, monkeypatch):
        runs = counted_calls(monkeypatch, _Engine, "run")
        # The second row's source total, 2 x 1e308, overflows to inf.
        with pytest.raises(ScenarioValidationError) as err:
            sweep(fig5_scenario(), [1e6, 1e308])
        assert err.value.violations == [
            "channel.source_total: capacity must be positive and finite, got inf"
        ]
        assert runs == []

    def test_rows_equal_separate_runs(self):
        capacities = [100_000.0, 1_000_000.0, 2_500_000.0]
        for scenario in [fig5_scenario(), *scenario_batch(0x5EE9, 30)]:
            member_count = len(prepare(scenario).members)
            rows = sweep(scenario, capacities)
            assert [row.capacity_bps for row in rows] == capacities
            for row in rows:
                cooperative = with_per_link_capacity(scenario, row.capacity_bps, member_count)
                assert row.cooperative == run(cooperative).breakdown
                assert row.baseline == run(as_baseline(cooperative)).breakdown

    def test_gates_the_template_once(self, monkeypatch):
        gate = counted_calls(monkeypatch, sim_module, "validate_scenario")
        elaborations = counted_calls(monkeypatch, sim_module, "prepare")
        runs = counted_calls(monkeypatch, sim_module, "run")
        sweep(fig5_scenario(), [kbps * BPS_PER_KBPS for kbps in FIG5_CAPACITIES_KBPS])
        # The first row's scenario; every row then runs only the channel rules.
        assert len(gate) == 1
        assert len(elaborations) == 2
        assert len(runs) == 2 * len(FIG5_CAPACITIES_KBPS) == 20

    @pytest.mark.parametrize(
        "capacities",
        [
            [1e308],
            [5e-324],
            [1e5, 1e308, 1e5],
            [5e-324, 1e6, 5e-324],
            [2.5e5, 2.5e5, 1e6],
            [1e-300, 1e6, 1e308],
            [1e300, 9e307, 1e308, 1e300],
            # A leader-only fig5 row's source total is half the first row's,
            # so its worst-case delivery time alone overflows.
            [1.5e-301, 1e6],
        ],
    )
    def test_rows_name_what_the_whole_gate_names(self, capacities):
        templates = [fig5_scenario(), as_baseline(fig5_scenario()), *scenario_batch(0x5EE9, 30)]
        for scenario in templates:
            expected = whole_gate_sweep(scenario, capacities)
            if isinstance(expected[0], str):
                with pytest.raises(ScenarioValidationError) as err:
                    sweep(scenario, capacities)
                assert err.value.violations == expected
            else:
                rows = sweep(scenario, capacities)
                assert [(r.capacity_bps, r.baseline, r.cooperative) for r in rows] == expected

    @pytest.mark.parametrize("capacities", [[250_000.0], [1e5, 2e5, 5e5, 1e6, 1e6]])
    def test_prepares_each_arm_once(self, monkeypatch, capacities):
        elaborations = counted_calls(monkeypatch, sim_module, "prepare")
        runs = counted_calls(monkeypatch, _Engine, "run")
        sweep(fig5_scenario(), capacities)
        assert len(elaborations) == 2
        assert len(runs) == 2 * len(capacities)

    def test_row_type_shape(self):
        row = sweep(fig5_scenario(), [250_000.0])[0]
        assert isinstance(row, SweepRow)
        assert isinstance(run(fig5_scenario()), SimReport)

    def test_reports_are_not_tuples(self):
        # perfbench's result_key walks every tuple an op returns, inside the
        # timed cycle; a tuple report would make it walk the whole trace.
        fig5 = fig5_scenario()
        assert not any(isinstance(out, tuple) for out in (run(fig5), analytic_scenario(fig5)))
