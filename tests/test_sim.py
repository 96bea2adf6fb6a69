import dataclasses
import hashlib
import heapq
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeswarm import sim as sim_module
from edgeswarm import swarmproto
from edgeswarm.latency import analytic_scenario, waterfill_completions
from edgeswarm.model import ValidationError
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
from oracles import strict_barrier_totals

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
    ("batch", STRICT_BARRIER): "1f629539da2b2f21b3d4a2071950ce8a0443c219f1235716008219729b9ce376",
    ("batch", PER_NODE_OVERLAP): "780fa968938cfab2d33c71b7b7d7e84bc7f177758f376ba7157d75cfacd16cbe",
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
    STRICT_BARRIER: "68c9cf04e84b9cddd5863385b343f208a83c48309b50a2fd9d5b5a59830b5c04",
    PER_NODE_OVERLAP: "42155d5f0ebee3fcbd511c24f72bb328b3f1db619dc7b7daad153d91b9ac7d87",
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
    ("unicast", PER_NODE_OVERLAP): "74ecae184a75f0407769632fb73afa38f2019cbd22892a2054e4a136c4d71a83",
    ("multicast", STRICT_BARRIER): "2562df8b3c6f50dd12dc61817ae4bffa06248cc499a88103bcb36bc8f4febc92",
    ("multicast", PER_NODE_OVERLAP): "1295d9c2f4fe639fec831e0a87c105acc5c28cefa46113fef990e7cccb4bd333",
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
        ],
        ids=[
            "no_nodes", "duplicate_ids", "duration", "width", "rate", "k", "sim",
            "store_none", "store_str", "store_tuple", "holder_store_str",
            "ignore_return_str", "ignore_return_int", "ignore_return_none",
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
    @pytest.mark.parametrize("value", [10**400, int(1e308)], ids=["10**400", "int(1e308)"])
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


class TestEventOrder:
    """The engine's heap plus same-time queue must run events exactly in
    the ``(time, seq)`` order of one plain heap."""

    @staticmethod
    def engine():
        return _Engine(prepare(fig5_scenario()), STRICT_BARRIER)

    def test_same_time_pushes_follow_due_heap_entries_in_push_order(self):
        engine, log = self.engine(), []

        def step(now, name, *pushes):
            log.append((now, name))
            for when, child, grandchildren in pushes:
                engine.push(when, step, child, *grandchildren)

        engine.push(1.0, step, "a", (1.0, "c", ((1.0, "e", ()), (2.0, "f", ()))), (1.0, "d", ()))
        engine.push(1.0, step, "b")
        engine.push(0.0, step, "z")
        engine.drain()
        assert log == [
            (0.0, "z"), (1.0, "a"), (1.0, "b"), (1.0, "c"), (1.0, "d"), (1.0, "e"), (2.0, "f"),
        ]

    def test_order_equals_a_plain_heap(self):
        offsets = (0.0, 0.0, 0.0, 0.25, 0.5, 1.0)

        def children(name: str) -> list[tuple[float, str]]:
            rng = random.Random(name)
            if name.count(".") >= 4:
                return []
            return [(rng.choice(offsets), f"{name}.{i}") for i in range(rng.randrange(4))]

        def order(push, drain) -> list[tuple[float, str]]:
            log = []

            def step(now, name):
                log.append((now, name))
                for offset, child in children(name):
                    push(now + offset, step, child)

            for i in range(12):
                push((0.0, 0.5, 1.0)[i % 3], step, f"r{i}")
            drain()
            return log

        heap, seq = [], itertools.count()

        def heap_push(time_s, handler, *args):
            heapq.heappush(heap, (time_s, next(seq), handler, args))

        def heap_drain():
            while heap:
                time_s, _, handler, args = heapq.heappop(heap)
                handler(time_s, *args)

        engine = self.engine()
        expected = order(heap_push, heap_drain)
        assert len(expected) > 100
        assert order(engine.push, engine.drain) == expected

    def test_push_into_the_past_raises(self):
        engine = self.engine()
        engine.push(1.0, lambda now: engine.push(now - 0.5, lambda now: None))
        with pytest.raises(AssertionError, match="event queue went backwards in time"):
            engine.drain()


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
    def test_no_node_machine_and_one_token_rng(self, monkeypatch):
        # prepare and the leader's InitSwarm handler share one derivation
        # of the token.
        rngs = counted_calls(monkeypatch, random, "Random")
        swarmproto.derive_join_token.cache_clear()
        run(fig5_scenario())
        assert rngs == [(fig5_scenario().sim.seed,)]

    def test_no_lifecycle_helper(self, monkeypatch):
        # prepare builds the swarm and transfer plans in one pass; only the
        # engine replays the lifecycle, message by message.
        calls = []
        for name in ("init_swarm", "join_swarm", "deploy_service"):
            helper = getattr(swarmproto, name)
            for module in [m for n, m in sys.modules.items() if n.startswith("edgeswarm")]:
                if getattr(module, name, None) is helper:
                    calls.append(counted_calls(monkeypatch, module, name))
        assert calls
        for scenario in scenario_batch(0xC057, 20):
            prepare(scenario)
        run(fig5_scenario())
        assert calls == [[]] * len(calls)


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
            prep = prepare(scenario)
            node_ids = list(prep.plan.node_ids())
            members = prep.member_map()
            expected = strict_barrier_totals(
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
                    nid: prep.plan.input_bits_for(nid) * prep.function.output_ratio
                    for nid in node_ids
                },
                server_bps=scenario.channel.edge_to_server_capacity_bps,
                ignore_return=scenario.policy.ignore_return,
            )
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
            assert overlap.t_total_s <= strict.t_total_s * (1 + 1e-12) + 1e-9

    def test_overlap_components_match_strict(self):
        for scenario in scenario_batch(0xC0FE, 40):
            overlap = run(scenario, mode=PER_NODE_OVERLAP).breakdown
            strict = run(scenario, mode=STRICT_BARRIER).breakdown
            for o, s in zip(overlap.components(), strict.components()):
                assert math.isclose(o, s, rel_tol=1e-9, abs_tol=1e-9)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run(fig5_scenario(), mode="relaxed")

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
