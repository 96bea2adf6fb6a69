import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeswarm.latency import (
    DelayBreakdown,
    analytic_scenario,
    compute_time,
    container_establish_time,
    delivery_time,
    result_return_time,
    waterfill_completions,
)
from edgeswarm.model import (
    ChannelModel,
    EdgeNode,
    ProcessingFunction,
    ValidationError,
    VideoChunk,
)
from edgeswarm.policies import Assignment, AssignmentPlan
from edgeswarm.scenario import (
    ScenarioValidationError,
    as_baseline,
    fig5_scenario,
    with_per_link_capacity,
)
from oracles import fair_share_completion_times

EFFECTIVE_RATE = 95.36 * 0.4  # the calibrated per-node budgeted rate


def channel(source=2_000_000.0, internode=1_000_000.0, server=1_000_000.0):
    return ChannelModel(source, internode, server)


def chunk(index, bits, frames=(0, 0)):
    return VideoChunk("t", index, frames, bits)


def unicast_plan(sizes, frames_each=0):
    entries = []
    for i, bits in enumerate(sizes):
        frame_range = (i * frames_each, (i + 1) * frames_each)
        entries.append(
            Assignment(chunk(i, bits, frame_range), "unicast", ((f"n{i}", frame_range),))
        )
    return AssignmentPlan("t", tuple(entries))


def fn(cost=1.0, ratio=0.01):
    return ProcessingFunction("fn", "f", cost, ratio, "app")


def node(node_id, rate=95.36, budget=0.4):
    return EdgeNode(node_id, rate, budget, 10**9)


class TestContainerEstablish:
    def test_single_worker_rw_layer(self):
        plans = [("a", (), 0), ("b", ("rw",), 2_000_000)]
        nodes = {"a": node("a"), "b": node("b")}
        assert container_establish_time(plans, channel(), nodes) == 2.0

    def test_inverse_in_internode_capacity(self):
        plans = [("a", (), 0), ("b", ("rw",), 2_000_000)]
        nodes = {"a": node("a"), "b": node("b")}
        assert container_establish_time(plans, channel(internode=500_000.0), nodes) == 4.0

    def test_everyone_holds_image(self):
        plans = [("a", (), 0), ("b", (), 0)]
        nodes = {"a": node("a"), "b": node("b")}
        assert container_establish_time(plans, channel(), nodes) == 0.0

    def test_empty_plan(self):
        assert container_establish_time([], channel(), {}) == 0.0

    def test_startup_added_after_transfer(self):
        nodes = {
            "a": EdgeNode("a", 10.0, 1.0, 10**9, container_startup_s=1.5),
            "b": EdgeNode("b", 10.0, 1.0, 10**9, container_startup_s=0.5),
        }
        plans = [("a", (), 0), ("b", ("rw",), 2_000_000)]
        assert container_establish_time(plans, channel(), nodes) == 2.5

    def test_concurrent_pullers_share_the_link_equally(self):
        nodes = {name: node(name) for name in ("a", "b", "c")}
        plans = [("a", (), 0), ("b", ("rw",), 2_000_000), ("c", ("rw",), 1_000_000)]
        # Two pullers at 500 kb/s each: 4 s and 2 s.
        assert container_establish_time(plans, channel(), nodes) == 4.0


class TestDelivery:
    def test_baseline_single_flow(self):
        plan = unicast_plan([30_080_000])
        assert delivery_time(plan, [e.chunk for e in plan.entries], channel()) == 15.04

    def test_two_equal_flows_finish_together(self):
        plan = unicast_plan([15_040_000, 15_040_000])
        assert delivery_time(plan, [e.chunk for e in plan.entries], channel()) == 15.04

    def test_zero_size_chunk(self):
        plan = unicast_plan([0])
        assert delivery_time(plan, [e.chunk for e in plan.entries], channel()) == 0.0

    def test_chunk_count_must_match_plan(self):
        plan = unicast_plan([10, 20])
        with pytest.raises(ValidationError):
            delivery_time(plan, [plan.entries[0].chunk], channel())

    def test_waterfill_matches_independent_formula(self):
        rng = random.Random(5)
        for _ in range(200):
            sizes = [rng.randrange(0, 10**7) for _ in range(rng.randint(1, 12))]
            capacity = rng.uniform(1e5, 5e6)
            got = waterfill_completions(sizes, capacity)
            want = fair_share_completion_times(sizes, capacity)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12)

    def test_work_conservation(self):
        rng = random.Random(6)
        for _ in range(100):
            sizes = [rng.randrange(1, 10**7) for _ in range(rng.randint(1, 12))]
            capacity = rng.uniform(1e5, 5e6)
            last = max(waterfill_completions(sizes, capacity))
            assert last == pytest.approx(sum(sizes) / capacity, rel=1e-9)

    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=12),
        capacity=st.floats(min_value=1e4, max_value=1e7),
        k=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_capacity_scaling(self, sizes, capacity, k):
        base = waterfill_completions(sizes, capacity)
        scaled = waterfill_completions(sizes, capacity * k)
        for b, s in zip(base, scaled):
            assert s * k == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_multicast_equivalence_200_cases(self):
        rng = random.Random(7)
        for _ in range(200):
            bits = rng.randrange(0, 10**8)
            k = rng.randint(1, 6)
            cap = channel(source=rng.uniform(1e5, 5e6))
            frames = rng.randrange(0, 1000)
            one = chunk(0, bits, (0, frames))
            receivers = tuple((f"n{i}", (0, 0)) for i in range(k - 1))
            multicast = AssignmentPlan(
                "t",
                (Assignment(one, "multicast", (("n0", (0, frames)),) + receivers),),
            )
            unicast = AssignmentPlan("t", (Assignment(one, "unicast", (("n0", (0, frames)),)),))
            assert delivery_time(multicast, [one], cap) == delivery_time(unicast, [one], cap)


class TestCompute:
    def test_calibrated_half_task(self):
        plan = unicast_plan([0], frames_each=1110)
        nodes = {"n0": node("n0")}
        assert compute_time(plan, nodes, fn()) == pytest.approx(1110 / EFFECTIVE_RATE)

    def test_calibrated_full_task(self):
        plan = unicast_plan([0], frames_each=2220)
        nodes = {"n0": node("n0")}
        assert compute_time(plan, nodes, fn()) == pytest.approx(2220 / EFFECTIVE_RATE)

    def test_zero_frames(self):
        plan = unicast_plan([0], frames_each=0)
        assert compute_time(plan, {"n0": node("n0")}, fn()) == 0.0

    def test_slowest_node_bounds_the_phase(self):
        entries = (
            Assignment(chunk(0, 0, (0, 100)), "unicast", (("fast", (0, 100)),)),
            Assignment(chunk(1, 0, (100, 200)), "unicast", (("slow", (100, 200)),)),
        )
        plan = AssignmentPlan("t", entries)
        nodes = {"fast": node("fast", rate=200.0, budget=1.0), "slow": node("slow", rate=10.0, budget=1.0)}
        assert compute_time(plan, nodes, fn()) == pytest.approx(100 / 10.0)

    def test_zero_effective_rate_is_an_error(self):
        # compute_time divides by the rate; the gate rejects a zero one first.
        scenario = fig5_scenario()
        idle = dataclasses.replace(scenario.nodes[1], compute_rate_wu_s=0.0)
        with pytest.raises(ScenarioValidationError) as err:
            analytic_scenario(dataclasses.replace(scenario, nodes=(scenario.nodes[0], idle)))
        assert err.value.violations == ["nodes[edge-b]: effective compute rate must be positive"]


class TestResultReturn:
    def test_ignored(self):
        plan = unicast_plan([15_040_000])
        assert result_return_time(plan, fn(), channel(), ignore_return=True) == 0.0

    def test_output_ratio_scales_input(self):
        plan = unicast_plan([15_040_000])
        t = result_return_time(plan, fn(ratio=0.01), channel(), ignore_return=False)
        assert t == pytest.approx(0.1504)

    def test_zero_ratio(self):
        plan = unicast_plan([15_040_000])
        assert result_return_time(plan, fn(ratio=0.0), channel(), ignore_return=False) == 0.0


class TestBreakdown:
    def test_total_is_exact_sum(self):
        b = DelayBreakdown.from_components(2.0, 15.04, 29.10, 0.0)
        assert b.t_total_s == math.fsum(b.components()) == pytest.approx(46.14)

    def test_zero(self):
        assert DelayBreakdown.from_components(0, 0, 0, 0).t_total_s == 0.0

    def test_baseline_point(self):
        b = DelayBreakdown.from_components(0.0, 15.04, 58.20, 0.0)
        assert b.t_total_s == pytest.approx(73.24)

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            DelayBreakdown.from_components(-1.0, 0, 0, 0)

    @given(
        parts=st.tuples(
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0, max_value=1e6),
            st.floats(min_value=0, max_value=1e6),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_additivity_within_one_ulp(self, parts):
        b = DelayBreakdown.from_components(*parts)
        naive = parts[0] + parts[1] + parts[2] + parts[3]
        assert b.t_total_s == pytest.approx(naive, rel=1e-14, abs=5e-324)


class TestAnalyticScenario:
    def test_fig5_cooperative_point(self):
        b = analytic_scenario(fig5_scenario())
        assert b.t_ce_s == 2.0
        assert b.t_d_s == 15.04
        assert b.t_c_s == pytest.approx(1110 / EFFECTIVE_RATE)
        assert b.t_r_s == 0.0
        assert b.t_total_s == pytest.approx(2.0 + 15.04 + 1110 / EFFECTIVE_RATE)

    def test_fig5_baseline_point(self):
        b = analytic_scenario(as_baseline(fig5_scenario()))
        assert b.t_ce_s == 0.0
        assert b.t_d_s == 15.04
        assert b.t_c_s == pytest.approx(2220 / EFFECTIVE_RATE)
        assert b.t_total_s == pytest.approx(15.04 + 2220 / EFFECTIVE_RATE)

    def test_fig5_savings_37_percent(self):
        coop = analytic_scenario(fig5_scenario()).t_total_s
        base = analytic_scenario(as_baseline(fig5_scenario())).t_total_s
        assert (base - coop) / base == pytest.approx(0.370017, abs=5e-6)

    def test_compute_time_independent_of_capacity(self):
        totals = set()
        for kbps in (100.0, 300.0, 1000.0):
            scenario = with_per_link_capacity(fig5_scenario(), kbps * 1000.0, 2)
            totals.add(analytic_scenario(scenario).t_c_s)
        assert len(totals) == 1

    def test_dominance_crossover(self):
        low = analytic_scenario(with_per_link_capacity(fig5_scenario(), 300_000.0, 2))
        high = analytic_scenario(with_per_link_capacity(fig5_scenario(), 1_000_000.0, 2))
        assert low.t_d_s > low.t_c_s
        assert high.t_d_s < high.t_c_s
        assert low.t_d_s == pytest.approx(30_080_000 / (2 * 300_000.0))
