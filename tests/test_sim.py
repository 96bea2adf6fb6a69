import dataclasses
import hashlib
import math

import pytest

from edgeswarm.latency import analytic_scenario
from edgeswarm.model import ValidationError
from edgeswarm.scenario import (
    PER_NODE_OVERLAP,
    STRICT_BARRIER,
    as_baseline,
    fig5_scenario,
    prepare,
)
from edgeswarm.sim import (
    ScenarioValidationError,
    SimReport,
    SweepRow,
    run,
    sweep,
    validate_scenario,
)
from edgeswarm.swarmproto import SwarmNetworkConfig
from conftest import scenario_batch
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


class TestTraceDigests:
    @pytest.mark.parametrize("mode", [STRICT_BARRIER, PER_NODE_OVERLAP])
    def test_reports_are_pinned(self, mode):
        for name, scenarios in (
            ("fig5", [fig5_scenario()]),
            ("batch", scenario_batch(0x09AC1E, 200)),
        ):
            digest = hashlib.sha256()
            for scenario in scenarios:
                r = run(scenario, mode)
                digest.update(repr((r.trace, r.breakdown, r.per_node_timeline, r.success)).encode())
            assert digest.hexdigest() == TRACE_DIGESTS[(name, mode)], name


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


class TestDeadline:
    def test_success_iff_total_within_deadline(self):
        total = run(fig5_scenario()).breakdown.t_total_s
        assert run(fig5_scenario(deadline_s=total + 0.01)).success is True
        assert run(fig5_scenario(deadline_s=total)).success is True
        assert run(fig5_scenario(deadline_s=total - 0.01)).success is False

    def test_deadline_event_logged_only_on_failure(self):
        ok = run(fig5_scenario(deadline_s=300.0))
        assert all(ev.label != "DeadlineExpired" for ev in ok.trace)
        late = run(fig5_scenario(deadline_s=40.0))
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

    def test_row_type_shape(self):
        row = sweep(fig5_scenario(), [250_000.0])[0]
        assert isinstance(row, SweepRow)
        assert isinstance(run(fig5_scenario()), SimReport)
