import dataclasses

import pytest

from edgeswarm.latency import analytic_scenario
from edgeswarm.model import BITS_PER_MB, EdgeNode
from edgeswarm.policies import GroupFormationPolicy, form_group
from edgeswarm.scenario import (
    STRICT_BARRIER,
    ScenarioPolicy,
    ScenarioValidationError,
    as_baseline,
    fig5_scenario,
    prepare,
    with_per_link_capacity,
)
from edgeswarm.swarmproto import PortClosedError, SwarmNetworkConfig, init_swarm, join_swarm
from conftest import scenario_batch


def replace_policy(scenario, **kwargs):
    return dataclasses.replace(scenario, policy=dataclasses.replace(scenario.policy, **kwargs))


class TestFig5Scenario:
    def test_task_calibration(self):
        task = fig5_scenario().task
        assert task.frame_count == 2220
        assert task.total_size_bits == 30_080_000
        assert task.deadline_s == 300.0

    def test_image_has_marker_and_writable_layer(self):
        image = fig5_scenario().image_by_id()["feat-image"]
        assert tuple(layer.layer_id for layer in image.layers) == ("feat-image.app",)
        assert image.rw_layer.size_bits == 2_000_000

    def test_channel_scales_with_per_link_argument(self):
        chan = with_per_link_capacity(fig5_scenario(), 300_000.0, 2).channel
        assert chan.source_channel_capacity_bps == 600_000.0
        assert chan.internode_capacity_bps == 300_000.0
        assert chan.edge_to_server_capacity_bps == 1_000_000.0
        # The packaged scenario is the 1000 kb/s point of the same rescaling.
        assert with_per_link_capacity(fig5_scenario(), 1_000_000.0, 2) == fig5_scenario()

    def test_only_first_node_stores_the_image(self):
        nodes = fig5_scenario().node_by_id()
        assert "feat-image.app" in nodes["edge-a"].stored_layer_ids
        assert not nodes["edge-b"].stored_layer_ids

    def test_effective_rate(self):
        node = fig5_scenario().nodes[0]
        assert node.effective_rate_wu_s == pytest.approx(38.144)


class TestPrepare:
    def test_fig5_membership(self):
        prep = prepare(fig5_scenario())
        assert tuple(n.node_id for n in prep.members) == ("edge-a", "edge-b")
        assert prep.swarm.leader_id == "edge-a"
        assert set(prep.member_map()) == {"edge-a", "edge-b"}

    def test_fig5_chunks_split_evenly(self):
        prep = prepare(fig5_scenario())
        assert len(prep.chunks) == 2
        assert [c.size_bits for c in prep.chunks] == [15_040_000, 15_040_000]
        assert [c.frame_range for c in prep.chunks] == [(0, 1110), (1110, 2220)]

    def test_fig5_assignment_is_one_chunk_per_member(self):
        prep = prepare(fig5_scenario())
        pairs = [(e.chunk.index, e.node_frames[0][0]) for e in prep.plan.entries]
        assert pairs == [(0, "edge-a"), (1, "edge-b")]

    def test_fig5_transfer_plans(self):
        prep = prepare(fig5_scenario())
        assert prep.transfer_plans == (
            ("edge-a", (), 0),
            ("edge-b", ("feat-image.app", "feat-image.rw"), 2_000_000),
        )

    def test_fig5_service_budgets_follow_members(self):
        service = prepare(fig5_scenario()).service
        assert service.function_id == "feat-extract"
        assert service.image_id == "feat-image"
        assert service.cpu_budget_fraction == 0.4
        assert service.memory_budget_bits == 4000 * BITS_PER_MB

    def test_leader_only_group(self):
        prep = prepare(as_baseline(fig5_scenario()))
        assert tuple(n.node_id for n in prep.members) == ("edge-a",)
        assert len(prep.chunks) == 1
        assert prep.chunks[0].size_bits == 30_080_000
        assert prep.transfer_plans == (("edge-a", (), 0),)

    def test_rate_weighted_split_follows_effective_rates(self):
        scenario = fig5_scenario()
        fast = dataclasses.replace(scenario.nodes[0], compute_rate_wu_s=3 * 95.36)
        scenario = dataclasses.replace(scenario, nodes=(fast, scenario.nodes[1]))
        prep = prepare(replace_policy(scenario, split="rate_weighted"))
        assert [c.frame_count for c in prep.chunks] == [1665, 555]

    def test_multicast_single_chunk_reaches_all_members(self):
        prep = prepare(replace_policy(fig5_scenario(), mode="multicast"))
        assert len(prep.chunks) == 1
        entry = prep.plan.entries[0]
        assert entry.mode == "multicast"
        assert [nid for nid, _ in entry.node_frames] == ["edge-a", "edge-b"]
        frames = [fr for _, fr in entry.node_frames]
        assert frames[0][0] == 0 and frames[-1][1] == 2220

    def test_top_k_limits_membership(self):
        scenario = fig5_scenario()
        extra = EdgeNode("edge-c", 50.0, 0.4, 4000 * BITS_PER_MB)
        scenario = dataclasses.replace(scenario, nodes=scenario.nodes + (extra,))
        prep = prepare(replace_policy(scenario, group="top_k", k=2))
        assert tuple(n.node_id for n in prep.members) == ("edge-a", "edge-b")

    # prepare expects a validated scenario; analytic_scenario is the
    # entry point that reaches it through the gate.
    def test_unknown_function_id(self):
        scenario = fig5_scenario()
        task = dataclasses.replace(scenario.task, function_id="nope")
        with pytest.raises(ScenarioValidationError) as err:
            analytic_scenario(dataclasses.replace(scenario, task=task))
        assert err.value.violations == ["task.function: unknown function 'nope'"]

    def test_unknown_image_id(self):
        scenario = fig5_scenario()
        fn = dataclasses.replace(scenario.functions[0], required_image_id="ghost")
        with pytest.raises(ScenarioValidationError) as err:
            analytic_scenario(dataclasses.replace(scenario, functions=(fn,)))
        assert err.value.violations == ["functions[feat-extract].image: unknown image 'ghost'"]

    def test_unknown_group_kind(self):
        with pytest.raises(ScenarioValidationError) as err:
            analytic_scenario(replace_policy(fig5_scenario(), group="everyone"))
        assert err.value.violations == ["policy.group: unknown kind 'everyone'"]

    def test_prepare_is_deterministic(self):
        a = prepare(fig5_scenario())
        b = prepare(fig5_scenario())
        assert a.chunks == b.chunks
        assert a.transfer_plans == b.transfer_plans
        assert a.swarm.member_ids == b.swarm.member_ids


def joined_one_by_one(scenario):
    """The swarm of ``scenario`` built by one ``join_swarm`` call per worker."""
    nodes = scenario.node_by_id()
    function = scenario.function_by_id()[scenario.task.function_id]
    image = scenario.image_by_id()[function.required_image_id]
    policy = GroupFormationPolicy(kind=scenario.policy.group, k=scenario.policy.k)
    shape = form_group(scenario.nodes, policy, image)
    swarm, token = init_swarm(nodes[shape.leader_id], scenario.network, scenario.sim.seed)
    for worker_id in shape.worker_ids:
        swarm = join_swarm(swarm, nodes[worker_id], token, scenario.network)
    return swarm


class TestAdmission:
    def test_swarm_equals_one_join_per_worker(self):
        for scenario in scenario_batch(0xAD31, 200):
            swarm = prepare(scenario).swarm
            assert dataclasses.replace(swarm, service=None) == joined_one_by_one(scenario)

    def test_closed_worker_port_raises_as_join_does(self):
        checked = 0
        for scenario in scenario_batch(0xAD32, 100):
            workers = prepare(scenario).swarm.worker_ids
            if not workers:
                continue
            # Close a port on a later worker, then on the first one too:
            # the error must name the first worker in join order.
            for closed in (workers[-1:], workers[-1:] + workers[:1]):
                network = SwarmNetworkConfig(
                    ports_open={worker: frozenset({2377}) for worker in closed}
                )
                broken = dataclasses.replace(scenario, network=network)
                with pytest.raises(PortClosedError) as joined:
                    joined_one_by_one(broken)
                with pytest.raises(PortClosedError) as prepared:
                    prepare(broken)
                assert (prepared.value.node_id, prepared.value.port) == (
                    joined.value.node_id,
                    joined.value.port,
                )
                assert str(prepared.value) == str(joined.value)
                checked += 1
        assert checked > 50


class TestScenarioRewrites:
    def test_with_per_link_capacity(self):
        scenario = with_per_link_capacity(fig5_scenario(), 250_000.0, 2)
        assert scenario.channel.source_channel_capacity_bps == 500_000.0
        assert scenario.channel.internode_capacity_bps == 250_000.0
        assert scenario.channel.edge_to_server_capacity_bps == 1_000_000.0

    def test_member_count_multiplies_source_total(self):
        scenario = with_per_link_capacity(fig5_scenario(), 100_000.0, 5)
        assert scenario.channel.source_channel_capacity_bps == 500_000.0

    def test_as_baseline_only_touches_the_group_policy(self):
        scenario = fig5_scenario()
        base = as_baseline(scenario)
        assert base.policy.group == "leader_only"
        assert base.policy.k is None
        assert base.channel == scenario.channel
        assert base.task == scenario.task
        assert base.sim == scenario.sim

    def test_default_policy(self):
        policy = ScenarioPolicy()
        assert policy.group == "all_available"
        assert policy.split == "equal"
        assert policy.mode == "unicast"
        assert policy.ignore_return is True

    def test_default_sim_mode_is_strict(self):
        assert fig5_scenario().sim.mode == STRICT_BARRIER
