import dataclasses
import math
import random

import pytest

from edgeswarm.latency import analytic_scenario
from edgeswarm.model import (
    READ_ONLY,
    READ_WRITE,
    ContainerImage,
    EdgeNode,
    Layer,
    VideoChunk,
    VideoTask,
    split_task,
)
from edgeswarm.policies import (
    MULTICAST,
    UNICAST,
    Assignment,
    AssignmentPlan,
    GroupFormationPolicy,
    NoImageHolderError,
    Swarm,
    assign_subtasks,
    form_group,
    select_leader,
)
from edgeswarm.scenario import ScenarioValidationError, fig5_scenario, prepare
from conftest import scenario_batch

IMAGE = ContainerImage(
    image_id="app",
    layers=(Layer("app.base", 1000, READ_ONLY),),
    rw_layer=Layer("app.rw", 200, READ_WRITE),
)


def node(node_id, rate, budget=1.0, holds=True):
    stored = frozenset({"app.base"}) if holds else frozenset()
    return EdgeNode(node_id, rate, budget, 10**9, stored)


def task_chunks(n, frames=600, bits=6000):
    task = VideoTask(
        task_id="task",
        duration_s=frames / 30.0,
        fps=30.0,
        width_px=8,
        height_px=8,
        total_size_bits=bits,
        deadline_s=math.inf,
        function_id="fn",
    )
    return split_task(task, n)


class TestSelectLeader:
    def test_fastest_holder_wins(self):
        nodes = [node("a", 10.0), node("b", 50.0), node("c", 99.0, holds=False)]
        assert select_leader(nodes, IMAGE) == "b"

    def test_effective_rate_not_raw_rate(self):
        nodes = [node("a", 100.0, budget=0.2), node("b", 30.0, budget=1.0)]
        assert select_leader(nodes, IMAGE) == "b"

    def test_tie_breaks_to_lowest_id(self):
        nodes = [node("b", 10.0), node("a", 10.0)]
        assert select_leader(nodes, IMAGE) == "a"

    def test_no_holder_raises(self):
        with pytest.raises(NoImageHolderError):
            select_leader([node("a", 10.0, holds=False)], IMAGE)

    def test_empty_roster_raises(self):
        # No node at all holds no image; validate_scenario names both.
        with pytest.raises(NoImageHolderError):
            select_leader([], IMAGE)


class TestFormGroup:
    def roster(self):
        return [node("a", 40.0), node("b", 90.0), node("c", 70.0, holds=False), node("d", 10.0)]

    def test_all_available_admits_everyone(self):
        swarm = form_group(self.roster(), GroupFormationPolicy("all_available"), IMAGE)
        assert swarm.leader_id == "b"
        assert swarm.worker_ids == ("c", "a", "d")
        assert swarm.member_ids == ("b", "c", "a", "d")

    def test_top_k_counts_the_leader(self):
        swarm = form_group(self.roster(), GroupFormationPolicy("top_k", k=2), IMAGE)
        assert swarm.member_ids == ("b", "c")

    def test_top_k_clamps_to_roster(self):
        swarm = form_group(self.roster(), GroupFormationPolicy("top_k", k=99), IMAGE)
        assert len(swarm.member_ids) == 4

    def test_leader_only(self):
        swarm = form_group(self.roster(), GroupFormationPolicy("leader_only"), IMAGE)
        assert swarm.member_ids == ("b",)

    def test_top_k_requires_k(self):
        # form_group trusts the gate: a top_k group without k never forms.
        scenario = fig5_scenario()
        policy = dataclasses.replace(scenario.policy, group="top_k", k=None)
        with pytest.raises(ScenarioValidationError) as err:
            analytic_scenario(dataclasses.replace(scenario, policy=policy))
        assert err.value.violations == [
            "policy.k: top_k needs an integer k >= 1, got None"
        ]


class TestAssignSubtasks:
    def swarm(self):
        return Swarm("a", ("b", "c"))

    def nodes(self):
        return {"a": node("a", 60.0), "b": node("b", 30.0), "c": node("c", 10.0)}

    def test_unicast_chunk_i_to_member_i(self):
        chunks = task_chunks(3)
        plan = assign_subtasks(chunks, self.swarm(), self.nodes())
        assert plan.node_ids() == ("a", "b", "c")
        for chunk, entry in zip(chunks, plan.entries):
            assert entry.chunk is chunk
            assert entry.receivers() == (plan.node_ids()[chunk.index],)
        assert plan.frames_assigned_to("a") == 200
        assert plan.input_bits_for("a") == chunks[0].size_bits

    def test_multicast_reaches_all_members(self):
        chunks = task_chunks(1)
        plan = assign_subtasks(chunks, self.swarm(), self.nodes(), mode="multicast")
        entry = plan.entries[0]
        assert entry.receivers() == ("a", "b", "c")
        assert plan.frames_assigned_to("a") == 200
        ranges = [fr for _, fr in entry.node_frames]
        assert ranges[0][0] == chunks[0].frame_range[0]
        assert ranges[-1][1] == chunks[0].frame_range[1]
        for left, right in zip(ranges, ranges[1:]):
            assert left[1] == right[0]

    def test_multicast_rate_weighted_shares(self):
        chunks = task_chunks(1)
        plan = assign_subtasks(
            chunks, self.swarm(), self.nodes(), split="rate_weighted", mode="multicast"
        )
        assert plan.frames_assigned_to("a") == 360
        assert plan.frames_assigned_to("b") == 180
        assert plan.frames_assigned_to("c") == 60

    def test_multicast_input_bits_follow_frames(self):
        chunks = task_chunks(1)
        plan = assign_subtasks(
            chunks, self.swarm(), self.nodes(), split="rate_weighted", mode="multicast"
        )
        assert plan.input_bits_for("a") == pytest.approx(6000 * 360 / 600)
        assert plan.input_bits_for("b") == pytest.approx(6000 * 180 / 600)

    def test_multicast_zero_frames_splits_bits_equally(self):
        task = VideoTask(
            task_id="task",
            duration_s=0.0,
            fps=0.0,
            width_px=8,
            height_px=8,
            total_size_bits=999,
            deadline_s=math.inf,
            function_id="fn",
        )
        chunks = split_task(task, 1)
        plan = assign_subtasks(chunks, self.swarm(), self.nodes(), mode="multicast")
        assert plan.input_bits_for("a") == pytest.approx(333.0)
        assert plan.frames_assigned_to("a") == 0


def restated_totals(plan, node_id):
    """Frames and input bits of ``node_id``, by one scan of ``plan.entries``."""
    frames, bits = 0, 0.0
    for entry in plan.entries:
        chunk = entry.chunk
        mine = sum(last - first for nid, (first, last) in entry.node_frames if nid == node_id)
        frames += mine
        if entry.mode == UNICAST:
            if entry.node_frames[0][0] == node_id:
                bits += chunk.size_bits
        elif chunk.frame_count > 0:
            bits += chunk.size_bits * mine / chunk.frame_count
        elif any(nid == node_id for nid, _ in entry.node_frames):
            bits += chunk.size_bits / len(entry.node_frames)
    return frames, bits


def random_plan(rng, mode):
    """A plan of up to 6 chunks over up to 8 nodes; multicast chunks may
    have no frames and may reach only some nodes."""
    nodes = [f"n{i}" for i in range(rng.randint(1, 8))]
    entries, first = [], rng.randrange(100)
    for index in range(rng.randint(1, 6)):
        frames = rng.choice([0, rng.randint(1, 900)])
        size = rng.choice([0.0, float(rng.randrange(10**9)), rng.uniform(0.0, 1e7)])
        chunk = VideoChunk("t", index, (first, first + frames), size)
        first += frames
        if (mode if mode != "mixed" else rng.choice([UNICAST, MULTICAST])) == UNICAST:
            entries.append(Assignment(chunk, UNICAST, ((rng.choice(nodes), chunk.frame_range),)))
            continue
        receivers = rng.sample(nodes, rng.randint(1, len(nodes)))
        cuts = sorted(rng.randint(*chunk.frame_range) for _ in receivers[1:])
        bounds = [chunk.frame_range[0], *cuts, chunk.frame_range[1]]
        node_frames = tuple(
            (receiver, (bounds[i], bounds[i + 1])) for i, receiver in enumerate(receivers)
        )
        entries.append(Assignment(chunk, MULTICAST, node_frames))
    return AssignmentPlan("t", tuple(entries))


class TestPlanTotals:
    def check(self, plan):
        first_seen = {}
        for entry in plan.entries:
            for node_id, _ in entry.node_frames:
                first_seen.setdefault(node_id)
        assert plan.node_ids() == tuple(first_seen)
        for node_id in (*first_seen, "absent"):
            assert (plan.frames_assigned_to(node_id), plan.input_bits_for(node_id)) == (
                restated_totals(plan, node_id)
            )
        assert plan.frames_assigned_to("absent") == 0
        assert plan.input_bits_for("absent") == 0.0
        rebuilt = AssignmentPlan(plan.task_id, plan.entries)
        assert plan == rebuilt and hash(plan) == hash(rebuilt)
        assert repr(plan) == f"AssignmentPlan(task_id={plan.task_id!r}, entries={plan.entries!r})"

    @pytest.mark.parametrize("mode", [UNICAST, MULTICAST, "mixed"])
    def test_random_plans_match_entry_scan(self, mode):
        rng = random.Random(0x7A1)
        zero_frame_multicast = 0
        for _ in range(300):
            plan = random_plan(rng, mode)
            self.check(plan)
            zero_frame_multicast += sum(
                1 for e in plan.entries if e.mode == MULTICAST and e.chunk.frame_count == 0
            )
        assert zero_frame_multicast > 0 or mode == UNICAST

    def test_prepared_plans_match_entry_scan(self):
        for scenario in scenario_batch(0x7A2, 100):
            self.check(prepare(scenario).plan)
