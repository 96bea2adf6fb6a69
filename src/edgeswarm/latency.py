"""Closed-form delay model for a swarm processing one video task.

Completion time decomposes into four sequential phases: container
establishment, chunk delivery, computation, result return. Each
component is the completion time of its phase over all members, so
"over all nodes" means a maximum (members work in parallel), and the
total is the plain sum of the four. The event simulator in
:mod:`edgeswarm.sim` recomputes the same quantities independently; this
module is the reference the simulator is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import ChannelModel, EdgeNode, ProcessingFunction, ValidationError, VideoChunk
from .policies import AssignmentPlan
from .scenario import (
    PreparedScenario,
    Scenario,
    ScenarioValidationError,
    prepare,
    validate_scenario,
)

ComponentSeconds = float

_COMPONENT_NAMES = ("t_ce_s", "t_d_s", "t_c_s", "t_r_s")


@dataclass(frozen=True)
class DelayBreakdown:
    """The four delay components and their total, all in seconds.

    Build with :meth:`from_components` to get the total as the exact
    component sum. The overlap simulation mode constructs instances
    directly because there the total is a makespan, smaller than the
    sum of per-phase spans.
    """

    t_ce_s: float
    t_d_s: float
    t_c_s: float
    t_r_s: float
    t_total_s: float

    @classmethod
    def from_components(
        cls, t_ce_s: float, t_d_s: float, t_c_s: float, t_r_s: float
    ) -> "DelayBreakdown":
        components = (t_ce_s, t_d_s, t_c_s, t_r_s)
        for name, value in zip(_COMPONENT_NAMES, components):
            if not (value >= 0):
                raise ValidationError(name, f"delay component must be >= 0, got {value!r}")
        return cls(t_ce_s, t_d_s, t_c_s, t_r_s, math.fsum(components))

    def components(self) -> tuple[float, float, float, float]:
        return (self.t_ce_s, self.t_d_s, self.t_c_s, self.t_r_s)


def container_establish_time(
    transfer_plans: Sequence[tuple[str, tuple[str, ...], int]],
    channel: ChannelModel,
    nodes: Mapping[str, EdgeNode],
) -> ComponentSeconds:
    """Time until every member's container is up.

    Workers that need layers pull them from the leader concurrently,
    each at an equal share of the inter-node capacity (workers with
    nothing to pull do not occupy the link). Every member then pays its
    own startup constant. Members finish in parallel, so the phase ends
    at the slowest one; a plan with no transfers costs only startup.
    Expects the plans and channel of a scenario that
    :func:`validate_scenario` passed.
    """
    active = sum(1 for _, _, bits in transfer_plans if bits > 0)
    worst = 0.0
    for node_id, _, bits in transfer_plans:
        t = nodes[node_id].container_startup_s
        if bits > 0:
            t += bits / (channel.internode_capacity_bps / active)
        worst = max(worst, t)
    return worst


def waterfill_completions(
    sizes_bits: Sequence[float], capacity_bps: float
) -> list[ComponentSeconds]:
    """Per-flow completion times on one fairly shared channel.

    All flows start together and split the capacity equally; whenever
    one finishes, the survivors re-share (max-min progressive filling).
    Returned times align with the input order. The last completion is
    always total bits over capacity because the channel never idles.
    ``capacity_bps`` must be positive, as :func:`validate_scenario`
    requires of every channel capacity.
    """
    completions = [0.0] * len(sizes_bits)
    order = sorted(range(len(sizes_bits)), key=lambda i: sizes_bits[i])
    now = 0.0
    transferred = 0.0  # bits every live flow has moved so far
    remaining = len(sizes_bits)
    for flow in order:
        size = sizes_bits[flow]
        if size > transferred:
            now += (size - transferred) * remaining / capacity_bps
            transferred = size
        completions[flow] = now
        remaining -= 1
    return completions


def delivery_time(
    plan: AssignmentPlan,
    chunks: Sequence[VideoChunk],
    channel: ChannelModel,
) -> ComponentSeconds:
    """Time until the last chunk reaches its assignees.

    One flow per chunk on the shared source channel: unicast flows go to
    single nodes, a multicast flow reaches every receiver at once, so
    receiver count never multiplies the traffic. ``chunks`` carries the
    payloads actually sent, aligned with the plan entries.
    """
    if len(chunks) != len(plan.entries):
        raise ValidationError(
            "chunks", f"plan has {len(plan.entries)} entries but {len(chunks)} chunks given"
        )
    completions = waterfill_completions(
        [chunk.size_bits for chunk in chunks], channel.source_channel_capacity_bps
    )
    return max(completions, default=0.0)


def compute_time(
    plan: AssignmentPlan,
    nodes: Mapping[str, EdgeNode],
    function: ProcessingFunction,
) -> ComponentSeconds:
    """Time until the slowest member finishes its assigned frames.

    Expects the plan and nodes of a scenario that
    :func:`validate_scenario` passed, so every rate is positive.
    """
    worst = 0.0
    for node_id in plan.node_ids():
        node = nodes[node_id]
        frames = plan.frames_assigned_to(node_id)
        worst = max(worst, frames * function.per_frame_cost_wu / node.effective_rate_wu_s)
    return worst


def result_return_time(
    plan: AssignmentPlan,
    function: ProcessingFunction,
    channel: ChannelModel,
    ignore_return: bool,
) -> ComponentSeconds:
    """Time to upload each member's output to the server, in parallel.

    Output size is the node's processed input bits scaled by the
    function's output ratio. With ``ignore_return`` the phase is free,
    mirroring experiments that only measure up to computation.
    Expects the plan and channel of a scenario that
    :func:`validate_scenario` passed.
    """
    if ignore_return:
        return 0.0
    worst = 0.0
    for node_id in plan.node_ids():
        output_bits = plan.input_bits_for(node_id) * function.output_ratio
        if output_bits <= 0:
            continue
        worst = max(worst, output_bits / channel.edge_to_server_capacity_bps)
    return worst


def analytic_scenario(scenario: Scenario | PreparedScenario) -> DelayBreakdown:
    """Evaluate a whole scenario under the strict four-phase model.

    Phases run back to back with a barrier between them: every
    container is up before any chunk flows, all chunks land before any
    frame is processed, and so on. With that discipline the phase sum
    is exact. A :class:`Scenario` passes :func:`validate_scenario` first
    and raises :class:`ScenarioValidationError` carrying every violation;
    a :class:`PreparedScenario` skips the gate and re-elaboration, so it
    must come from :func:`prepare` of a scenario that passed.
    """
    if isinstance(scenario, PreparedScenario):
        prep = scenario
    else:
        violations = validate_scenario(scenario)
        if violations:
            raise ScenarioValidationError(violations)
        prep = prepare(scenario)
    channel = prep.scenario.channel
    members = {node.node_id: node for node in prep.members}
    t_ce = container_establish_time(prep.transfer_plans, channel, members)
    t_d = delivery_time(prep.plan, prep.chunks, channel)
    t_c = compute_time(prep.plan, members, prep.function)
    t_r = result_return_time(prep.plan, prep.function, channel, prep.scenario.policy.ignore_return)
    return DelayBreakdown.from_components(t_ce, t_d, t_c, t_r)
