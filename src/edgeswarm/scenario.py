"""Scenario description and its elaboration into concrete plans.

A :class:`Scenario` bundles everything one experiment needs: the task,
the function and image catalogs, the node roster, channel capacities,
policy knobs and simulation settings. :func:`prepare` elaborates that
into the structures both the closed-form model and the event simulator
consume (swarm membership, chunk list, assignment plan, layer transfer
plans), so the two timing paths disagree only if their timing math does.

:func:`fig5_scenario` packages the calibrated two-node feature
extraction experiment used by the capacity sweep command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .model import (
    BITS_PER_MB,
    BPS_PER_KBPS,
    READ_ONLY,
    READ_WRITE,
    ChannelModel,
    ContainerImage,
    EdgeNode,
    Layer,
    ProcessingFunction,
    ValidationError,
    VideoChunk,
    VideoTask,
    make_task,
    split_task,
)
from .policies import (
    ALL_AVAILABLE,
    MULTICAST,
    SPLIT_EQUAL,
    SPLIT_RATE_WEIGHTED,
    UNICAST,
    AssignmentPlan,
    GroupFormationPolicy,
    Swarm,
    assign_subtasks,
    form_group,
)
from .swarmproto import ServiceSpec, SwarmNetworkConfig, admit_workers, deploy_service, init_swarm

STRICT_BARRIER = "strict_barrier"
PER_NODE_OVERLAP = "per_node_overlap"

GROUP_KINDS = ("all_available", "top_k", "leader_only")
SPLIT_KINDS = (SPLIT_EQUAL, SPLIT_RATE_WEIGHTED)
DELIVERY_MODES = (UNICAST, MULTICAST)
SIM_MODES = (STRICT_BARRIER, PER_NODE_OVERLAP)


@dataclass(frozen=True)
class ScenarioPolicy:
    """Offloading policy knobs: who joins, how to split, how to send."""

    group: str = ALL_AVAILABLE
    k: int | None = None
    split: str = SPLIT_EQUAL
    mode: str = UNICAST
    ignore_return: bool = True


@dataclass(frozen=True)
class SimSettings:
    mode: str = STRICT_BARRIER
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    """One self-contained experiment description.

    All quantities are in model units (bits, bits per second, seconds);
    file front ends convert from MB and kb/s when parsing.
    """

    task: VideoTask
    functions: tuple[ProcessingFunction, ...]
    images: tuple[ContainerImage, ...]
    nodes: tuple[EdgeNode, ...]
    channel: ChannelModel
    policy: ScenarioPolicy = ScenarioPolicy()
    sim: SimSettings = SimSettings()
    network: SwarmNetworkConfig = field(default_factory=SwarmNetworkConfig)

    def function_by_id(self) -> dict[str, ProcessingFunction]:
        return {fn.function_id: fn for fn in self.functions}

    def image_by_id(self) -> dict[str, ContainerImage]:
        return {img.image_id: img for img in self.images}

    def node_by_id(self) -> dict[str, EdgeNode]:
        return {node.node_id: node for node in self.nodes}


@dataclass(frozen=True)
class PreparedScenario:
    """Scenario elaborated into concrete plans, ready for timing."""

    scenario: Scenario
    function: ProcessingFunction
    swarm: Swarm
    members: tuple[EdgeNode, ...]
    chunks: tuple[VideoChunk, ...]
    plan: AssignmentPlan
    transfer_plans: tuple[tuple[str, tuple[str, ...], int], ...]
    service: ServiceSpec

    def member_map(self) -> dict[str, EdgeNode]:
        return {node.node_id: node for node in self.members}


def group_policy(policy: ScenarioPolicy) -> GroupFormationPolicy:
    if policy.group not in GROUP_KINDS:
        raise ValidationError("policy.group", f"unknown group policy {policy.group!r}")
    return GroupFormationPolicy(kind=policy.group, k=policy.k)


def prepare(scenario: Scenario) -> PreparedScenario:
    """Elaborate ``scenario`` into membership, chunks and plans.

    Replays the swarm lifecycle (initiation with a seeded identifying
    code, worker admission, service deployment) so the resulting swarm
    is exactly what the protocol machinery would produce, then splits
    the task and assigns chunks. All workers of the formed group are
    admitted in one pass of the :func:`join_swarm` rule
    (:func:`admit_workers`), so the swarm equals the one a join per
    worker gives. Every step is linear in the node count apart from
    sorting the roster. Raises the underlying errors for unknown ids,
    imageless rosters or closed ports.
    """
    functions = scenario.function_by_id()
    if scenario.task.function_id not in functions:
        raise ValidationError(
            "task.function", f"unknown function {scenario.task.function_id!r}"
        )
    function = functions[scenario.task.function_id]
    images = scenario.image_by_id()
    if function.required_image_id not in images:
        raise ValidationError(
            "function.image", f"unknown image {function.required_image_id!r}"
        )
    image = images[function.required_image_id]

    node_map = scenario.node_by_id()
    shape = form_group(scenario.nodes, group_policy(scenario.policy), image)
    swarm, token = init_swarm(node_map[shape.leader_id], scenario.network, scenario.sim.seed)
    workers = [node_map[worker_id] for worker_id in shape.worker_ids]
    swarm = admit_workers(swarm, workers, token, scenario.network)
    members = tuple(node_map[m] for m in swarm.member_ids)

    if scenario.policy.mode == MULTICAST:
        chunks = split_task(scenario.task, 1)
    elif scenario.policy.split == SPLIT_RATE_WEIGHTED:
        chunks = split_task(
            scenario.task,
            len(members),
            policy="weighted",
            weights=[node.effective_rate_wu_s for node in members],
        )
    else:
        chunks = split_task(scenario.task, len(members))
    plan = assign_subtasks(
        chunks, swarm, node_map, split=scenario.policy.split, mode=scenario.policy.mode
    )

    service = ServiceSpec(
        service_name=f"svc-{function.function_id}",
        function_id=function.function_id,
        image_id=image.image_id,
        cpu_budget_fraction=min(node.cpu_budget_fraction for node in members),
        memory_budget_bits=min(node.memory_budget_bits for node in members),
    )
    swarm = replace(swarm, service=service)
    transfer_plans = tuple(deploy_service(swarm, service, node_map, images))
    return PreparedScenario(
        scenario=scenario,
        function=function,
        swarm=swarm,
        members=members,
        chunks=tuple(chunks),
        plan=plan,
        transfer_plans=transfer_plans,
        service=service,
    )


def fig5_scenario(
    per_link_kbps: float = 1000.0,
    deadline_s: float = 300.0,
    sim_mode: str = STRICT_BARRIER,
) -> Scenario:
    """The packaged two-node feature extraction experiment.

    A 74 s, 30 fps, 1280x618 surveillance clip of 3.76 MB is split
    between two identical edge nodes. Only the first node stores the
    function image; the other receives the 0.25 MB writable layer over
    the inter-node link. Each node runs the container at a 40 % CPU
    budget, giving an effective rate of 38.144 work units per second,
    and result return is ignored. ``per_link_kbps`` is the capacity of
    one source-to-node link; the two nodes share a source channel of
    twice that, and the inter-node link has the same per-link capacity.
    """
    task = make_task(
        duration_s=74.0,
        fps=30.0,
        width_px=1280,
        height_px=618,
        total_size_bits=round(3.76 * BITS_PER_MB),
        deadline_s=deadline_s,
        function_id="feat-extract",
        task_id="surveillance-clip",
    )
    function = ProcessingFunction(
        function_id="feat-extract",
        name="feature extraction",
        per_frame_cost_wu=1.0,
        output_ratio=0.01,
        required_image_id="feat-image",
    )
    image = ContainerImage(
        image_id="feat-image",
        layers=(Layer("feat-image.app", 0, READ_ONLY),),
        rw_layer=Layer("feat-image.rw", round(0.25 * BITS_PER_MB), READ_WRITE),
    )
    nodes = (
        EdgeNode(
            node_id="edge-a",
            compute_rate_wu_s=95.36,
            cpu_budget_fraction=0.4,
            memory_budget_bits=4000 * BITS_PER_MB,
            stored_layer_ids=frozenset({"feat-image.app"}),
        ),
        EdgeNode(
            node_id="edge-b",
            compute_rate_wu_s=95.36,
            cpu_budget_fraction=0.4,
            memory_budget_bits=4000 * BITS_PER_MB,
        ),
    )
    channel = ChannelModel(
        source_channel_capacity_bps=2.0 * per_link_kbps * BPS_PER_KBPS,
        internode_capacity_bps=per_link_kbps * BPS_PER_KBPS,
        edge_to_server_capacity_bps=1000.0 * BPS_PER_KBPS,
    )
    if sim_mode not in SIM_MODES:
        raise ValidationError("sim.mode", f"unknown simulation mode {sim_mode!r}")
    return Scenario(
        task=task,
        functions=(function,),
        images=(image,),
        nodes=nodes,
        channel=channel,
        policy=ScenarioPolicy(ignore_return=True),
        sim=SimSettings(mode=sim_mode, seed=7),
    )


def with_per_link_capacity(scenario: Scenario, per_link_bps: float, member_count: int) -> Scenario:
    """Rescale channel capacities to a per-link value.

    The source channel total becomes ``member_count`` links' worth and
    the inter-node link gets one link's worth, matching the symmetric
    sharing assumption of the calibrated experiment. The server link is
    untouched.
    """
    if not (per_link_bps > 0 and math.isfinite(per_link_bps)):
        raise ValidationError("capacity", f"capacity must be positive and finite, got {per_link_bps!r}")
    channel = replace(
        scenario.channel,
        source_channel_capacity_bps=member_count * per_link_bps,
        internode_capacity_bps=per_link_bps,
    )
    return replace(scenario, channel=channel)


def as_baseline(scenario: Scenario) -> Scenario:
    """Leader-only variant of ``scenario`` with the channel untouched.

    The whole source channel then serves the single leader link, so the
    per-link capacity effectively doubles in the two-node case.
    """
    return replace(scenario, policy=replace(scenario.policy, group="leader_only", k=None))
