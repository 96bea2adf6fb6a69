"""Scenario description, its validation gate and its elaboration into plans.

A :class:`Scenario` bundles everything one experiment needs: the task,
the function and image catalogs, the node roster, channel capacities,
policy knobs and simulation settings. :func:`validate_scenario` is the
one place that decides which scenarios are accepted: ``sim.run``,
``sim.sweep``, ``latency.analytic_scenario`` and every CLI command pass
a scenario through it before anything else, and the functions below it
assume what it checks instead of checking again. :func:`prepare`
elaborates an accepted scenario into the structures both the
closed-form model and the event simulator consume (swarm membership,
chunk list, assignment plan, layer transfer plans), so the two timing
paths disagree only if their timing math does.

:func:`fig5_scenario` packages the calibrated two-node feature
extraction experiment used by the capacity sweep command.
"""

from __future__ import annotations

import math
import sys
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
    VideoChunk,
    VideoTask,
    split_task,
)
from .policies import (
    ALL_AVAILABLE,
    MULTICAST,
    SPLIT_EQUAL,
    SPLIT_RATE_WEIGHTED,
    TOP_K,
    UNICAST,
    AssignmentPlan,
    GroupFormationPolicy,
    Swarm,
    assign_subtasks,
    form_group,
)
from .swarmproto import ServiceSpec, SwarmNetworkConfig, derive_join_token, plan_layer_transfer

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
    """Event simulation knobs: the phase model and the join token's seed."""

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


class ScenarioValidationError(Exception):
    """A scenario failed :func:`validate_scenario`; ``violations`` holds
    every violation it named."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Exact types the per-node fast path accepts; any other value, a number
# or set subclass included, goes through _node_violations and its full rules.
_PLAIN_NUMBERS = frozenset({int, float})
_PLAIN_SETS = frozenset({set, frozenset})
# Fast-path bound: unlike ``< math.inf``, it sends an int no float holds to _node_violations.
_FLOAT_MAX = sys.float_info.max


def _number(bad: list[str], prefix: str, name: str, value) -> bool:
    """True when ``value`` is a number (``int`` or ``float``, not
    ``bool``); otherwise appends the violation."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return True
    bad.append(f"{prefix}.{name}: must be a number, got {value!r}")
    return False


def _float(value) -> float:
    """``value`` as a float, and an ``int`` too large for one as ``inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _float_number(bad: list[str], prefix: str, name: str, value) -> bool:
    """:func:`_number` for a field the model types ``float``, where an
    ``int`` no float can hold is a violation too, named by its size."""
    if type(value) is float:
        return True
    if not _number(bad, prefix, name, value):
        return False
    if isinstance(value, int) and _float(value) == math.inf:
        bad.append(f"{prefix}.{name}: must fit a float, got a {value.bit_length()}-bit integer")
        return False
    return True


def _node_violations(node: EdgeNode, closed: list[int]) -> list[str]:
    """Every violation of one node, in field order."""
    bad: list[str] = []
    prefix = f"nodes[{node.node_id}]"
    budget, rate = node.cpu_budget_fraction, node.compute_rate_wu_s
    budget_ok = _float_number(bad, prefix, "cpu_budget_fraction", budget)
    if budget_ok and not 0 < budget <= 1:
        bad.append(f"{prefix}.cpu_budget_fraction: must be in (0, 1], got {budget!r}")
    rate_ok = _float_number(bad, prefix, "compute_rate_wu_s", rate)
    if rate_ok and not rate >= 0:
        bad.append(f"{prefix}.compute_rate_wu_s: must be >= 0, got {rate!r}")
    # NaN is named by the check above; rates weight the split.
    if rate_ok and rate == math.inf:
        bad.append(f"{prefix}.compute_rate_wu_s: must be finite, got {rate!r}")
    if budget_ok and rate_ok and not node.effective_rate_wu_s > 0:
        bad.append(f"{prefix}: effective compute rate must be positive")
    memory = node.memory_budget_bits
    if _number(bad, prefix, "memory_budget_bits", memory) and not memory >= 0:
        bad.append(f"{prefix}.memory_budget_bits: must be >= 0, got {memory!r}")
    if not isinstance(node.stored_layer_ids, (set, frozenset)):
        bad.append(
            f"{prefix}.stored_layer_ids: must be a set of layer ids, got {node.stored_layer_ids!r}"
        )
    startup = node.container_startup_s
    if _float_number(bad, prefix, "container_startup_s", startup) and not 0 <= startup < math.inf:
        bad.append(f"{prefix}.container_startup_s: must be finite and >= 0, got {startup!r}")
    bad.extend(f"{prefix}.ports: required port {port} is closed" for port in closed)
    return bad


def validate_scenario(scenario: Scenario) -> list[str]:
    """All invariant violations in ``scenario``, empty when it is fine.

    Reports every problem rather than stopping at the first, so a file
    author can fix a batch at once. Violations are plain strings naming
    the offending element and field. Every numeric field of the task,
    functions, nodes and channel must be a number (an ``int`` or a
    ``float``; ``bool`` does not count), and only then is its range
    checked. An ``int`` in a field the model types ``float`` must fit a
    float, but for ``output_ratio``: only the return reads it, and the
    worst cases below read it and the sizes in bits as floats, where one
    too large reads as ``inf``. The task and layer sizes in bits, the
    frame width and height, ``top_k``'s ``k`` and the seed must be
    ``int``, every node's layer store a ``set`` or ``frozenset``, and
    ``ignore_return`` a ``bool``. Once every input is in range, each
    phase's worst case must also be finite, and so must their sum, so
    that a clean scenario runs to a finite report; these checks cost
    O(nodes) and do not elaborate the scenario. Every run passes through
    here, so a message is formatted only when its check fails.
    """
    bad: list[str] = []
    task = scenario.task

    duration, fps = task.duration_s, task.fps
    duration_ok = _float_number(bad, "task", "duration_s", duration)
    if duration_ok and not duration >= 0:
        bad.append(f"task.duration_s: must be >= 0, got {duration!r}")
    fps_ok = _float_number(bad, "task", "fps", fps)
    if fps_ok and not fps >= 0:
        bad.append(f"task.fps: must be >= 0, got {fps!r}")
    # Above 2**53, frame counts no longer convert to floats exactly.
    if duration_ok and fps_ok and not duration * fps <= 2**53:
        bad.append(
            "task.duration_s: frame count duration_s x fps must be finite and at most 2**53, "
            f"got {duration!r} x {fps!r}"
        )
    for name in ("width_px", "height_px"):
        value = getattr(task, name)
        if not (_is_int(value) and value > 0):
            bad.append(f"task.{name}: must be a positive integer, got {value!r}")
    if not (_is_int(task.total_size_bits) and task.total_size_bits >= 0):
        bad.append(f"task.total_size_bits: must be an integer >= 0, got {task.total_size_bits!r}")
    if _float_number(bad, "task", "deadline_s", task.deadline_s) and not task.deadline_s > 0:
        bad.append(f"task.deadline_s: must be positive, got {task.deadline_s!r}")

    functions = scenario.function_by_id()
    if len(functions) != len(scenario.functions):
        bad.append("functions: duplicate function ids")
    images = scenario.image_by_id()
    if len(images) != len(scenario.images):
        bad.append("images: duplicate image ids")
    layer_sizes: dict[str, int] = {}
    for fn in scenario.functions:
        prefix = f"functions[{fn.function_id}]"
        for name, is_number in (("per_frame_cost_wu", _float_number), ("output_ratio", _number)):
            value = getattr(fn, name)
            if is_number(bad, prefix, name, value) and not 0 <= value < math.inf:
                bad.append(f"{prefix}.{name}: must be finite and >= 0, got {value!r}")
        if fn.required_image_id not in images:
            bad.append(f"{prefix}.image: unknown image {fn.required_image_id!r}")
    for image in scenario.images:
        layers = image.all_layers()
        if len({layer.layer_id for layer in layers}) != len(layers):
            bad.append(f"images[{image.image_id}]: duplicate layer ids")
        for layer in layers:
            if not (_is_int(layer.size_bits) and layer.size_bits >= 0):
                bad.append(
                    f"images[{image.image_id}].layers[{layer.layer_id}].size: "
                    f"must be an integer >= 0, got {layer.size_bits!r}"
                )
            # Layers are content-addressed: one id, one size.
            size = layer_sizes.setdefault(layer.layer_id, layer.size_bits)
            if layer.size_bits != size:
                bad.append(
                    f"images[{image.image_id}].layers[{layer.layer_id}].size: "
                    f"{layer.size_bits!r} bits conflicts with {size!r} bits given earlier "
                    "for the same layer id"
                )

    if not scenario.nodes:
        bad.append("nodes: at least one node is required")
    if len({node.node_id for node in scenario.nodes}) != len(scenario.nodes):
        bad.append("nodes: duplicate node ids")
    for node in scenario.nodes:
        closed = scenario.network.missing_ports(node.node_id)
        budget, rate = node.cpu_budget_fraction, node.compute_rate_wu_s
        memory, startup = node.memory_budget_bits, node.container_startup_s
        # This loop runs on every run of a large swarm: a clean node costs
        # these tests alone, and only another one goes through every rule.
        if not (
            not closed
            and type(budget) in _PLAIN_NUMBERS
            and type(rate) in _PLAIN_NUMBERS
            and type(memory) in _PLAIN_NUMBERS
            and type(startup) in _PLAIN_NUMBERS
            and type(node.stored_layer_ids) in _PLAIN_SETS
            and 0 < budget <= 1
            and 0 <= rate <= _FLOAT_MAX
            and node.effective_rate_wu_s > 0
            and memory >= 0
            and 0 <= startup <= _FLOAT_MAX
        ):
            bad.extend(_node_violations(node, closed))

    channel = scenario.channel
    for name, value in (
        ("source_total", channel.source_channel_capacity_bps),
        ("internode", channel.internode_capacity_bps),
        ("server", channel.edge_to_server_capacity_bps),
    ):
        if _float_number(bad, "channel", name, value) and not 0 < value < math.inf:
            bad.append(f"channel.{name}: capacity must be positive and finite, got {value!r}")

    policy = scenario.policy
    if policy.group not in GROUP_KINDS:
        bad.append(f"policy.group: unknown kind {policy.group!r}")
    if policy.group == TOP_K and not (_is_int(policy.k) and policy.k >= 1):
        bad.append(f"policy.k: top_k needs an integer k >= 1, got {policy.k!r}")
    if policy.split not in SPLIT_KINDS:
        bad.append(f"policy.split: unknown kind {policy.split!r}")
    if policy.mode not in DELIVERY_MODES:
        bad.append(f"policy.mode: unknown kind {policy.mode!r}")
    if not isinstance(policy.ignore_return, bool):
        bad.append(f"policy.ignore_return: must be a boolean, got {policy.ignore_return!r}")
    if scenario.sim.mode not in SIM_MODES:
        bad.append(f"sim.mode: unknown mode {scenario.sim.mode!r}")
    if not _is_int(scenario.sim.seed):
        bad.append(f"sim.seed: must be an integer, got {scenario.sim.seed!r}")

    if task.function_id not in functions:
        bad.append(f"task.function: unknown function {task.function_id!r}")
    else:
        fn = functions[task.function_id]
        image = images.get(fn.required_image_id)
        if image is not None:
            needed = {layer.layer_id for layer in image.layers}
            # A store that is not a set is named above and never looked into.
            if not any(
                isinstance(store, (set, frozenset)) and needed <= store
                for store in (node.stored_layer_ids for node in scenario.nodes)
            ):
                bad.append(
                    "NoImageHolder: no node stores the read-only layers of image "
                    f"{image.image_id!r}"
                )
    if bad:
        return bad

    # Phase worst cases: every node pulls the whole image over the shared
    # inter-node link, one source flow carries every input bit, every node
    # computes every frame, and one node returns every input bit's output.
    fn = functions[task.function_id]
    layers = images[fn.required_image_id].all_layers()
    image_bits = _float(sum(layer.size_bits for layer in layers))
    task_bits = _float(task.total_size_bits)
    worst = {
        "channel.internode: worst-case establish time": max(
            node.container_startup_s for node in scenario.nodes
        ) + image_bits * len(scenario.nodes) / channel.internode_capacity_bps,
        "channel.source_total: worst-case delivery time": (
            task_bits / channel.source_channel_capacity_bps
        ),
        "channel.server: worst-case return time": 0.0 if policy.ignore_return else (
            task_bits * _float(fn.output_ratio) / channel.edge_to_server_capacity_bps
        ),
    }
    for name, seconds in worst.items():
        if not math.isfinite(seconds):
            bad.append(f"{name} must be finite, got {seconds!r}")
    work_wu = task.frame_count * float(fn.per_frame_cost_wu)
    for node in scenario.nodes:
        if not math.isfinite(work_wu / node.effective_rate_wu_s):
            bad.append(f"nodes[{node.node_id}]: worst-case compute time must be finite")
    if not bad:
        total = sum(worst.values()) + work_wu / min(n.effective_rate_wu_s for n in scenario.nodes)
        if not math.isfinite(total):
            bad.append(f"scenario: worst-case total time must be finite, got {total!r}")
    return bad


def prepare(scenario: Scenario) -> PreparedScenario:
    """Elaborate ``scenario`` into membership, chunks and plans, in one pass.

    Builds the swarm from the group :func:`~edgeswarm.policies.form_group`
    forms, the join code derived from the seed and the service with the
    members' smallest budgets. Then it splits the task, assigns chunks and
    plans the layers each worker pulls, once per distinct layer store.
    The gate rules out every error of the lifecycle the engine replays.
    The step-by-step helpers :func:`~edgeswarm.swarmproto.init_swarm`,
    :func:`~edgeswarm.swarmproto.join_swarm` and
    :func:`~edgeswarm.swarmproto.deploy_service` give the same values;
    they stay only as the reference that the tests and the benchmark's
    traced replay compare against.
    Every step is linear in the node count apart from sorting the roster.
    Expects a scenario :func:`validate_scenario` passed. It never reads
    ``scenario.channel``, which lets :func:`edgeswarm.sim.sweep` reuse one
    elaboration at every capacity.
    """
    function = scenario.function_by_id()[scenario.task.function_id]
    image = scenario.image_by_id()[function.required_image_id]
    node_map = scenario.node_by_id()
    policy = scenario.policy
    shape = form_group(scenario.nodes, GroupFormationPolicy(policy.group, policy.k), image)
    members = tuple(node_map[m] for m in shape.member_ids)

    if policy.mode == MULTICAST:
        chunks = split_task(scenario.task, 1)
    elif policy.split == SPLIT_RATE_WEIGHTED:
        chunks = split_task(
            scenario.task,
            len(members),
            policy="weighted",
            weights=[node.effective_rate_wu_s for node in members],
        )
    else:
        chunks = split_task(scenario.task, len(members))

    service = ServiceSpec(
        service_name=f"svc-{function.function_id}",
        function_id=function.function_id,
        image_id=image.image_id,
        cpu_budget_fraction=min(node.cpu_budget_fraction for node in members),
        memory_budget_bits=min(node.memory_budget_bits for node in members),
    )
    swarm = Swarm(shape.leader_id, shape.worker_ids, derive_join_token(scenario.sim.seed), service)
    plan = assign_subtasks(chunks, swarm, node_map, split=policy.split, mode=policy.mode)

    leader_store = members[0].stored_layer_ids
    transfer_plans = [(shape.leader_id, (), 0)]
    # Workers with the same layer store get the same transfer; plan it once.
    by_store: dict[frozenset[str], tuple[tuple[str, ...], int]] = {}
    for worker in members[1:]:
        store = worker.stored_layer_ids
        if store not in by_store:
            by_store[store] = plan_layer_transfer(leader_store, store, image)
        transfer_plans.append((worker.node_id, *by_store[store]))
    return PreparedScenario(
        scenario=scenario,
        function=function,
        swarm=swarm,
        members=members,
        chunks=tuple(chunks),
        plan=plan,
        transfer_plans=tuple(transfer_plans),
        service=service,
    )


def fig5_scenario() -> Scenario:
    """The packaged two-node feature extraction experiment.

    A 74 s, 30 fps, 1280x618 surveillance clip of 3.76 MB is split
    between two identical edge nodes. Only the first node stores the
    function image; the other receives the 0.25 MB writable layer over
    the inter-node link. Each node runs the container at a 40 % CPU
    budget, giving an effective rate of 38.144 work units per second,
    and result return is ignored. Each source-to-node link carries
    1000 kb/s, so the two nodes share a source channel of 2000 kb/s;
    the inter-node link also carries 1000 kb/s.
    """
    task = VideoTask(
        task_id="surveillance-clip",
        duration_s=74.0,
        fps=30.0,
        width_px=1280,
        height_px=618,
        total_size_bits=round(3.76 * BITS_PER_MB),
        deadline_s=300.0,
        function_id="feat-extract",
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
        source_channel_capacity_bps=2000.0 * BPS_PER_KBPS,
        internode_capacity_bps=1000.0 * BPS_PER_KBPS,
        edge_to_server_capacity_bps=1000.0 * BPS_PER_KBPS,
    )
    return Scenario(
        task=task,
        functions=(function,),
        images=(image,),
        nodes=nodes,
        channel=channel,
        policy=ScenarioPolicy(ignore_return=True),
        sim=SimSettings(mode=STRICT_BARRIER, seed=7),
    )


def with_per_link_capacity(scenario: Scenario, per_link_bps: float, member_count: int) -> Scenario:
    """Rescale channel capacities to a per-link value.

    The source channel total becomes ``member_count`` links' worth and
    the inter-node link gets one link's worth, matching the symmetric
    sharing assumption of the calibrated experiment. The server link is
    untouched.
    """
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
