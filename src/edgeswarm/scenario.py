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
from dataclasses import dataclass, field, replace

from .model import (
    BITS_PER_MB,
    BOOLEAN,
    BPS_PER_KBPS,
    CHANNEL,
    FUNCTION,
    IMAGE,
    INTEGER,
    LAYER,
    LAYER_IDS,
    NODE,
    READ_ONLY,
    READ_WRITE,
    TASK,
    ChannelModel,
    ContainerImage,
    EdgeNode,
    Entries,
    Layer,
    ProcessingFunction,
    Rule,
    Table,
    VideoChunk,
    VideoTask,
    _float,
    column,
    one_of,
    split_task,
)
from .policies import (
    ALL_AVAILABLE,
    LEADER_ONLY,
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
from .swarmproto import (
    NETWORK,
    ServiceSpec,
    SwarmNetworkConfig,
    derive_join_token,
    plan_layer_transfer,
)

STRICT_BARRIER = "strict_barrier"
PER_NODE_OVERLAP = "per_node_overlap"

GROUP_KINDS = (ALL_AVAILABLE, TOP_K, LEADER_ONLY)
SPLIT_KINDS = (SPLIT_EQUAL, SPLIT_RATE_WEIGHTED)
DELIVERY_MODES = (UNICAST, MULTICAST)
SIM_MODES = (STRICT_BARRIER, PER_NODE_OVERLAP)


@dataclass(frozen=True)
class ScenarioPolicy:
    """Offloading policy knobs: who joins, how to split, how to send."""

    # Any group and k meet their rules: the gate's last rules name what
    # form_group cannot use and a k no file holds, and no other rule reads them.
    group: str = column("group", Rule(str, (str,), lambda value: None), default=ALL_AVAILABLE)
    k: int | None = column("k", Rule(int, (int, type(None)), lambda value: None), default=None)
    split: str = column("split", one_of(SPLIT_KINDS), default=SPLIT_EQUAL)
    mode: str = column("mode", one_of(DELIVERY_MODES), default=UNICAST)
    ignore_return: bool = column("ignore_return", BOOLEAN, default=True)


POLICY = Table(ScenarioPolicy)


@dataclass(frozen=True)
class SimSettings:
    """Event simulation knobs: the phase model and the join token's seed."""

    mode: str = column("mode", one_of(SIM_MODES, "mode"), default=STRICT_BARRIER)
    seed: int = column("seed", INTEGER, default=0)


SIM = Table(SimSettings)


_FUNCTIONS, _IMAGES, _NODES = Entries(FUNCTION), Entries(IMAGE), Entries(NODE)


@dataclass(frozen=True)
class Scenario:
    """One self-contained experiment description.

    All quantities are in model units (bits, bits per second, seconds);
    file front ends convert from MB and kb/s when parsing.
    """

    task: VideoTask = column("task", TASK)
    functions: tuple[ProcessingFunction, ...] = column("functions", _FUNCTIONS)
    images: tuple[ContainerImage, ...] = column("images", _IMAGES)
    nodes: tuple[EdgeNode, ...] = column("nodes", _NODES)
    channel: ChannelModel = column("channel", CHANNEL)
    policy: ScenarioPolicy = column("policy", POLICY, default=ScenarioPolicy())
    sim: SimSettings = column("sim", SIM, default=SimSettings())
    # Files give its open ports with each node.
    network: SwarmNetworkConfig = field(default_factory=SwarmNetworkConfig)

    def function_by_id(self) -> dict[str, ProcessingFunction]:
        return {fn.function_id: fn for fn in self.functions}

    def image_by_id(self) -> dict[str, ContainerImage]:
        return {img.image_id: img for img in self.images}

    def node_by_id(self) -> dict[str, EdgeNode]:
        return {node.node_id: node for node in self.nodes}


SCENARIO = Table(Scenario)


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


class ScenarioValidationError(Exception):
    """A scenario failed :func:`validate_scenario`; ``violations`` holds
    every violation it named."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _shown(value) -> str:
    """``repr(value)`` for a gate message, but an int no float can hold
    by its size: the repr of one past 4,300 digits raises."""
    if isinstance(value, int) and _float(value) == math.inf:
        return f"a {value.bit_length()}-bit integer"
    return repr(value)


def _id(value) -> str:
    """An id for a message prefix: a ``str`` as it is, anything else shown."""
    return value if isinstance(value, str) else _shown(value)


def _meets(value, rule) -> bool:
    """Whether ``value`` meets ``rule``, a :class:`~edgeswarm.model.Rule`,
    :class:`~edgeswarm.model.Table` or :class:`~edgeswarm.model.Entries`."""
    return type(value) in rule.exact or not rule.fault(value)


def _typed(bad: list[str], where: str, item, table: Table) -> bool:
    """Whether ``item`` meets ``table`` as a rule and each of its fields
    its row's rule; names each that does not, and each item of a nested
    tuple that is not of its table's class, by its index."""
    if table.fast(item):
        return True
    if not _meets(item, table):
        bad.append(f"{where}: {table.fault(item)} {_shown(item)}")
        return False
    named = len(bad)
    for _, name, rule, label in table.rows:
        value = getattr(item, name)
        if isinstance(rule, Entries):
            _items(bad, f"{where}.{label}", value, rule)
        elif not _meets(value, rule):
            bad.append(f"{where}.{label}: {rule.fault(value)} {_shown(value)}")
    return len(bad) == named


def _items(bad: list[str], where: str, items, entries: Entries) -> bool:
    """Whether ``items`` meets ``entries``; names the container if it is
    not a tuple or a list, or else each item of another class by its index."""
    fault = entries.fault(items)
    if fault and not isinstance(items, (tuple, list)):
        bad.append(f"{where}: {fault} {_shown(items)}")
    elif fault:
        for index, item in enumerate(items):
            if not _meets(item, entries.table):
                bad.append(f"{where}[{index}]: {entries.table.fault(item)} {_shown(item)}")
    return not fault


def _by_id(entries, name: str) -> tuple[dict, bool]:
    """``{id: entry}`` over ``str`` ids (the last of equal ones wins), and whether any repeat."""
    by_id, count = {}, 0
    for entry in entries:
        key = getattr(entry, name)
        if isinstance(key, str):
            by_id[key] = entry
            count += 1
    return by_id, len(by_id) != count


def _node_violations(bad: list[str], node: EdgeNode, network) -> None:
    """Appends every violation of one node, in field order; ``network`` is
    ``None`` if it failed its own rules.

    Every run passes every node through here, so the node is named only
    once it has a violation: a clean node costs its type and range tests.
    """
    found: list[str] = []
    if NODE.fast(node) or _typed(found, "", node, NODE):
        budget, rate = node.cpu_budget_fraction, node.compute_rate_wu_s
        if not 0 < budget <= 1:
            found.append(f".cpu_budget_fraction: must be in (0, 1], got {_shown(budget)}")
        if not rate >= 0:
            found.append(f".compute_rate_wu_s: must be >= 0, got {_shown(rate)}")
        # NaN is named by the check above; rates weight the split.
        if rate == math.inf:
            found.append(f".compute_rate_wu_s: must be finite, got {_shown(rate)}")
        # The effective rate, as EdgeNode.effective_rate_wu_s gives it.
        if not rate * budget > 0:
            found.append(": effective compute rate must be positive")
        if not node.memory_budget_bits >= 0:
            memory = _shown(node.memory_budget_bits)
            found.append(f".memory_budget_bits: must be >= 0, got {memory}")
        startup = node.container_startup_s
        if not 0 <= startup < math.inf:
            found.append(f".container_startup_s: must be finite and >= 0, got {_shown(startup)}")
        for port in () if network is None else network.missing_ports(node.node_id):
            found.append(f".ports: required port {port} is closed")
    if found:
        bad += [f"nodes[{_id(node.node_id)}]{violation}" for violation in found]


def _worst_case_terms(scenario: Scenario, fn: ProcessingFunction, image: ContainerImage) -> tuple:
    """The channel-free parts of the phase worst cases that
    :func:`_channel_violations` checks, for a scenario that passes every
    other rule: every node pulls the whole image over the shared inter-node
    link, one source flow carries every input bit, every node computes
    every frame, and one node returns every input bit's output.

    Returns the largest startup, the bits all nodes pull, the task's bits,
    the bits returned (none when the return is ignored), the slowest
    node's worst-case compute time, and the violation of each node whose
    worst-case compute time is not finite: only the slowest node's can
    overflow first, so the others are looked at only when it does.
    """
    nodes = scenario.nodes
    image_bits = _float(sum(layer.size_bits for layer in image.all_layers()))
    task_bits = _float(scenario.task.total_size_bits)
    work_wu = scenario.task.frame_count * float(fn.per_frame_cost_wu)
    compute_s = work_wu / min(node.compute_rate_wu_s * node.cpu_budget_fraction for node in nodes)
    compute_bad = [] if math.isfinite(compute_s) else [
        f"nodes[{node.node_id}]: worst-case compute time must be finite"
        for node in nodes
        if not math.isfinite(work_wu / node.effective_rate_wu_s)
    ]
    return (
        max(node.container_startup_s for node in nodes),
        image_bits * len(nodes),
        task_bits,
        0.0 if scenario.policy.ignore_return else task_bits * _float(fn.output_ratio),
        compute_s,
        compute_bad,
    )


def _channel_violations(channel: ChannelModel, terms: tuple | None) -> list[str]:
    """Every violation the channel adds, in order: it must be a
    :class:`ChannelModel` with three positive finite capacities. Then,
    given ``terms`` from :func:`_worst_case_terms`, each phase's worst case
    and their sum must be finite. These are the only rules that read the
    channel, so a sweep row, which changes nothing else, needs only these.
    """
    bad: list[str] = []
    if not _typed(bad, "channel", channel, CHANNEL):
        return bad
    for _, name, _, label in CHANNEL.rows:
        if not 0 < (value := getattr(channel, name)) < math.inf:
            got = _shown(value)
            bad.append(f"channel.{label}: capacity must be positive and finite, got {got}")
    if bad or terms is None:
        return bad
    startup_s, pulled_bits, task_bits, output_bits, compute_s, compute_bad = terms
    worst = {
        "channel.internode: worst-case establish time": (
            startup_s + pulled_bits / channel.internode_capacity_bps
        ),
        "channel.source_total: worst-case delivery time": (
            task_bits / channel.source_channel_capacity_bps
        ),
        "channel.server: worst-case return time": (
            output_bits / channel.edge_to_server_capacity_bps
        ),
    }
    for name, seconds in worst.items():
        if not math.isfinite(seconds):
            bad.append(f"{name} must be finite, got {seconds!r}")
    bad += compute_bad
    if not bad:
        total = sum(worst.values()) + compute_s
        if not math.isfinite(total):
            bad.append(f"scenario: worst-case total time must be finite, got {total!r}")
    return bad


def validate_scenario(scenario: Scenario) -> list[str]:
    """All invariant violations in ``scenario``, empty when it is fine.

    Reports every problem rather than stopping at the first, so a file
    author can fix a batch at once. Violations are plain strings naming
    the offending element and field. Section by section, the gate first
    checks the section's class and each field's type by its field table
    (:data:`SCENARIO` and the tables it nests), and names each
    failure with its row's rule; the range and cross-field rules then read
    only what passed, and skip an item any of whose fields failed. Once
    every input but the group and ``k`` is in range, each phase's worst
    case must also be finite, and so must their sum, so that a clean
    scenario runs to a finite report; these checks cost O(nodes) and do
    not elaborate the scenario. Every run passes through here, so a
    message is formatted only when its check fails; the ``functions[…]``,
    ``images[…]`` and ``layers[…]`` prefixes are built for every item.
    """
    if not _meets(scenario, SCENARIO):
        return [f"scenario: {SCENARIO.fault(scenario)} {_shown(scenario)}"]
    bad: list[str] = []
    # Items a type rule rejected, by id(); no cross-field rule reads them.
    skipped: set[int] = set()
    task = scenario.task
    if not _typed(bad, "task", task, TASK):
        task = None
    else:
        duration, fps = task.duration_s, task.fps
        if not duration >= 0:
            bad.append(f"task.duration_s: must be >= 0, got {_shown(duration)}")
        if not fps >= 0:
            bad.append(f"task.fps: must be >= 0, got {_shown(fps)}")
        # Above 2**53, frame counts no longer convert to floats exactly.
        if not duration * fps <= 2**53:
            bad.append(
                "task.duration_s: frame count duration_s x fps must be finite and at most 2**53, "
                f"got {_shown(duration)} x {_shown(fps)}"
            )
        if not task.deadline_s > 0:
            bad.append(f"task.deadline_s: must be positive, got {_shown(task.deadline_s)}")

    # None for a section of the wrong shape, which no rule below reads.
    # An id that is not a str is named, and no rule keys a set or dict with it.
    functions = images = nodes = None
    if _items(bad, "functions", scenario.functions, _FUNCTIONS):
        functions, duplicate = _by_id(scenario.functions, "function_id")
        if duplicate:
            bad.append("functions: duplicate function ids")
    if _items(bad, "images", scenario.images, _IMAGES):
        images, duplicate = _by_id(scenario.images, "image_id")
        if duplicate:
            bad.append("images: duplicate image ids")
    for fn in scenario.functions if functions is not None else ():
        prefix = f"functions[{_id(fn.function_id)}]"
        if not _typed(bad, prefix, fn, FUNCTION):
            skipped.add(id(fn))
            continue
        for name in ("per_frame_cost_wu", "output_ratio"):
            value = getattr(fn, name)
            if not 0 <= value < math.inf:
                bad.append(f"{prefix}.{name}: must be finite and >= 0, got {_shown(value)}")
        if images is not None and fn.required_image_id not in images:
            bad.append(f"{prefix}.image: unknown image {_shown(fn.required_image_id)}")
    layer_sizes: dict[str, int] = {}
    for image in scenario.images if images is not None else ():
        prefix = f"images[{_id(image.image_id)}]"
        if not _typed(bad, prefix, image, IMAGE):
            skipped.add(id(image))
            continue
        layers = image.all_layers()
        if _by_id(layers, "layer_id")[1]:
            bad.append(f"{prefix}: duplicate layer ids")
        for layer in layers:
            layer_prefix = f"{prefix}.layers[{_id(layer.layer_id)}]"
            if not _typed(bad, layer_prefix, layer, LAYER):
                skipped.add(id(image))
                continue
            # Layers are content-addressed: one id, one size.
            size = layer_sizes.setdefault(layer.layer_id, layer.size_bits)
            if layer.size_bits != size:
                bad.append(
                    f"{layer_prefix}.size: {_shown(layer.size_bits)} bits conflicts with "
                    f"{_shown(size)} bits given earlier for the same layer id"
                )

    network = scenario.network
    if not _typed(bad, "network", network, NETWORK):
        network = None
    if _items(bad, "nodes", scenario.nodes, _NODES):
        nodes = scenario.nodes
        if not nodes:
            bad.append("nodes: at least one node is required")
        if _by_id(nodes, "node_id")[1]:
            bad.append("nodes: duplicate node ids")
        for node in nodes:
            _node_violations(bad, node, network)

    # The channel's violations go here, once every other rule has run.
    channel_at = len(bad)
    _typed(bad, "policy", scenario.policy, POLICY)
    _typed(bad, "sim", scenario.sim, SIM)

    fn = None
    if task is not None and functions is not None:
        fn = functions.get(task.function_id)
        if fn is None:
            bad.append(f"task.function: unknown function {_shown(task.function_id)}")
        elif id(fn) in skipped:
            fn = None
    image = None if fn is None or images is None else images.get(fn.required_image_id)
    if image is not None and id(image) not in skipped and nodes is not None:
        needed = {layer.layer_id for layer in image.layers}
        # A store that is not a set is named above and never looked into.
        if not any(
            _meets(store, LAYER_IDS) and needed <= store
            for store in (node.stored_layer_ids for node in nodes)
        ):
            bad.append(
                "NoImageHolder: no node stores the read-only layers of image "
                f"{_shown(image.image_id)}"
            )
    terms = None if bad else _worst_case_terms(scenario, fn, images[fn.required_image_id])
    bad[channel_at:channel_at] = _channel_violations(scenario.channel, terms)
    # Only form_group reads the group and k, and no rule above does, so a
    # leader-only baseline never has a violation its scenario lacks.
    policy = scenario.policy
    if _meets(policy, POLICY):
        if policy.group not in GROUP_KINDS:
            bad.append(f"policy.group: unknown kind {_shown(policy.group)}")
        if policy.group == TOP_K and not (_meets(policy.k, INTEGER) and policy.k >= 1):
            bad.append(f"policy.k: top_k needs an integer k >= 1, got {_shown(policy.k)}")
        elif not (policy.k is None or _meets(policy.k, INTEGER)):
            # What files can hold: any int, or no k at all.
            bad.append(f"policy.k: must be an integer or absent, got {_shown(policy.k)}")
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
    It builds only the plan: the engine derives its own lookup tables
    from it on every run, so the closed forms never pay for them.
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
    return replace(scenario, policy=replace(scenario.policy, group=LEADER_ONLY, k=None))
