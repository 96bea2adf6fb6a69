"""Message-driven model of the swarm lifecycle.

Covers initiation with an identifying join code, worker join by replying
that code, service deployment from a compose-style spec, and the
deduplicated transfer of image layers a worker is missing. Transitions
live in :func:`handle_message`, a total function: an illegal
(state, message) pair leaves the state unchanged and emits nothing, so
fuzzed schedules can never crash a node.

Legal phase transitions::

    idle -> leader_initialized                (InitSwarm naming this node)
    idle -> joining -> member                 (JoinRequest / JoinAccepted)
    idle -> joining -> rejected               (JoinRequest / JoinRejected)
    member -> transferring_layers -> container_ready
                                              (DeployService with layers missing,
                                               then LayerTransfer)
    member -> container_ready                 (DeployService or LayerTransfer
                                               with the image complete)
    leader_initialized -> container_ready     (DeployService; the leader holds
                                               the image)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence, Union

from .model import ContainerImage, EdgeNode, ValidationError
from .policies import Swarm

DEFAULT_MGMT_PORT = 2377        # swarm management, connection-oriented
DEFAULT_MEMBERSHIP_PORT = 7946  # node-to-node membership traffic
DEFAULT_OVERLAY_PORT = 4789     # overlay network between containers

PHASES = (
    "idle",
    "leader_initialized",
    "joining",
    "member",
    "transferring_layers",
    "container_ready",
    "rejected",
)


class PortClosedError(Exception):
    """A node cannot take a swarm role because a required port is closed."""

    def __init__(self, node_id: str, port: int):
        super().__init__(f"node {node_id!r}: required port {port} is closed")
        self.node_id = node_id
        self.port = port


class LeaderIncompleteError(Exception):
    """The leader is missing a read-only layer it is supposed to seed."""

    def __init__(self, image_id: str, layer_id: str):
        super().__init__(f"leader lacks layer {layer_id!r} of image {image_id!r}")
        self.image_id = image_id
        self.layer_id = layer_id


class ResourceExceededError(Exception):
    """A service spec asks for more than a node's resource budget."""

    def __init__(self, node_id: str, resource: str):
        super().__init__(f"node {node_id!r}: service budget exceeds {resource} capacity")
        self.node_id = node_id
        self.resource = resource


@dataclass(frozen=True)
class SwarmNetworkConfig:
    """Port numbers required for swarm roles, and which are open per node.

    ``ports_open`` maps node id to its open ports; nodes not listed are
    treated as fully open. Ports are capability flags here, transport
    semantics are not simulated.
    """

    mgmt_port: int = DEFAULT_MGMT_PORT
    membership_port: int = DEFAULT_MEMBERSHIP_PORT
    overlay_port: int = DEFAULT_OVERLAY_PORT
    ports_open: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def required_ports(self) -> tuple[int, int, int]:
        return (self.mgmt_port, self.membership_port, self.overlay_port)

    def open_ports(self, node_id: str) -> frozenset[int]:
        if node_id in self.ports_open:
            return frozenset(self.ports_open[node_id])
        return frozenset(self.required_ports())

    def missing_ports(self, node_id: str) -> list[int]:
        open_ports = self.open_ports(node_id)
        return [port for port in self.required_ports() if port not in open_ports]


@dataclass(frozen=True)
class ServiceSpec:
    """Compose-style description of the function to run on every member."""

    service_name: str
    function_id: str
    image_id: str
    cpu_budget_fraction: float
    memory_budget_bits: int


# --- protocol messages -------------------------------------------------


@dataclass(frozen=True)
class InitSwarm:
    leader_id: str


@dataclass(frozen=True)
class TokenIssued:
    join_token: str


@dataclass(frozen=True)
class JoinRequest:
    node_id: str
    join_token: str


@dataclass(frozen=True)
class JoinAccepted:
    node_id: str


@dataclass(frozen=True)
class JoinRejected:
    node_id: str
    reason: str


@dataclass(frozen=True)
class DeployService:
    spec: ServiceSpec


@dataclass(frozen=True)
class LayerRequest:
    node_id: str
    missing_layer_ids: tuple[str, ...]


@dataclass(frozen=True)
class LayerTransfer:
    layer_ids: tuple[str, ...]
    total_bits: int


@dataclass(frozen=True)
class ContainerReady:
    node_id: str


ProtocolMessage = Union[
    InitSwarm,
    TokenIssued,
    JoinRequest,
    JoinAccepted,
    JoinRejected,
    DeployService,
    LayerRequest,
    LayerTransfer,
    ContainerReady,
]


@dataclass(frozen=True)
class NodeProtocolState:
    phase: str = "idle"
    held_token: str | None = None


@dataclass(frozen=True)
class TraceEvent:
    """One protocol or simulation event, rendered as a tab-separated line."""

    time_s: float
    node_id: str
    old_phase: str
    label: str
    new_phase: str

    def to_line(self) -> str:
        return f"{self.time_s:g}\t{self.node_id}\t{self.old_phase}\t{self.label}\t{self.new_phase}"


def derive_join_token(seed: int) -> str:
    """Deterministic opaque identifying code for a given seed."""
    return f"{random.Random(seed).getrandbits(96):024x}"


def missing_layer_ids(stored_layer_ids: frozenset[str], image: ContainerImage) -> tuple[str, ...]:
    """Layers of ``image`` (read-write layer included) absent from a store."""
    return tuple(
        layer.layer_id for layer in image.all_layers() if layer.layer_id not in stored_layer_ids
    )


def handle_message(
    state: NodeProtocolState,
    msg: ProtocolMessage,
    *,
    node_id: str,
    stored_layer_ids: frozenset[str] = frozenset(),
    images: Mapping[str, ContainerImage] | None = None,
    token_seed: int = 0,
) -> tuple[NodeProtocolState, list[ProtocolMessage]]:
    """Advance one node's protocol state for one delivered message.

    Total function: unlisted (state, message) pairs return the state
    unchanged with no emissions. The keyword context identifies the node,
    its layer store (for deploy handling) and the seed used to derive the
    identifying code when this node initiates a swarm.
    """
    phase = state.phase

    if isinstance(msg, InitSwarm):
        if phase == "idle" and msg.leader_id == node_id:
            token = derive_join_token(token_seed)
            return NodeProtocolState("leader_initialized", token), [TokenIssued(token)]

    elif isinstance(msg, JoinRequest):
        if msg.node_id == node_id:
            if phase == "idle":
                return NodeProtocolState("joining", msg.join_token), []
        elif phase == "leader_initialized":
            if msg.join_token == state.held_token:
                return state, [JoinAccepted(msg.node_id)]
            return state, [JoinRejected(msg.node_id, "invalid join token")]

    elif isinstance(msg, JoinAccepted):
        if phase == "joining" and msg.node_id == node_id:
            return NodeProtocolState("member", state.held_token), []

    elif isinstance(msg, JoinRejected):
        if phase == "joining" and msg.node_id == node_id:
            return NodeProtocolState("rejected", state.held_token), []

    elif isinstance(msg, DeployService):
        if phase == "leader_initialized":
            # The leader hosts the image source; nothing to pull.
            return NodeProtocolState("container_ready", state.held_token), [ContainerReady(node_id)]
        if phase == "member":
            image = (images or {}).get(msg.spec.image_id)
            if image is None:
                return state, []
            missing = missing_layer_ids(stored_layer_ids, image)
            if missing:
                return (
                    NodeProtocolState("transferring_layers", state.held_token),
                    [LayerRequest(node_id, missing)],
                )
            return NodeProtocolState("container_ready", state.held_token), [ContainerReady(node_id)]

    elif isinstance(msg, LayerTransfer):
        if phase in ("transferring_layers", "member"):
            return NodeProtocolState("container_ready", state.held_token), [ContainerReady(node_id)]

    # TokenIssued, ContainerReady and everything else: observed, no transition.
    return state, []


@dataclass
class SwarmNodeMachine:
    """Mutable wrapper running :func:`handle_message` for one node.

    Keeps a trace of every delivered message (including no-ops) in the
    shared tab-separated format.
    """

    node_id: str
    stored_layer_ids: frozenset[str] = frozenset()
    images: Mapping[str, ContainerImage] = field(default_factory=dict)
    token_seed: int = 0
    state: NodeProtocolState = field(default_factory=NodeProtocolState)
    trace: list[TraceEvent] = field(default_factory=list)

    def handle(self, msg: ProtocolMessage, time_s: float = 0.0) -> list[ProtocolMessage]:
        old_phase = self.state.phase
        self.state, emitted = handle_message(
            self.state,
            msg,
            node_id=self.node_id,
            stored_layer_ids=self.stored_layer_ids,
            images=self.images,
            token_seed=self.token_seed,
        )
        self.trace.append(
            TraceEvent(time_s, self.node_id, old_phase, type(msg).__name__, self.state.phase)
        )
        return emitted


# --- operation-level API ----------------------------------------------


def init_swarm(
    leader: EdgeNode,
    config: SwarmNetworkConfig,
    rng_seed: int,
) -> tuple[Swarm, str]:
    """Initiate a swarm at ``leader`` and issue its identifying code.

    The token is derived from ``rng_seed`` only, so runs are
    reproducible. Raises :class:`PortClosedError` naming the first
    required port the leader has closed.
    """
    missing = config.missing_ports(leader.node_id)
    if missing:
        raise PortClosedError(leader.node_id, missing[0])
    token = derive_join_token(rng_seed)
    swarm = Swarm(
        swarm_id=f"swarm-{leader.node_id}",
        leader_id=leader.node_id,
        worker_ids=(),
        join_token=token,
    )
    return swarm, token


def join_swarm(
    swarm: Swarm,
    node: EdgeNode,
    presented_token: str,
    config: SwarmNetworkConfig | None = None,
    trace: list[ProtocolMessage] | None = None,
) -> Swarm:
    """Admit ``node`` as a worker when it presents the right token.

    A wrong token is not a fault: the swarm is returned unchanged and a
    :class:`JoinRejected` is appended to ``trace`` when one is given.
    Joining twice is idempotent. Closed ports raise
    :class:`PortClosedError` (pass ``config`` to enforce them).
    """
    return admit_workers(swarm, (node,), presented_token, config, trace)


def admit_workers(
    swarm: Swarm,
    nodes: Sequence[EdgeNode],
    presented_token: str,
    config: SwarmNetworkConfig | None = None,
    trace: list[ProtocolMessage] | None = None,
) -> Swarm:
    """Apply the :func:`join_swarm` rule to each of ``nodes`` in order.

    Gives the swarm, trace entries and :class:`PortClosedError` that
    joining the nodes one by one gives, in time linear in the swarm size.
    """
    members = set(swarm.member_ids)
    worker_ids = list(swarm.worker_ids)
    for node in nodes:
        if config is not None:
            missing = config.missing_ports(node.node_id)
            if missing:
                raise PortClosedError(node.node_id, missing[0])
        if node.node_id in members:
            continue
        if presented_token != swarm.join_token:
            if trace is not None:
                trace.append(JoinRejected(node.node_id, "invalid join token"))
            continue
        if trace is not None:
            trace.append(JoinAccepted(node.node_id))
        members.add(node.node_id)
        worker_ids.append(node.node_id)
    if len(worker_ids) == len(swarm.worker_ids):
        return swarm
    return replace(swarm, worker_ids=tuple(worker_ids))


def plan_layer_transfer(
    leader_layers: frozenset[str],
    worker_layers: frozenset[str],
    image: ContainerImage,
) -> tuple[tuple[str, ...], int]:
    """Layers the leader must send so the worker can launch ``image``.

    Exactly the image layers (read-write layer included) absent from the
    worker, in image order; layers the worker already shares are never
    retransmitted. Raises :class:`LeaderIncompleteError` when the leader
    itself lacks a read-only layer.
    """
    for layer in image.layers:
        if layer.layer_id not in leader_layers:
            raise LeaderIncompleteError(image.image_id, layer.layer_id)
    to_send: list[str] = []
    total_bits = 0
    for layer in image.all_layers():
        if layer.layer_id not in worker_layers:
            to_send.append(layer.layer_id)
            total_bits += layer.size_bits
    return tuple(to_send), total_bits


def deploy_service(
    swarm: Swarm,
    spec: ServiceSpec,
    node_inventory: Mapping[str, EdgeNode],
    images: Mapping[str, ContainerImage],
) -> list[tuple[str, tuple[str, ...], int]]:
    """Per-member transfer plan for rolling ``spec`` out across the swarm.

    The leader's own plan is always empty. Budgets in the spec are
    validated against every member's capacity first.
    """
    if spec.image_id not in images:
        raise ValidationError("image_id", f"unknown image {spec.image_id!r}")
    image = images[spec.image_id]
    members: Sequence[EdgeNode] = [node_inventory[m] for m in swarm.member_ids]
    for node in members:
        if spec.cpu_budget_fraction > node.cpu_budget_fraction:
            raise ResourceExceededError(node.node_id, "cpu")
        if spec.memory_budget_bits > node.memory_budget_bits:
            raise ResourceExceededError(node.node_id, "memory")
    leader = members[0]
    for layer in image.layers:
        if layer.layer_id not in leader.stored_layer_ids:
            raise LeaderIncompleteError(image.image_id, layer.layer_id)
    plans: list[tuple[str, tuple[str, ...], int]] = [(leader.node_id, (), 0)]
    for worker in members[1:]:
        layer_ids, total_bits = plan_layer_transfer(
            leader.stored_layer_ids, worker.stored_layer_ids, image
        )
        plans.append((worker.node_id, layer_ids, total_bits))
    return plans
