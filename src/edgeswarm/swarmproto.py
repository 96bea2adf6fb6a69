"""Message-driven model of the swarm lifecycle.

Covers initiation with an identifying join code, worker join by replying
that code, service deployment from a compose-style spec, and the
deduplicated transfer of image layers a worker is missing. Transitions
live in one handler per message type, found through the
``{message type: handler}`` table behind :func:`handle_message`, a total
function: an illegal (state, message) pair, or a message type the table
does not list, leaves the state unchanged and emits nothing, so fuzzed
schedules can never crash a node.

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

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple, Sequence

from .model import ContainerImage, EdgeNode, ValidationError
from .policies import Swarm

# Ports every swarm role needs open: management (connection-oriented),
# node-to-node membership traffic, and the overlay network between
# containers.
REQUIRED_PORTS = (2377, 7946, 4789)

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
    """Which ports are open per node.

    ``ports_open`` maps node id to its open ports; nodes not listed are
    treated as fully open. Ports are capability flags here, transport
    semantics are not simulated.
    """

    ports_open: Mapping[str, frozenset[int]] = field(default_factory=dict)

    def open_ports(self, node_id: str) -> frozenset[int]:
        if node_id in self.ports_open:
            return frozenset(self.ports_open[node_id])
        return frozenset(REQUIRED_PORTS)

    def missing_ports(self, node_id: str) -> list[int]:
        """The :data:`REQUIRED_PORTS` that ``node_id`` has closed, in order."""
        open_ports = self.ports_open.get(node_id)
        if open_ports is None:
            return []
        return [port for port in REQUIRED_PORTS if port not in open_ports]


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
    """Asks ``leader_id`` to start a swarm and issue its join code."""

    leader_id: str


@dataclass(frozen=True)
class JoinRequest:
    """``node_id`` asks to join, presenting ``join_token``; delivered to
    the joining node and to the leader."""

    node_id: str
    join_token: str


@dataclass(frozen=True)
class JoinAccepted:
    """The leader's reply admitting ``node_id`` as a worker."""

    node_id: str


@dataclass(frozen=True)
class JoinRejected:
    """The leader's reply refusing ``node_id``, with the ``reason``."""

    node_id: str
    reason: str


@dataclass(frozen=True)
class DeployService:
    """Asks a member to launch the service described by ``spec``."""

    spec: ServiceSpec


@dataclass(frozen=True)
class LayerRequest:
    """``node_id`` asks the leader for the image layers it lacks, in image order."""

    node_id: str
    missing_layer_ids: tuple[str, ...]


@dataclass(frozen=True)
class LayerTransfer:
    """Delivers ``layer_ids``, ``total_bits`` in all, to the member that requested them."""

    layer_ids: tuple[str, ...]
    total_bits: int


class NodeProtocolState(NamedTuple):
    phase: str = "idle"
    held_token: str | None = None


class TraceEvent(NamedTuple):
    """One protocol or simulation event, rendered as a tab-separated line.

    The trace digests hash ``repr`` of these records, so that ``repr``
    (the class name, then every field as ``name=value``) is pinned.
    """

    time_s: float
    node_id: str
    old_phase: str
    label: str
    new_phase: str

    def to_line(self) -> str:
        return f"{self.time_s:g}\t{self.node_id}\t{self.old_phase}\t{self.label}\t{self.new_phase}"


@functools.lru_cache(maxsize=1)
def derive_join_token(seed: int) -> str:
    """Deterministic opaque identifying code for a given seed.

    Remembers the most recent seed: a run asks twice, once in
    :func:`edgeswarm.scenario.prepare` and once in the leader's
    ``InitSwarm`` handler.
    """
    return f"{random.Random(seed).getrandbits(96):024x}"


def missing_layer_ids(stored_layer_ids: frozenset[str], image: ContainerImage) -> tuple[str, ...]:
    """Layers of ``image`` (read-write layer included) absent from a store."""
    return tuple(
        layer.layer_id for layer in image.all_layers() if layer.layer_id not in stored_layer_ids
    )


# tuple.__new__ skips NodeProtocolState's Python-level __new__; same state.


def _on_init_swarm(state, msg, node_id, stored_layer_ids, images, token_seed):
    if state.phase == "idle" and msg.leader_id == node_id:
        token = derive_join_token(token_seed)
        return tuple.__new__(NodeProtocolState, ("leader_initialized", token)), []
    return state, []


def _on_join_request(state, msg, node_id, stored_layer_ids, images, token_seed):
    if msg.node_id == node_id:
        if state.phase == "idle":
            return tuple.__new__(NodeProtocolState, ("joining", msg.join_token)), []
    elif state.phase == "leader_initialized":
        if msg.join_token == state.held_token:
            return state, [JoinAccepted(msg.node_id)]
        return state, [JoinRejected(msg.node_id, "invalid join token")]
    return state, []


def _on_join_accepted(state, msg, node_id, stored_layer_ids, images, token_seed):
    if state.phase == "joining" and msg.node_id == node_id:
        return tuple.__new__(NodeProtocolState, ("member", state.held_token)), []
    return state, []


def _on_join_rejected(state, msg, node_id, stored_layer_ids, images, token_seed):
    if state.phase == "joining" and msg.node_id == node_id:
        return tuple.__new__(NodeProtocolState, ("rejected", state.held_token)), []
    return state, []


def _on_deploy_service(state, msg, node_id, stored_layer_ids, images, token_seed):
    if state.phase == "leader_initialized":
        # The leader hosts the image source; nothing to pull.
        return tuple.__new__(NodeProtocolState, ("container_ready", state.held_token)), []
    if state.phase == "member":
        image = images.get(msg.spec.image_id)
        if image is None:
            return state, []
        missing = missing_layer_ids(stored_layer_ids, image)
        if missing:
            return (
                tuple.__new__(NodeProtocolState, ("transferring_layers", state.held_token)),
                [LayerRequest(node_id, missing)],
            )
        return tuple.__new__(NodeProtocolState, ("container_ready", state.held_token)), []
    return state, []


def _on_layer_transfer(state, msg, node_id, stored_layer_ids, images, token_seed):
    if state.phase in ("transferring_layers", "member"):
        return tuple.__new__(NodeProtocolState, ("container_ready", state.held_token)), []
    return state, []


# Message type -> transition for that type. Each handler takes the state,
# the message and the node context, and is total over (state, message).
_HANDLERS = {
    InitSwarm: _on_init_swarm,
    JoinRequest: _on_join_request,
    JoinAccepted: _on_join_accepted,
    JoinRejected: _on_join_rejected,
    DeployService: _on_deploy_service,
    LayerTransfer: _on_layer_transfer,
}


def _observe_only(state, msg, node_id, stored_layer_ids, images, token_seed):
    return state, []


def handle_message(
    state: NodeProtocolState,
    msg: object,
    *,
    node_id: str,
    stored_layer_ids: frozenset[str],
    images: Mapping[str, ContainerImage],
    token_seed: int,
) -> tuple[NodeProtocolState, list[object]]:
    """Advance one node's protocol state for one delivered message.

    Total function: unlisted (state, message) pairs return the state
    unchanged with no emissions. The keyword context identifies the node,
    its layer store (for deploy handling) and the seed used to derive the
    identifying code when this node initiates a swarm.
    """
    handler = _HANDLERS.get(type(msg), _observe_only)
    return handler(state, msg, node_id, stored_layer_ids, images, token_seed)


@dataclass
class SwarmNodeMachine:
    """Mutable wrapper running :func:`handle_message` for one node.

    Keeps a trace of every delivered message (including no-ops) in the
    shared tab-separated format. The tests and the protocol fuzz harness
    drive it; :mod:`edgeswarm.sim` does not, since its engine holds every
    member's state itself and runs the same transition table.
    """

    node_id: str
    stored_layer_ids: frozenset[str]
    images: Mapping[str, ContainerImage]
    token_seed: int
    state: NodeProtocolState = field(default_factory=NodeProtocolState)
    trace: list[TraceEvent] = field(default_factory=list)

    def handle(self, msg: object, time_s: float = 0.0) -> list[object]:
        old = self.state
        kind = type(msg)
        # The table lookup of handle_message, without the extra call.
        self.state, emitted = _HANDLERS.get(kind, _observe_only)(
            old, msg, self.node_id, self.stored_layer_ids, self.images, self.token_seed
        )
        self.trace.append(
            TraceEvent(time_s, self.node_id, old.phase, kind.__name__, self.state.phase)
        )
        return emitted


# --- operation-level API ----------------------------------------------
# The lifecycle one operation at a time. prepare builds the same swarm and
# plans in one pass, calling only plan_layer_transfer; the tests and the
# benchmark's traced replay of prepare use the others as its reference.


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
        leader_id=leader.node_id,
        worker_ids=(),
        join_token=token,
    )
    return swarm, token


def join_swarm(
    swarm: Swarm,
    node: EdgeNode,
    presented_token: str,
    config: SwarmNetworkConfig,
) -> Swarm:
    """Admit ``node`` as a worker when it presents the right token.

    A wrong token is not a fault: the swarm is returned unchanged.
    Joining twice is idempotent. A node with a required port closed in
    ``config`` raises :class:`PortClosedError`.
    """
    return admit_workers(swarm, (node,), presented_token, config)


def admit_workers(
    swarm: Swarm,
    nodes: Sequence[EdgeNode],
    presented_token: str,
    config: SwarmNetworkConfig,
) -> Swarm:
    """Apply the :func:`join_swarm` rule to each of ``nodes`` in order.

    Gives the swarm and :class:`PortClosedError` that joining the nodes
    one by one gives, in time linear in the swarm size.
    """
    members = set(swarm.member_ids)
    worker_ids = list(swarm.worker_ids)
    for node in nodes:
        missing = config.missing_ports(node.node_id)
        if missing:
            raise PortClosedError(node.node_id, missing[0])
        if node.node_id in members or presented_token != swarm.join_token:
            continue
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
    # Workers with the same layer store get the same transfer; plan it once.
    by_store: dict[frozenset[str], tuple[tuple[str, ...], int]] = {}
    for worker in members[1:]:
        store = worker.stored_layer_ids
        if store not in by_store:
            by_store[store] = plan_layer_transfer(leader.stored_layer_ids, store, image)
        plans.append((worker.node_id, *by_store[store]))
    return plans
