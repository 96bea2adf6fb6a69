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

:mod:`edgeswarm.sim` runs this table for every member of a run.
:func:`plan_layer_transfer` is the one operation-level helper a run
calls. :func:`init_swarm`, :func:`join_swarm` and :func:`deploy_service`
stay only as the reference the benchmark's traced replay of
:func:`edgeswarm.scenario.prepare` checks against. None of them raises:
:func:`edgeswarm.scenario.validate_scenario` rules out closed ports,
missing image layers and unknown images before any of them could see
one.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

from .model import ContainerImage, EdgeNode
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
        missing, _ = plan_layer_transfer(frozenset(), stored_layer_ids, image)
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


# --- operation-level API ----------------------------------------------
# The lifecycle one operation at a time. A run calls only
# plan_layer_transfer; the rest stay as the reference for the benchmark's
# traced replay of prepare (module docstring).


def init_swarm(
    leader: EdgeNode,
    config: SwarmNetworkConfig,
    rng_seed: int,
) -> tuple[Swarm, str]:
    """Initiate a swarm at ``leader`` and issue its identifying code.

    The token is derived from ``rng_seed`` only, so runs are
    reproducible. ``config`` is not read: ``validate_scenario`` checks
    every node's ports before a run starts.
    """
    token = derive_join_token(rng_seed)
    return Swarm(leader_id=leader.node_id, worker_ids=(), join_token=token), token


def join_swarm(
    swarm: Swarm,
    node: EdgeNode,
    presented_token: str,
    config: SwarmNetworkConfig,
) -> Swarm:
    """Admit ``node`` as a worker when it presents the right token.

    A wrong token is not a fault, and joining twice is idempotent: either
    way the swarm is returned unchanged. ``config`` is not read;
    ``validate_scenario`` checks ports.
    """
    if presented_token != swarm.join_token or node.node_id in swarm.member_ids:
        return swarm
    return replace(swarm, worker_ids=(*swarm.worker_ids, node.node_id))


def plan_layer_transfer(
    leader_layers: frozenset[str],
    worker_layers: frozenset[str],
    image: ContainerImage,
) -> tuple[tuple[str, ...], int]:
    """Layers the leader must send so the worker can launch ``image``.

    Exactly the image layers (read-write layer included) absent from the
    worker, in image order; layers the worker already shares are never
    retransmitted. ``leader_layers`` is not read: ``validate_scenario``
    makes the leader an image holder.
    """
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
    """Per-member transfer plan for rolling ``spec`` out across the swarm:
    the leader's empty plan, then one :func:`plan_layer_transfer` per
    worker, in swarm order."""
    image = images[spec.image_id]
    leader_layers = node_inventory[swarm.leader_id].stored_layer_ids
    plans: list[tuple[str, tuple[str, ...], int]] = [(swarm.leader_id, (), 0)]
    for worker_id in swarm.worker_ids:
        store = node_inventory[worker_id].stored_layer_ids
        plans.append((worker_id, *plan_layer_transfer(leader_layers, store, image)))
    return plans
