"""Controller-side decisions: leader selection, group formation, sub-task assignment.

All functions are pure and deterministic; ties are broken by node id so
re-running a decision on the same inputs gives an identical result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from .model import ContainerImage, EdgeNode, VideoChunk, proportional_shares

if TYPE_CHECKING:
    from .swarmproto import ServiceSpec

ALL_AVAILABLE = "all_available"
TOP_K = "top_k"
LEADER_ONLY = "leader_only"

UNICAST = "unicast"
MULTICAST = "multicast"

SPLIT_EQUAL = "equal"
SPLIT_RATE_WEIGHTED = "rate_weighted"


class NoImageHolderError(Exception):
    """No candidate node stores every read-only layer of the required image."""

    def __init__(self, image_id: str):
        super().__init__(f"no node holds all read-only layers of image {image_id!r}")
        self.image_id = image_id


@dataclass(frozen=True)
class GroupFormationPolicy:
    """How many nodes to admit into a cooperative group.

    ``kind`` is ``all_available`` (every node), ``top_k`` (the ``k``
    fastest members including the leader, clamped to the node count) or
    ``leader_only`` (no workers; the single-node baseline).
    """

    kind: str = ALL_AVAILABLE
    k: int | None = None


@dataclass(frozen=True)
class Swarm:
    """A formed cooperative group: one leader plus ordered workers."""

    leader_id: str
    worker_ids: tuple[str, ...]
    join_token: str = ""
    service: "ServiceSpec | None" = None

    @property
    def member_ids(self) -> tuple[str, ...]:
        return (self.leader_id,) + self.worker_ids


@dataclass(frozen=True)
class Assignment:
    """One chunk's delivery mode and the frame sub-ranges each node computes.

    For unicast there is a single entry covering the whole chunk; for
    multicast the sub-ranges partition the chunk's frame range.
    """

    chunk: VideoChunk
    mode: str
    node_frames: tuple[tuple[str, tuple[int, int]], ...]

    def receivers(self) -> tuple[str, ...]:
        return tuple(node_id for node_id, _ in self.node_frames)


@dataclass(frozen=True)
class AssignmentPlan:
    """Mapping of every chunk of a task to its computing node(s).

    Per-node frame and input-bit totals are computed once, when the plan
    is built; they are derived from ``entries`` and take no part in
    equality or ``repr``.
    """

    task_id: str
    entries: tuple[Assignment, ...]
    _frames: dict[str, int] = field(init=False, repr=False, compare=False)
    _bits: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Bits accumulate per node in entry order, so every float sum is
        # the one a per-node scan over the entries would give.
        frames: dict[str, int] = {}
        bits: dict[str, float] = {}
        for entry in self.entries:
            chunk = entry.chunk
            if entry.mode == UNICAST:
                # One receiver, which takes the whole chunk.
                ((node_id, (first, last)),) = entry.node_frames
                frames[node_id] = frames.get(node_id, 0) + last - first
                bits[node_id] = bits.get(node_id, 0.0) + chunk.size_bits
                continue
            entry_frames: dict[str, int] = {}
            for node_id, (first, last) in entry.node_frames:
                entry_frames[node_id] = entry_frames.get(node_id, 0) + last - first
            for node_id, count in entry_frames.items():
                frames[node_id] = frames.get(node_id, 0) + count
                bits.setdefault(node_id, 0.0)
            if chunk.frame_count > 0:
                for node_id, count in entry_frames.items():
                    bits[node_id] += chunk.size_bits * count / chunk.frame_count
            else:
                for node_id in entry_frames:
                    bits[node_id] += chunk.size_bits / len(entry.node_frames)
        object.__setattr__(self, "_frames", frames)
        object.__setattr__(self, "_bits", bits)

    def node_ids(self) -> tuple[str, ...]:
        """Every node the plan names, in order of first appearance."""
        return tuple(self._frames)

    def frames_assigned_to(self, node_id: str) -> int:
        return self._frames.get(node_id, 0)

    def input_bits_for(self, node_id: str) -> float:
        """Bits of chunk data the node actually processes.

        Unicast chunks count in full for their receiver; multicast chunks
        are attributed in proportion to the node's frame sub-range (or
        equally when the chunk has no frames). A node the plan does not
        name gets 0.0.
        """
        return self._bits.get(node_id, 0.0)


def _by_rate_then_id(node: EdgeNode) -> tuple[float, str]:
    return (-node.effective_rate_wu_s, node.node_id)


def select_leader(nodes: Sequence[EdgeNode], image: ContainerImage) -> str:
    """Pick the swarm leader: an image holder with the highest effective rate.

    Only nodes storing every read-only layer of ``image`` qualify (the
    leader seeds workers with missing layers). Ties go to the lowest
    node id. Raises :class:`NoImageHolderError` when no node qualifies,
    which ``validate_scenario`` names before any run reaches here.
    """
    needed = {layer.layer_id for layer in image.layers}
    holders = [node for node in nodes if needed <= node.stored_layer_ids]
    if not holders:
        raise NoImageHolderError(image.image_id)
    return min(holders, key=_by_rate_then_id).node_id


def form_group(
    nodes: Sequence[EdgeNode],
    policy: GroupFormationPolicy,
    image: ContainerImage,
) -> Swarm:
    """Form a cooperative group around the selected leader.

    Workers are the remaining admitted nodes ordered by descending
    effective rate then id. ``top_k`` counts the leader, and a ``k``
    beyond the node count is clamped rather than rejected. Expects the
    roster and policy of a scenario that ``validate_scenario`` passed:
    distinct node ids, a known kind and, for ``top_k``, an ``int``
    ``k >= 1``.
    """
    leader_id = select_leader(nodes, image)
    others = sorted((n for n in nodes if n.node_id != leader_id), key=_by_rate_then_id)

    if policy.kind == LEADER_ONLY:
        admitted = 0
    elif policy.kind == TOP_K:
        admitted = min(policy.k, len(nodes)) - 1
    else:
        admitted = len(others)

    return Swarm(
        leader_id=leader_id,
        worker_ids=tuple(node.node_id for node in others[:admitted]),
    )


def assign_subtasks(
    chunks: Sequence[VideoChunk],
    swarm: Swarm,
    nodes: Mapping[str, EdgeNode],
    split: str = SPLIT_EQUAL,
    mode: str = UNICAST,
) -> AssignmentPlan:
    """Assign chunks to swarm members.

    Unicast maps chunk ``i`` to member ``i`` (leader first, workers in
    swarm order) and requires one chunk per member; the caller re-splits
    the task otherwise. Multicast delivers every chunk to all members as
    one transmission, and each member computes a frame sub-range split
    equally or in proportion to effective compute rates
    (largest-remainder rounding, ties to the leader-first order).
    Expects what :func:`edgeswarm.scenario.prepare` passes for a
    scenario that ``validate_scenario`` passed: at least one chunk, and
    every member in ``nodes``.
    """
    members = swarm.member_ids
    entries: list[Assignment] = []
    if mode == UNICAST:
        for chunk, member in zip(chunks, members):
            entries.append(Assignment(chunk, UNICAST, ((member, chunk.frame_range),)))
    else:
        if split == SPLIT_RATE_WEIGHTED:
            weights = [nodes[m].effective_rate_wu_s for m in members]
        else:
            weights = [1.0] * len(members)
        for chunk in chunks:
            shares = proportional_shares(chunk.frame_count, weights)
            node_frames = []
            first = chunk.frame_range[0]
            for member, share in zip(members, shares):
                node_frames.append((member, (first, first + share)))
                first += share
            entries.append(Assignment(chunk, MULTICAST, tuple(node_frames)))

    return AssignmentPlan(task_id=chunks[0].task_id, entries=tuple(entries))
