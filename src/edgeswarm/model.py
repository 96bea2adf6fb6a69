"""Domain types and task-preparation operations for edge video offloading.

Everything here is an immutable value: tasks, chunks, container images,
edge nodes and the shared-channel description. Operations are pure
functions, so values can be copied and handed between threads freely.

Unit conventions (decimal, networking style):
    1 MB   = 8 * 10^6 bits
    1 kb/s = 1000 bits/s
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

BITS_PER_MB = 8_000_000
BPS_PER_KBPS = 1000

READ_ONLY = "read_only"
READ_WRITE = "read_write"


class ValidationError(ValueError):
    """An input violates a domain invariant; the message names the field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class VideoTask:
    """A captured video sequence to be offloaded and preprocessed.

    ``total_size_bits`` is the size after source encoding. ``deadline_s``
    may be ``math.inf`` for tasks without a completion deadline.
    """

    task_id: str
    duration_s: float
    fps: float
    width_px: int
    height_px: int
    total_size_bits: int
    deadline_s: float
    function_id: str

    @property
    def frame_count(self) -> int:
        return round(self.duration_s * self.fps)


@dataclass(frozen=True)
class VideoChunk:
    """A sub-task of a video task: a contiguous, half-open frame range."""

    task_id: str
    index: int
    frame_range: tuple[int, int]  # [first_frame, last_frame)
    size_bits: float

    @property
    def frame_count(self) -> int:
        return self.frame_range[1] - self.frame_range[0]


@dataclass(frozen=True)
class Layer:
    """One content-addressed slice of a container image.

    Layers with equal ``layer_id`` hold identical content and may be
    shared between images and node stores without retransmission.
    """

    layer_id: str
    size_bits: int
    kind: str = READ_ONLY  # READ_ONLY or READ_WRITE


@dataclass(frozen=True)
class ContainerImage:
    """An ordered stack of read-only layers plus the mutable top layer.

    ``rw_layer`` is the execution layer added when a container launches;
    it is the only part a node can never already hold from a prior pull.
    """

    image_id: str
    layers: tuple[Layer, ...]
    rw_layer: Layer

    def all_layers(self) -> tuple[Layer, ...]:
        return self.layers + (self.rw_layer,)


@dataclass(frozen=True)
class ProcessingFunction:
    """An edge processing function (e.g. feature extraction) and its cost model.

    ``per_frame_cost_wu`` is abstract work units per input frame;
    ``output_ratio`` is output bits produced per input bit processed.
    """

    function_id: str
    name: str
    per_frame_cost_wu: float
    output_ratio: float
    required_image_id: str


@dataclass(frozen=True)
class EdgeNode:
    """A nearby device offering part of its compute to offloaded sub-tasks.

    ``cpu_budget_fraction`` caps the share of the node's CPU a container
    may use, so the rate available to a sub-task is
    ``compute_rate_wu_s * cpu_budget_fraction``.
    """

    node_id: str
    compute_rate_wu_s: float
    cpu_budget_fraction: float
    memory_budget_bits: int
    stored_layer_ids: frozenset[str] = frozenset()
    container_startup_s: float = 0.0

    @property
    def effective_rate_wu_s(self) -> float:
        return self.compute_rate_wu_s * self.cpu_budget_fraction


@dataclass(frozen=True)
class ChannelModel:
    """Link capacities of the system, in bits/second.

    The source channel is a single shared wireless medium: its total
    capacity divides equally among the flows concurrently active on it.
    ``internode_capacity_bps`` is the capacity of an edge-to-edge link
    (a leader sending to several workers at once fair-shares it), and
    ``edge_to_server_capacity_bps`` is each node's uplink to the server.
    """

    source_channel_capacity_bps: float
    internode_capacity_bps: float
    edge_to_server_capacity_bps: float


def proportional_shares(total: int, weights: Sequence[float]) -> list[int]:
    """Split integer ``total`` into shares proportional to ``weights``.

    Largest-remainder rounding, exact via integer arithmetic over a
    common denominator; remainder units go to the largest fractional
    parts, ties to the lowest index. With equal weights this gives
    earlier shares the +1 remainder.
    """
    if not weights:
        raise ValidationError("weights", "must be nonempty")
    if all(type(w) is int for w in weights):
        # Integer weights already share the denominator 1.
        scaled = list(weights)
    else:
        ratios = [w.as_integer_ratio() for w in weights]
        denominator = math.lcm(*(d for _, d in ratios))
        scaled = [n * (denominator // d) for n, d in ratios]
    weight_sum = sum(scaled)
    if weight_sum <= 0:
        raise ValidationError("weights", "must sum to a positive value")
    # Share i's exact quota is parts[i] / weight_sum.
    parts = [total * w for w in scaled]
    shares = [p // weight_sum if p >= 0 else -(-p // weight_sum) for p in parts]  # truncate
    leftover = total - sum(shares)
    by_remainder = sorted(
        range(len(shares)), key=lambda i: (shares[i] * weight_sum - parts[i], i)
    )
    for i in by_remainder[:leftover]:
        shares[i] += 1
    return shares


def equal_shares(total: int, n: int) -> list[int]:
    """Split integer ``total`` into ``n`` shares as even as possible.

    What :func:`proportional_shares` gives for ``n`` equal weights,
    earlier shares taking the +1 remainder, without its sort.
    """
    share, extra = divmod(total, n)
    return [share + 1] * extra + [share] * (n - extra)


def split_task(
    task: VideoTask,
    n: int,
    policy: str = "equal",
    weights: Sequence[float] | None = None,
) -> list[VideoChunk]:
    """Divide a task into ``n`` chunks covering its frame range.

    ``policy`` is ``"equal"`` (frames as even as possible, earlier chunks
    take the +1 remainder) or ``"weighted"`` (frames proportional to
    ``weights``). Chunk sizes in bits follow the frame share, and always
    sum to the task size exactly. Expects the arguments
    :func:`edgeswarm.scenario.prepare` passes for a scenario that
    ``validate_scenario`` passed: ``n >= 1``, an ``int`` task size and,
    for ``"weighted"``, ``n`` positive finite weights.
    """
    if policy == "weighted":
        split_weights = list(weights)
        frame_shares = proportional_shares(task.frame_count, split_weights)
    else:
        split_weights = [1] * n
        frame_shares = equal_shares(task.frame_count, n)
    # A zero-frame task still carries bits; fall back to the split weights.
    bit_weights: Sequence[float] = frame_shares if any(frame_shares) else split_weights
    bit_shares = proportional_shares(task.total_size_bits, bit_weights)

    chunks: list[VideoChunk] = []
    first = 0
    for index, (frames, bits) in enumerate(zip(frame_shares, bit_shares)):
        chunks.append(
            VideoChunk(
                task_id=task.task_id,
                index=index,
                frame_range=(first, first + frames),
                size_bits=float(bits),
            )
        )
        first += frames
    return chunks

