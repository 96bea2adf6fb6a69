"""Domain types and task-preparation operations for edge video offloading.

Everything here is an immutable value: tasks, chunks, container images,
edge nodes and the shared-channel description. Operations are pure
functions, so values can be copied and handed between threads freely.

Each class a scenario is made of states its field table in its fields:
a :func:`column` gives a field's key in scenario files and the
:class:`Rule` its type meets, and a :class:`Table` reads them in field
order. :mod:`edgeswarm.cli` reads and writes files by the tables, and
:func:`edgeswarm.scenario.validate_scenario` checks each section's class
and each field's type by them.

Unit conventions (decimal, networking style):
    1 MB   = 8 * 10^6 bits
    1 kb/s = 1000 bits/s
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

BITS_PER_MB = 8_000_000
BPS_PER_KBPS = 1000

READ_ONLY = "read_only"
READ_WRITE = "read_write"


class ValidationError(ValueError):
    """An input violates a domain invariant; the message names the field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


# --- field tables -----------------------------------------------------


def _float(value) -> float:
    """``value`` as a float, and an ``int`` too large for one as ``inf``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


class Rule(NamedTuple):
    """A field's type: a value meets it if ``fault(value)`` is ``None``,
    and otherwise ``fault`` gives the words its violation puts before the
    value. A value whose class is in ``exact`` meets it without calling
    ``fault``. Files give a ``reads``, and may leave out a field whose
    ``exact`` holds ``NoneType``."""

    reads: type
    exact: tuple[type, ...]
    fault: Callable[[Any], str | None]


def _instances(noun: str, *classes: type, least: int | None = None) -> Rule:
    """Instances of ``classes`` (a ``bool`` only if ``bool`` is one), from
    ``least`` up if given, a range that only ``fault`` then decides."""

    def fault(value: Any) -> str | None:
        ok = isinstance(value, classes) and (type(value) is not bool or bool in classes)
        return None if ok and (least is None or value >= least) else f"must be {noun}, got"

    return Rule(classes[0], classes if least is None else (), fault)


def _fits_float(value: Any) -> str | None:
    if isinstance(value, int) and _float(value) == math.inf:
        return "must fit a float, got"
    return NUMBER.fault(value)


def one_of(kinds: tuple[str, ...], noun: str = "kind") -> Rule:
    """A name from ``kinds``; any other value is an unknown ``noun``."""
    return Rule(str, (), lambda value: None if value in kinds else f"unknown {noun}")


NUMBER = _instances("a number", float, int)
FLOAT = Rule(float, (float,), _fits_float)  # or an int a float can hold
INTEGER = _instances("an integer", int)
POSITIVE_INTEGER = _instances("a positive integer", int, least=1)
BITS = _instances("an integer >= 0", int, least=0)
STRING = _instances("a string", str)
BOOLEAN = _instances("a boolean", bool)
LAYER_IDS = _instances("a set of layer ids", frozenset, set)


def column(key: str | None, rule: Any, label: str = "", **options: Any) -> Any:
    """A dataclass field, given in files under ``key`` (``None``: not at
    all), whose value meets ``rule`` (a :class:`Rule`, or a nested
    :class:`Table` or :class:`Entries`); violations name it ``label`` if
    given. ``options`` go to :func:`dataclasses.field`."""
    return field(metadata={"key": key, "rule": rule, "label": label}, **options)


class Table:
    """A model class's columns as ``(key, attribute, rule, label)`` rows,
    in field order. As a rule, a table is met by an instance of its class.
    ``fast(item)`` is true if ``item`` is of the class itself and each
    value meets its rule at once (see :class:`Rule`), or, for a rule with
    no ``exact`` classes, its ``fault`` finds none; ``False`` leaves the
    item to the rules' ``fault`` tests."""

    def __init__(self, cls: type):
        self.cls, self.exact = cls, (cls,)
        self.rows = [
            (f.metadata["key"], f.name, f.metadata["rule"], f.metadata["label"] or f.name)
            for f in fields(cls)
            if f.metadata
        ]

    @cached_property
    def fast(self) -> Callable[[Any], bool]:
        # Written out per table, as dataclasses writes __init__, and on first
        # use, not at import: the gate runs it on every node, and bare
        # type(x) calls cost far less than type through map or a loop.
        names, tests = {"cls": self.cls}, ["type(item) is cls"]
        for i, (_, name, rule, _) in enumerate(self.rows):
            names[f"exact{i}"], names[f"fault{i}"] = rule.exact, rule.fault
            value = f"item.{name}"
            if rule.exact:
                tests.append(f"type({value}) in exact{i}")
            else:
                tests.append(f"not fault{i}({value})")
        return eval(f"lambda item: {' and '.join(tests)}", names)

    def fault(self, value: Any) -> str | None:
        if isinstance(value, self.cls):
            return None
        name = self.cls.__name__
        return f"must be {'an' if name[0] in 'AEIOU' else 'a'} {name}, got"


class Entries(NamedTuple):
    """The rule of a tuple (or a list) of ``table.cls`` items."""

    table: Table
    exact = ()

    def fault(self, value: Any) -> str | None:
        cls = self.table.cls
        if isinstance(value, (tuple, list)):
            for item in value:
                if not isinstance(item, cls):
                    break
            else:
                return None
        return f"must be a tuple of {cls.__name__}, got"


@dataclass(frozen=True)
class VideoTask:
    """A captured video sequence to be offloaded and preprocessed.

    ``total_size_bits`` is the size after source encoding. ``deadline_s``
    may be ``math.inf`` for tasks without a completion deadline.
    """

    task_id: str  # files name none
    duration_s: float = column("duration_s", FLOAT)
    fps: float = column("fps", FLOAT)
    width_px: int = column("width", POSITIVE_INTEGER)
    height_px: int = column("height", POSITIVE_INTEGER)
    total_size_bits: int = column("size_mb", BITS)
    deadline_s: float = column("deadline_s", FLOAT)
    function_id: str = column("function", STRING)

    @property
    def frame_count(self) -> int:
        return round(self.duration_s * self.fps)


TASK = Table(VideoTask)


class VideoChunk(NamedTuple):
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

    layer_id: str = column("id", STRING)
    size_bits: int = column("size_mb", BITS, "size")
    kind: str = READ_ONLY  # READ_ONLY or READ_WRITE; files give none


LAYER = Table(Layer)


@dataclass(frozen=True)
class ContainerImage:
    """An ordered stack of read-only layers plus the mutable top layer.

    ``rw_layer`` is the execution layer added when a container launches;
    it is the only part a node can never already hold from a prior pull.
    """

    image_id: str = column("id", STRING)
    layers: tuple[Layer, ...] = column("layers", Entries(LAYER))
    rw_layer: Layer = column("rw_layer_mb", LAYER)  # files give its size alone

    def all_layers(self) -> tuple[Layer, ...]:
        return (*self.layers, self.rw_layer)


IMAGE = Table(ContainerImage)


@dataclass(frozen=True)
class ProcessingFunction:
    """An edge processing function (e.g. feature extraction) and its cost model.

    ``per_frame_cost_wu`` is abstract work units per input frame;
    ``output_ratio`` is output bits produced per input bit processed.
    """

    function_id: str = column("id", STRING)
    name: str = column("name", STRING)
    per_frame_cost_wu: float = column("per_frame_cost_wu", FLOAT)
    # Only the return reads it, as a float: an int too large reads as inf.
    output_ratio: float = column("output_ratio", NUMBER)
    required_image_id: str = column("image", STRING)


FUNCTION = Table(ProcessingFunction)


@dataclass(frozen=True)
class EdgeNode:
    """A nearby device offering part of its compute to offloaded sub-tasks.

    ``cpu_budget_fraction`` caps the share of the node's CPU a container
    may use, so the rate available to a sub-task is
    ``compute_rate_wu_s * cpu_budget_fraction``.
    """

    node_id: str = column("id", STRING)
    compute_rate_wu_s: float = column("rate_wu_s", FLOAT)
    cpu_budget_fraction: float = column("cpu_budget", FLOAT)
    memory_budget_bits: int = column("memory_mb", NUMBER)
    stored_layer_ids: frozenset[str] = column("layers", LAYER_IDS, default=frozenset())
    container_startup_s: float = column("startup_s", FLOAT, default=0.0)

    @property
    def effective_rate_wu_s(self) -> float:
        return self.compute_rate_wu_s * self.cpu_budget_fraction


# Files also list each node's open ports, which the scenario's
# SwarmNetworkConfig keeps.
NODE = Table(EdgeNode)


@dataclass(frozen=True)
class ChannelModel:
    """Link capacities of the system, in bits/second.

    The source channel is a single shared wireless medium: its total
    capacity divides equally among the flows concurrently active on it.
    ``internode_capacity_bps`` is the capacity of an edge-to-edge link
    (a leader sending to several workers at once fair-shares it), and
    ``edge_to_server_capacity_bps`` is each node's uplink to the server.
    """

    source_channel_capacity_bps: float = column("source_total_kbps", FLOAT, "source_total")
    internode_capacity_bps: float = column("internode_kbps", FLOAT, "internode")
    edge_to_server_capacity_bps: float = column("server_kbps", FLOAT, "server")


CHANNEL = Table(ChannelModel)


def proportional_shares(total: int, weights: Sequence[float]) -> list[int]:
    """Split integer ``total`` into shares proportional to ``weights``.

    Largest-remainder rounding, exact via integer arithmetic over a
    common denominator; remainder units go to the largest fractional
    parts, ties to the lowest index. With equal weights this gives
    earlier shares the +1 remainder.
    """
    if not weights:
        raise ValidationError("weights", "must be nonempty")
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
    # The sort is stable, so equal remainders keep index order.
    remainders = [share * weight_sum - part for share, part in zip(shares, parts)]
    by_remainder = sorted(range(len(shares)), key=remainders.__getitem__)
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

    task_id, firsts = task.task_id, itertools.accumulate(frame_shares, initial=0)
    return [
        VideoChunk(task_id, index, (first, first + frames), float(bits))
        for index, (first, frames, bits) in enumerate(zip(firsts, frame_shares, bit_shares))
    ]

