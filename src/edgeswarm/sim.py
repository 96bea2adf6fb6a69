"""Deterministic discrete-event execution of a scenario.

The engine replays the whole story: swarm formation messages, layer
transfers to workers, fluid fair-share chunk delivery, per-node
computation and result upload. It recomputes every duration from its
own event arithmetic; the closed forms in :mod:`edgeswarm.latency` are
never consulted, which is what makes cross-checking the two meaningful.

Two phase models:

``strict_barrier``
    Phases are separated by global barriers, so the component spans add
    up to the total exactly as in the closed-form model.

``per_node_overlap``
    Delivery starts immediately and each node begins computing as soon
    as its own container is up and its own chunks have landed.
    Components are still the longest per-node span of each phase, but
    the total is the makespan, never more than the strict total.

Event model: one heap of ``(time_s, seq, handler, args)`` tuples, where
``seq`` is an insertion counter. Ties in time therefore break by
insertion order, and entries never compare past ``seq``. The loop pops
the earliest entry and calls ``handler(time_s, *args)``; a handler may
push further entries, never earlier than the current time.

Determinism: the event order above is total, and the only randomness
anywhere is the seeded join token.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .latency import DelayBreakdown
from .model import ValidationError
from .policies import TOP_K
from .scenario import (
    DELIVERY_MODES,
    GROUP_KINDS,
    PER_NODE_OVERLAP,
    SIM_MODES,
    SPLIT_KINDS,
    STRICT_BARRIER,
    PreparedScenario,
    Scenario,
    as_baseline,
    prepare,
    with_per_link_capacity,
)
from .swarmproto import (
    DeployService,
    InitSwarm,
    JoinAccepted,
    JoinRejected,
    JoinRequest,
    LayerRequest,
    LayerTransfer,
    SwarmNodeMachine,
    TraceEvent,
)


class ScenarioValidationError(Exception):
    """Raised by :func:`run` when a scenario fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class SimReport:
    breakdown: DelayBreakdown
    per_node_timeline: tuple[tuple[str, str, float, float], ...]
    success: bool
    trace: tuple[TraceEvent, ...]


def validate_scenario(scenario: Scenario) -> list[str]:
    """All invariant violations in ``scenario``, empty when it is fine.

    Reports every problem rather than stopping at the first, so a file
    author can fix a batch at once. Violations are plain strings naming
    the offending element and field. Once every input is in range, each
    phase's worst case must also be finite, and so must their sum, so
    that a clean scenario runs to a finite report; these checks cost
    O(nodes) and do not elaborate the scenario.
    """
    bad: list[str] = []
    task = scenario.task

    def check(ok: bool, message: str) -> None:
        if not ok:
            bad.append(message)

    check(task.duration_s >= 0, f"task.duration_s: must be >= 0, got {task.duration_s!r}")
    check(task.fps >= 0, f"task.fps: must be >= 0, got {task.fps!r}")
    # Above 2**53, frame counts no longer convert to floats exactly.
    check(
        task.duration_s * task.fps <= 2**53,
        f"task.duration_s: frame count duration_s x fps must be finite and at most 2**53, "
        f"got {task.duration_s!r} x {task.fps!r}",
    )
    check(task.width_px > 0, f"task.width_px: must be positive, got {task.width_px!r}")
    check(task.height_px > 0, f"task.height_px: must be positive, got {task.height_px!r}")
    check(
        task.total_size_bits >= 0,
        f"task.total_size_bits: must be >= 0, got {task.total_size_bits!r}",
    )
    check(task.deadline_s > 0, f"task.deadline_s: must be positive, got {task.deadline_s!r}")

    functions = scenario.function_by_id()
    check(
        len(functions) == len(scenario.functions),
        "functions: duplicate function ids",
    )
    images = scenario.image_by_id()
    check(len(images) == len(scenario.images), "images: duplicate image ids")
    layer_sizes: dict[str, int] = {}
    for fn in scenario.functions:
        prefix = f"functions[{fn.function_id}]"
        check(
            0 <= fn.per_frame_cost_wu < math.inf,
            f"{prefix}.per_frame_cost_wu: must be finite and >= 0, got {fn.per_frame_cost_wu!r}",
        )
        check(
            0 <= fn.output_ratio < math.inf,
            f"{prefix}.output_ratio: must be finite and >= 0, got {fn.output_ratio!r}",
        )
        check(
            fn.required_image_id in images,
            f"{prefix}.image: unknown image {fn.required_image_id!r}",
        )
    for image in scenario.images:
        prefix = f"images[{image.image_id}]"
        layer_ids = [layer.layer_id for layer in image.all_layers()]
        check(len(set(layer_ids)) == len(layer_ids), f"{prefix}: duplicate layer ids")
        for layer in image.all_layers():
            check(
                layer.size_bits >= 0,
                f"{prefix}.layers[{layer.layer_id}].size: must be >= 0, got {layer.size_bits!r}",
            )
            # Layers are content-addressed: one id, one size.
            size = layer_sizes.setdefault(layer.layer_id, layer.size_bits)
            check(
                layer.size_bits == size,
                f"{prefix}.layers[{layer.layer_id}].size: {layer.size_bits!r} bits conflicts "
                f"with {size!r} bits given earlier for the same layer id",
            )

    node_ids = [node.node_id for node in scenario.nodes]
    check(bool(scenario.nodes), "nodes: at least one node is required")
    check(len(set(node_ids)) == len(node_ids), "nodes: duplicate node ids")
    for node in scenario.nodes:
        prefix = f"nodes[{node.node_id}]"
        check(
            0 < node.cpu_budget_fraction <= 1,
            f"{prefix}.cpu_budget_fraction: must be in (0, 1], got {node.cpu_budget_fraction!r}",
        )
        check(
            node.compute_rate_wu_s >= 0,
            f"{prefix}.compute_rate_wu_s: must be >= 0, got {node.compute_rate_wu_s!r}",
        )
        check(
            node.effective_rate_wu_s > 0,
            f"{prefix}: effective compute rate must be positive",
        )
        check(
            node.memory_budget_bits >= 0,
            f"{prefix}.memory_budget_bits: must be >= 0, got {node.memory_budget_bits!r}",
        )
        check(
            0 <= node.container_startup_s < math.inf,
            f"{prefix}.container_startup_s: must be finite and >= 0, "
            f"got {node.container_startup_s!r}",
        )
        for port in scenario.network.missing_ports(node.node_id):
            bad.append(f"{prefix}.ports: required port {port} is closed")

    channel = scenario.channel
    for name, value in (
        ("source_total", channel.source_channel_capacity_bps),
        ("internode", channel.internode_capacity_bps),
        ("server", channel.edge_to_server_capacity_bps),
    ):
        check(
            value > 0 and math.isfinite(value),
            f"channel.{name}: capacity must be positive and finite, got {value!r}",
        )

    policy = scenario.policy
    check(policy.group in GROUP_KINDS, f"policy.group: unknown kind {policy.group!r}")
    if policy.group == TOP_K:
        check(
            policy.k is not None and policy.k >= 1,
            f"policy.k: top_k needs k >= 1, got {policy.k!r}",
        )
    check(policy.split in SPLIT_KINDS, f"policy.split: unknown kind {policy.split!r}")
    check(policy.mode in DELIVERY_MODES, f"policy.mode: unknown kind {policy.mode!r}")
    check(scenario.sim.mode in SIM_MODES, f"sim.mode: unknown mode {scenario.sim.mode!r}")

    if task.function_id not in functions:
        bad.append(f"task.function: unknown function {task.function_id!r}")
    else:
        fn = functions[task.function_id]
        image = images.get(fn.required_image_id)
        if image is not None:
            holders = [node.node_id for node in scenario.nodes if node.holds_image(image)]
            check(
                bool(holders),
                f"NoImageHolder: no node stores the read-only layers of image "
                f"{image.image_id!r}",
            )
    if bad:
        return bad

    # Phase worst cases: every node pulls the whole image over the shared
    # inter-node link, one source flow carries every input bit, every node
    # computes every frame, and one node returns every input bit's output.
    fn = functions[task.function_id]
    image_bits = sum(float(layer.size_bits) for layer in images[fn.required_image_id].all_layers())
    worst = {
        "channel.internode: worst-case establish time": max(
            node.container_startup_s for node in scenario.nodes
        ) + image_bits * len(scenario.nodes) / channel.internode_capacity_bps,
        "channel.source_total: worst-case delivery time": (
            task.total_size_bits / channel.source_channel_capacity_bps
        ),
        "channel.server: worst-case return time": 0.0 if policy.ignore_return else (
            task.total_size_bits * fn.output_ratio / channel.edge_to_server_capacity_bps
        ),
    }
    for name, seconds in worst.items():
        check(math.isfinite(seconds), f"{name} must be finite, got {seconds!r}")
    work_wu = task.frame_count * fn.per_frame_cost_wu
    for node in scenario.nodes:
        # Messages only on failure: this loop runs on every run of a large swarm.
        if not math.isfinite(work_wu / node.effective_rate_wu_s):
            bad.append(f"nodes[{node.node_id}]: worst-case compute time must be finite")
    if not bad:
        total = sum(worst.values()) + work_wu / min(n.effective_rate_wu_s for n in scenario.nodes)
        check(math.isfinite(total), f"scenario: worst-case total time must be finite, got {total!r}")
    return bad


class _Engine:
    """Single-run state machine around one event heap (module docstring).

    Handlers are bound methods held only by heap entries, so once the
    heap is drained no reference cycle keeps a finished engine alive.
    """

    def __init__(self, prep: PreparedScenario, mode: str):
        self.prep = prep
        self.mode = mode
        scenario = prep.scenario
        self.channel = scenario.channel
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        self.trace: list[TraceEvent] = []
        self.images = scenario.image_by_id()
        self.machines = {
            node.node_id: SwarmNodeMachine(
                node_id=node.node_id,
                stored_layer_ids=node.stored_layer_ids,
                images=self.images,
                token_seed=scenario.sim.seed,
            )
            for node in prep.members
        }
        self.member_map = prep.member_map()
        self.transfer_bits = {node_id: bits for node_id, _, bits in prep.transfer_plans}
        self.transfer_layers = {node_id: layers for node_id, layers, _ in prep.transfer_plans}
        self.active_transfers = sum(1 for bits in self.transfer_bits.values() if bits > 0)

        self.joined = 0
        self.ready_time: dict[str, float] = {}
        self.entry_receivers = [entry.receivers() for entry in prep.plan.entries]
        self.arrival_time: dict[str, float] = {}
        self.pending_chunks = {node_id: 0 for node_id in prep.plan.node_ids()}
        for receivers in self.entry_receivers:
            for node_id in receivers:
                self.pending_chunks[node_id] += 1
        # Bits still to send per chunk flow (index = plan entry) on the
        # shared source channel.
        self.remaining = {i: chunk.size_bits for i, chunk in enumerate(prep.chunks)}
        self.delivery_start_s = 0.0
        self.delivery_end_s = 0.0

        self.compute_start: dict[str, float] = {}
        self.compute_end: dict[str, float] = {}
        self.compute_spans: dict[str, float] = {}
        self.return_end: dict[str, float] = {}
        self.return_spans: dict[str, float] = {}
        self.pending_compute = len(self.pending_chunks)
        self.pending_return = 0
        self.compute_barrier_s = 0.0
        self.finish_s = 0.0
        self.finished = False
        self.deadline_trace_index: int | None = None

    # -- small helpers --------------------------------------------------

    def push(self, time_s: float, handler, *args) -> None:
        heapq.heappush(self.heap, (time_s, next(self.seq), handler, args))

    def machine_phase(self, node_id: str) -> str:
        return self.machines[node_id].state.phase

    def note(self, time_s: float, node_id: str, label: str) -> None:
        phase = self.machine_phase(node_id) if node_id in self.machines else "-"
        self.trace.append(TraceEvent(time_s, node_id, phase, label, phase))

    def note_channel(self, time_s: float, label: str) -> None:
        self.trace.append(TraceEvent(time_s, "source-channel", "-", label, "-"))

    def compute_duration(self, node_id: str) -> float:
        frames = self.prep.plan.frames_assigned_to(node_id)
        return frames * self.prep.function.per_frame_cost_wu / self.member_map[
            node_id
        ].effective_rate_wu_s

    def return_duration(self, node_id: str) -> float:
        if self.prep.scenario.policy.ignore_return:
            return 0.0
        output_bits = self.prep.plan.input_bits_for(node_id) * self.prep.function.output_ratio
        if output_bits <= 0:
            return 0.0
        return output_bits / self.channel.edge_to_server_capacity_bps

    # -- phase logic ----------------------------------------------------

    def seed_initial_events(self) -> None:
        swarm = self.prep.swarm
        self.push(0.0, self.on_message, swarm.leader_id, InitSwarm(swarm.leader_id))
        for worker_id in swarm.worker_ids:
            request = JoinRequest(worker_id, swarm.join_token)
            self.push(0.0, self.on_message, worker_id, request)
            self.push(0.0, self.on_message, swarm.leader_id, request)
        if self.mode == PER_NODE_OVERLAP:
            self.start_delivery(0.0)
        deadline = self.prep.scenario.task.deadline_s
        if math.isfinite(deadline):
            self.push(deadline, self.on_deadline)

    def on_message(self, now: float, node_id: str, msg: object) -> None:
        machine = self.machines[node_id]
        old_phase = machine.state.phase
        emitted = machine.handle(msg, now)
        self.trace.append(machine.trace[-1])
        new_phase = machine.state.phase
        if new_phase != old_phase and new_phase in ("leader_initialized", "member"):
            self.joined += 1
            if self.joined == len(self.prep.members):
                self.push_deploys(now)
        if new_phase != old_phase and new_phase == "container_ready":
            self.on_container_ready(now, node_id)
        for out in emitted:
            if isinstance(out, LayerRequest):
                self.start_layer_flow(now, out.node_id)
            elif isinstance(out, (JoinAccepted, JoinRejected)) and out.node_id in self.machines:
                self.push(now, self.on_message, out.node_id, out)

    def push_deploys(self, now: float) -> None:
        deploy = DeployService(self.prep.service)
        for node in self.prep.members:
            if self.transfer_layers.get(node.node_id, ()):
                # Will request layers; startup is paid after the transfer lands.
                self.push(now, self.on_message, node.node_id, deploy)
            else:
                # Nothing to pull: the container is up once startup elapses.
                self.push(now + node.container_startup_s, self.on_message, node.node_id, deploy)

    def start_layer_flow(self, now: float, node_id: str) -> None:
        bits = self.transfer_bits[node_id]
        if bits > 0:
            # Shares are static: every puller requests at deploy time.
            share = self.channel.internode_capacity_bps / self.active_transfers
            duration = bits / share
        else:
            # Only zero-size layers missing; the pull occupies no link time.
            duration = 0.0
        self.push(now + duration, self.on_layer_flow_done, node_id)

    def on_layer_flow_done(self, now: float, node_id: str) -> None:
        self.note(now, node_id, "LayerFlowCompleted")
        node = self.member_map[node_id]
        transfer = LayerTransfer(self.transfer_layers[node_id], self.transfer_bits[node_id])
        self.push(now + node.container_startup_s, self.on_message, node_id, transfer)

    def on_container_ready(self, now: float, node_id: str) -> None:
        self.ready_time[node_id] = now
        if self.mode == PER_NODE_OVERLAP:
            self.maybe_start_compute(now, node_id)
        elif len(self.ready_time) == len(self.prep.members):
            self.push(now, self.on_barrier, "establish", self.start_delivery)

    def start_delivery(self, now: float) -> None:
        self.delivery_start_s = now
        self.delivery_end_s = now
        if self.remaining:
            self.schedule_chunk_batch(now)
        elif self.mode == STRICT_BARRIER:
            self.push(now, self.on_barrier, "deliver", self.start_all_computes)

    def schedule_chunk_batch(self, now: float) -> None:
        """Fluid max-min fair share: every live flow moves at capacity /
        live-count, so the smallest remaining flows drain together next."""
        remaining = self.remaining
        least = min(remaining.values())
        batch = sorted(i for i, bits in remaining.items() if bits == least)
        when = now + least * len(remaining) / self.channel.source_channel_capacity_bps
        self.push(when, self.on_chunk_flows_done, batch, least)

    def on_chunk_flows_done(self, now: float, batch: list[int], least: float) -> None:
        # Exact subtraction of the batch size keeps equal-sized flows
        # bit-identical, so they complete in one batch.
        remaining = self.remaining
        for i in remaining:
            remaining[i] -= least
        for i in batch:
            del remaining[i]
        if remaining:
            self.push(now, self.note_channel, "FlowRateRecomputed")
            self.schedule_chunk_batch(now)
        self.delivery_end_s = now
        for entry_index in batch:
            for node_id in self.entry_receivers[entry_index]:
                self.note(now, node_id, f"ChunkDelivered[{entry_index}]")
                self.arrival_time[node_id] = now
                self.pending_chunks[node_id] -= 1
                if self.mode == PER_NODE_OVERLAP:
                    self.maybe_start_compute(now, node_id)
        if self.mode == STRICT_BARRIER and not remaining:
            self.push(now, self.on_barrier, "deliver", self.start_all_computes)

    def maybe_start_compute(self, now: float, node_id: str) -> None:
        if node_id in self.compute_start:
            return
        if node_id not in self.ready_time or node_id not in self.pending_chunks:
            return
        if self.pending_chunks[node_id] > 0:
            return
        self.start_compute(now, node_id)

    def start_all_computes(self, now: float) -> None:
        for node_id in self.pending_chunks:
            self.start_compute(now, node_id)

    def start_compute(self, now: float, node_id: str) -> None:
        self.compute_start[node_id] = now
        duration = self.compute_duration(node_id)
        self.compute_spans[node_id] = duration
        self.push(now + duration, self.on_compute_done, node_id)

    def on_barrier(self, now: float, phase: str, then, *args) -> None:
        self.note_channel(now, f"PhaseBarrierReached[{phase}]")
        then(now, *args)

    def on_compute_done(self, now: float, node_id: str) -> None:
        self.note(now, node_id, "ComputeCompleted")
        self.compute_end[node_id] = now
        self.pending_compute -= 1
        if self.mode == STRICT_BARRIER:
            if self.pending_compute == 0:
                self.compute_barrier_s = now
                self.push(now, self.on_barrier, "compute", self.begin_returns, self.pending_chunks)
        else:
            self.begin_returns(now, [node_id])

    def begin_returns(self, now: float, node_ids) -> None:
        for node_id in node_ids:
            duration = self.return_duration(node_id)
            self.return_spans[node_id] = duration
            if duration > 0:
                self.pending_return += 1
                self.push(now + duration, self.on_return_done, node_id)
            else:
                self.return_end[node_id] = now
        self.check_all_returned(now)

    def on_return_done(self, now: float, node_id: str) -> None:
        self.note(now, node_id, "ResultUploaded")
        self.return_end[node_id] = now
        self.pending_return -= 1
        self.check_all_returned(now)

    def check_all_returned(self, now: float) -> None:
        if self.pending_return > 0 or self.pending_compute > 0:
            return
        if len(self.return_end) < len(self.pending_chunks) or self.finished:
            return
        self.finished = True
        if self.mode == STRICT_BARRIER:
            self.push(now, self.on_barrier, "return", self.finish)
        else:
            self.finish(now)

    def finish(self, now: float) -> None:
        self.finish_s = now

    def on_deadline(self, now: float) -> None:
        if not self.finished:
            self.deadline_trace_index = len(self.trace)

    # -- main loop ------------------------------------------------------

    def run(self) -> SimReport:
        self.seed_initial_events()
        heap = self.heap
        last_time = 0.0
        while heap:
            time_s, _, handler, args = heapq.heappop(heap)
            if time_s < last_time:
                raise AssertionError("event queue went backwards in time")
            last_time = time_s
            handler(time_s, *args)
        return self.build_report()

    # -- reporting ------------------------------------------------------

    def build_report(self) -> SimReport:
        members = self.prep.members
        t_ce = max((self.ready_time[m.node_id] for m in members), default=0.0)
        t_d = self.delivery_end_s - self.delivery_start_s
        # Phase spans are the durations the engine itself scheduled, not
        # timestamp differences, so a phase's length cannot pick up
        # rounding from wherever its barrier happened to sit.
        t_c = max(self.compute_spans.values(), default=0.0)
        t_r = max(self.return_spans.values(), default=0.0)
        if self.mode == STRICT_BARRIER:
            breakdown = DelayBreakdown.from_components(t_ce, t_d, t_c, t_r)
        else:
            breakdown = DelayBreakdown(t_ce, t_d, t_c, t_r, self.finish_s)
        deadline = self.prep.scenario.task.deadline_s
        success = breakdown.t_total_s <= deadline
        if not success and self.deadline_trace_index is not None:
            self.trace.insert(
                self.deadline_trace_index,
                TraceEvent(deadline, "source-channel", "-", "DeadlineExpired", "-"),
            )
        return SimReport(
            breakdown=breakdown,
            per_node_timeline=self.build_timeline(),
            success=success,
            trace=tuple(self.trace),
        )

    def return_start(self, node_id: str) -> float:
        if self.mode == STRICT_BARRIER:
            return self.compute_barrier_s
        return self.compute_end[node_id]

    def build_timeline(self) -> tuple[tuple[str, str, float, float], ...]:
        rows: list[tuple[str, str, float, float]] = []
        for node in self.prep.members:
            node_id = node.node_id
            rows.append((node_id, "establish", 0.0, self.ready_time[node_id]))
            if node_id in self.arrival_time:
                rows.append(
                    (node_id, "deliver", self.delivery_start_s, self.arrival_time[node_id])
                )
            if node_id in self.compute_start:
                rows.append(
                    (node_id, "compute", self.compute_start[node_id], self.compute_end[node_id])
                )
            if node_id in self.return_end and self.return_end[node_id] > self.return_start(
                node_id
            ):
                rows.append(
                    (node_id, "return", self.return_start(node_id), self.return_end[node_id])
                )
        return tuple(rows)


def run(scenario: Scenario, mode: str | None = None) -> SimReport:
    """Validate, elaborate and execute ``scenario`` event by event.

    ``mode`` overrides the scenario's own simulation mode. Validation
    failures raise :class:`ScenarioValidationError` carrying every
    violation.
    """
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    chosen = scenario.sim.mode if mode is None else mode
    if chosen not in SIM_MODES:
        raise ValidationError("mode", f"unknown simulation mode {chosen!r}")
    prep = prepare(scenario)
    return _Engine(prep, chosen).run()


@dataclass(frozen=True)
class SweepRow:
    """One capacity point: baseline vs cooperative, plus the saving."""

    capacity_bps: float
    baseline: DelayBreakdown
    cooperative: DelayBreakdown
    savings_fraction: float


def sweep(scenario_template: Scenario, capacities_bps: list[float]) -> list[SweepRow]:
    """Evaluate baseline and cooperative runs across link capacities.

    Each capacity is the per-link value from the source to one node:
    the cooperative run gives every member such a link (source channel
    total = members x capacity, inter-node link = capacity), while the
    baseline keeps the same channel total but concentrates it on the
    leader alone. Rows come back sorted by capacity; duplicates produce
    duplicate rows.
    """
    if not capacities_bps:
        raise ValidationError("capacities", "at least one capacity is required")
    member_count = len(prepare(scenario_template).members)
    rows: list[SweepRow] = []
    for capacity in sorted(capacities_bps):
        cooperative_scenario = with_per_link_capacity(scenario_template, capacity, member_count)
        baseline_scenario = as_baseline(cooperative_scenario)
        cooperative = run(cooperative_scenario).breakdown
        baseline = run(baseline_scenario).breakdown
        if baseline.t_total_s > 0:
            savings = (baseline.t_total_s - cooperative.t_total_s) / baseline.t_total_s
        else:
            savings = 0.0
        rows.append(SweepRow(capacity, baseline, cooperative, savings))
    return rows
