"""Deterministic discrete-event execution of a scenario.

The engine replays the whole story: swarm formation messages, layer
transfers to workers, fluid fair-share chunk delivery, per-node
computation and result upload. It holds every member's protocol state,
which is its phase, in one ``{node_id: phase}`` map, and delivers each
message through the transition table of :mod:`edgeswarm.swarmproto`
that :func:`~edgeswarm.swarmproto.handle_message` uses, recording one
trace event per delivery. Handlers read each member's missing layers and
the join code from :func:`~edgeswarm.scenario.prepare`'s plan. Workers
present the swarm's own join code, so the leader's only join reply is
``JoinAccepted``; the engine calls none of swarmproto's operation-level
helpers. It recomputes every duration from its own event arithmetic; the
closed forms in :mod:`edgeswarm.latency` are never consulted, which is
what makes cross-checking the two meaningful.
:func:`run` passes every scenario through
:func:`edgeswarm.scenario.validate_scenario` first, and the engine
relies on what that gate checks. :func:`sweep` passes its template
through it once; since a row changes only the channel, each row then
runs only the gate's channel rules. :func:`run` given a
:class:`~edgeswarm.scenario.PreparedScenario` skips the gate and
re-elaboration; :func:`sweep` uses that to elaborate each of its two
arms once and then run only the engine per capacity. ``prepare`` builds
only the plan; each engine run derives its own lookup tables from it
(members by id, layer transfers, chunk counts, flow order).

Per member the engine stores only what it schedules: when the container
is ready, when the last chunk lands, when compute starts, and the
compute and return spans. The report derives every other time from
these: each end is its start plus its span, strict returns start at the
last compute end, delivery spans from its start (the last ready time in
strict mode, 0 in overlap) to the last arrival, and the overlap total is
the last compute or return end.

Two phase models:

``strict_barrier``
    Phases are separated by global barriers, so the component spans add
    up to the total exactly as in the closed-form model.

``per_node_overlap``
    Delivery starts immediately and each node begins computing as soon
    as its own container is up and its own chunks have landed.
    Components are still the longest per-node span of each phase, but
    the total is the makespan, never more than the strict total.

Event model: events run in ``(time_s, seq)`` order, where ``seq`` is an
insertion counter, so ties in time break by insertion order. Two queues
hold them. Events for a later time go to a heap of
``(time_s, seq, handler, args)`` tuples, which never compare past
``seq``. Events pushed for the current time, most of the protocol
messages, go to a first-in first-out queue of ``(handler, args)``. The
loop takes the earliest time on the heap, runs every heap entry due then
and then the queue, until both are empty, calling
``handler(time_s, *args)``. That is still ``(time_s, seq)`` order: an
entry reaches the heap only when its time lies ahead, so every heap
entry due at the current time was pushed, and numbered, before any entry
in the queue. A handler may push further events, never earlier than the
current time. Messages known to be due at the current time, the t=0
join wave and the leader's join replies, go straight onto the queue.

Determinism: the event order above is total, and nothing draws a random
number: the join code is a hash of the seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable

from .latency import DelayBreakdown
from .model import ChannelModel, ValidationError
from .scenario import (
    PER_NODE_OVERLAP,
    SIM_MODES,
    STRICT_BARRIER,
    PreparedScenario,
    Scenario,
    ScenarioValidationError,
    _channel_violations,
    _float,
    _is_int,
    _shown,
    _worst_case_terms,
    as_baseline,
    prepare,
    validate_scenario,
    with_per_link_capacity,
)
from .swarmproto import (
    _HANDLERS,
    DeployService,
    InitSwarm,
    JoinAccepted,
    JoinRequest,
    LayerRequest,
    LayerTransfer,
    TraceEvent,
)


@dataclass(frozen=True)
class SimReport:
    """One run's outcome: the delay breakdown, each member's phase spans as
    ``(node_id, phase, start_s, end_s)`` rows, whether the total met the
    deadline, and every protocol and simulation event in order."""

    breakdown: DelayBreakdown
    per_node_timeline: tuple[tuple[str, str, float, float], ...]
    success: bool
    trace: tuple[TraceEvent, ...]


class _Engine:
    """Single-run state machine around one event heap (module docstring).

    Handlers are bound methods held only by heap entries, so once the
    heap is drained no reference cycle keeps a finished engine alive.
    """

    def __init__(self, prep: PreparedScenario, mode: str):
        self.prep = prep
        self.mode = mode
        self.channel = prep.scenario.channel
        self.now = 0.0
        self.heap: list[tuple] = []
        self.due_now: deque[tuple] = deque()
        self.seq = itertools.count()
        self.trace: list[TraceEvent] = []
        self.member_map = {node.node_id: node for node in prep.members}
        transfer_layers, transfer_bits, pullers = {}, {}, 0
        for node_id, layers, bits in prep.transfer_plans:
            transfer_layers[node_id] = layers
            transfer_bits[node_id] = bits
            pullers += bits > 0
        self.transfer_layers, self.transfer_bits = transfer_layers, transfer_bits
        self.active_transfers = pullers
        self.join_token = prep.swarm.join_token
        # Each member's protocol phase, advanced by swarmproto's handlers.
        self.phases = dict.fromkeys(self.member_map, "idle")

        self.joined = 0
        self.ready_time: dict[str, float] = {}
        self.entries = entries = prep.plan.entries
        self.arrival_time: dict[str, float] = {}
        # Chunks each member awaits; start_all_computes follows this key order.
        self.pending_chunks = pending = dict.fromkeys(prep.plan.node_ids(), 0)
        for entry in entries:
            for node_id, _ in entry.node_frames:
                pending[node_id] += 1
        # Chunk flows (index = plan entry) on the shared source channel,
        # smallest first, ties by index; flows before next_flow are done,
        # and every live flow has sent drained_bits.
        self.flow_bits = [chunk.size_bits for chunk in prep.chunks]
        self.flow_order = sorted(range(len(self.flow_bits)), key=self.flow_bits.__getitem__)
        self.next_flow = 0
        self.drained_bits = 0.0

        self.compute_start: dict[str, float] = {}
        self.compute_spans: dict[str, float] = {}
        self.return_spans: dict[str, float] = {}
        # Every member is in pending_chunks and gets at least one chunk:
        # unicast gives each one chunk, multicast sends each every chunk.
        self.pending_compute = len(self.pending_chunks)
        self.pending_return = len(self.pending_chunks)
        self.deadline_trace_index: int | None = None

    # -- small helpers --------------------------------------------------

    def push(self, time_s: float, handler, *args) -> None:
        now = self.now
        if time_s == now:
            self.due_now.append((handler, args))
        elif time_s > now:
            heapq.heappush(self.heap, (time_s, next(self.seq), handler, args))
        else:
            raise AssertionError("event queue went backwards in time")

    def note(self, time_s: float, node_id: str, label: str) -> None:
        phase = self.phases[node_id]
        self.trace.append(tuple.__new__(TraceEvent, (time_s, node_id, phase, label, phase)))

    def note_channel(self, time_s: float, label: str) -> None:
        self.trace.append(tuple.__new__(TraceEvent, (time_s, "source-channel", "-", label, "-")))

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
        # The join wave is due at t=0, the current time: straight onto the queue.
        swarm, queue, on_message = self.prep.swarm, self.due_now.append, self.on_message
        leader_id = swarm.leader_id
        queue((on_message, (leader_id, InitSwarm(leader_id))))
        for worker_id in swarm.worker_ids:
            request = JoinRequest(worker_id, swarm.join_token)
            queue((on_message, (worker_id, request)))
            queue((on_message, (leader_id, request)))
        if self.mode == PER_NODE_OVERLAP:
            # split_task always gives at least one chunk, so there is a batch.
            self.schedule_chunk_batch(0.0)
        deadline = self.prep.scenario.task.deadline_s
        if math.isfinite(deadline):
            self.push(deadline, self.on_deadline)

    def on_message(self, now: float, node_id: str, msg: object) -> None:
        """Deliver ``msg`` to a member: one protocol step, one trace record."""
        phases = self.phases
        old_phase = phases[node_id]
        kind = type(msg)
        new_phase, emitted = _HANDLERS[kind](
            old_phase, msg, node_id, self.transfer_layers[node_id], self.join_token
        )
        phases[node_id] = new_phase
        # tuple.__new__ skips TraceEvent's Python-level __new__; same record.
        self.trace.append(
            tuple.__new__(TraceEvent, (now, node_id, old_phase, kind.__name__, new_phase))
        )
        if new_phase != old_phase:
            if new_phase in ("leader_initialized", "member"):
                self.joined += 1
                if self.joined == len(self.prep.members):
                    self.push_deploys(now)
            elif new_phase == "container_ready":
                self.on_container_ready(now, node_id)
        for out in emitted:
            if isinstance(out, LayerRequest):
                self.start_layer_flow(now, out.node_id)
            elif isinstance(out, JoinAccepted):
                # The gate leaves no wrong token to reject. The reply is
                # due now: straight onto the same-time queue.
                self.due_now.append((self.on_message, (out.node_id, out)))

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
            self.push(now, self.on_barrier, "establish", self.schedule_chunk_batch)

    def schedule_chunk_batch(self, now: float) -> None:
        """Fluid max-min fair share (progressive filling): every live flow
        moves at capacity / live-count, so the next run of equal sizes in
        size order drains together next, after its size minus the bits
        every live flow has already sent."""
        order, bits, first = self.flow_order, self.flow_bits, self.next_flow
        size = bits[order[first]]
        end = first + 1
        while end < len(order) and bits[order[end]] == size:
            end += 1
        # Chunk sizes are whole numbers of bits below 2**53, so this one
        # subtraction is exact, and equals the bits left of each flow in
        # the batch after subtracting every earlier batch's amount in turn.
        least = size - self.drained_bits
        live = len(order) - first
        when = now + least * live / self.channel.source_channel_capacity_bps
        self.push(when, self.on_chunk_flows_done, order[first:end], size)

    def on_chunk_flows_done(self, now: float, batch: list[int], size: float) -> None:
        self.next_flow += len(batch)
        self.drained_bits = size
        remaining = self.next_flow < len(self.flow_order)
        if remaining:
            self.push(now, self.note_channel, "FlowRateRecomputed")
            self.schedule_chunk_batch(now)
        for entry_index in batch:
            for node_id, _ in self.entries[entry_index].node_frames:
                self.note(now, node_id, f"ChunkDelivered[{entry_index}]")
                self.arrival_time[node_id] = now
                self.pending_chunks[node_id] -= 1
                if self.mode == PER_NODE_OVERLAP:
                    self.maybe_start_compute(now, node_id)
        if self.mode == STRICT_BARRIER and not remaining:
            self.push(now, self.on_barrier, "deliver", self.start_all_computes)

    def maybe_start_compute(self, now: float, node_id: str) -> None:
        # Called once when the container is up and once per chunk landed, so
        # both conditions hold together exactly once.
        if node_id in self.ready_time and self.pending_chunks[node_id] == 0:
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
        self.pending_compute -= 1
        if self.mode == STRICT_BARRIER:
            if self.pending_compute == 0:
                self.push(now, self.on_barrier, "compute", self.begin_returns, self.pending_chunks)
        else:
            self.begin_returns(now, [node_id])

    def begin_returns(self, now: float, node_ids) -> None:
        for node_id in node_ids:
            duration = self.return_duration(node_id)
            self.return_spans[node_id] = duration
            if duration > 0:
                self.push(now + duration, self.on_return_done, node_id)
            else:
                self.pending_return -= 1
        self.check_all_returned(now)

    def on_return_done(self, now: float, node_id: str) -> None:
        self.note(now, node_id, "ResultUploaded")
        self.pending_return -= 1
        self.check_all_returned(now)

    def check_all_returned(self, now: float) -> None:
        # Strict returns all begin at one barrier, so this sees 0 once.
        if self.pending_return == 0 and self.mode == STRICT_BARRIER:
            self.push(now, self.note_channel, "PhaseBarrierReached[return]")

    def on_deadline(self, now: float) -> None:
        if self.pending_return:
            self.deadline_trace_index = len(self.trace)

    # -- main loop ------------------------------------------------------

    def run(self) -> SimReport:
        self.seed_initial_events()
        self.drain()
        return self.build_report()

    def drain(self) -> None:
        """Run events in ``(time_s, seq)`` order until none is left."""
        heap, due_now, pop = self.heap, self.due_now, heapq.heappop
        now = self.now
        while True:
            while due_now:
                handler, args = due_now.popleft()
                handler(now, *args)
            if not heap:
                return
            now = self.now = heap[0][0]
            # Heap entries due now were pushed before anything now queued.
            while heap and heap[0][0] == now:
                _, _, handler, args = pop(heap)
                handler(now, *args)

    # -- reporting ------------------------------------------------------

    def build_report(self) -> SimReport:
        members = self.prep.members
        strict = self.mode == STRICT_BARRIER
        t_ce = max(self.ready_time[m.node_id] for m in members)
        # Strict delivery starts at the establish barrier, the last ready
        # time. Every chunk lands at some member, so it ends at the last arrival.
        delivery_start = t_ce if strict else 0.0
        t_d = max(self.arrival_time.values()) - delivery_start
        # Phase spans are the durations the engine itself scheduled, not
        # timestamp differences, so a phase's length cannot pick up
        # rounding from wherever its barrier happened to sit.
        t_c = max(self.compute_spans.values())
        t_r = max(self.return_spans.values())
        timeline = self.build_timeline(delivery_start)
        if strict:
            breakdown = DelayBreakdown.from_components(t_ce, t_d, t_c, t_r)
        else:
            # A member computes only once its container is up and its chunks
            # have landed, so the last row to end is a compute or a return.
            breakdown = DelayBreakdown(t_ce, t_d, t_c, t_r, max(row[3] for row in timeline))
        deadline = self.prep.scenario.task.deadline_s
        success = breakdown.t_total_s <= deadline
        if not success and self.deadline_trace_index is not None:
            self.trace.insert(
                self.deadline_trace_index,
                TraceEvent(deadline, "source-channel", "-", "DeadlineExpired", "-"),
            )
        return SimReport(
            breakdown=breakdown,
            per_node_timeline=timeline,
            success=success,
            trace=tuple(self.trace),
        )

    def build_timeline(self, delivery_start: float) -> tuple[tuple[str, str, float, float], ...]:
        rows: list[tuple[str, str, float, float]] = []
        arrival, compute_start = self.arrival_time, self.compute_start
        compute_spans, return_spans = self.compute_spans, self.return_spans
        # Strict returns all start at the compute barrier, the last compute end.
        barrier = None
        if self.mode == STRICT_BARRIER:
            barrier = max(start + compute_spans[n] for n, start in compute_start.items())
        for node in self.prep.members:
            node_id = node.node_id
            rows.append((node_id, "establish", 0.0, self.ready_time[node_id]))
            rows.append((node_id, "deliver", delivery_start, arrival[node_id]))
            start = compute_start[node_id]
            end = start + compute_spans[node_id]
            rows.append((node_id, "compute", start, end))
            start = end if barrier is None else barrier
            end = start + return_spans[node_id]
            if end > start:
                rows.append((node_id, "return", start, end))
        return tuple(rows)


def run(scenario: Scenario | PreparedScenario, mode: str | None = None) -> SimReport:
    """Validate, elaborate and execute ``scenario`` event by event.

    ``mode`` overrides the scenario's own simulation mode. A
    :class:`Scenario` passes :func:`validate_scenario` first and raises
    :class:`ScenarioValidationError` carrying every violation; a
    :class:`PreparedScenario` skips the gate and re-elaboration, as in
    :func:`~edgeswarm.latency.analytic_scenario`, so it must come from
    :func:`prepare` of a scenario that passed.
    """
    if isinstance(scenario, PreparedScenario):
        prep = scenario
        scenario = prep.scenario
    else:
        violations = validate_scenario(scenario)
        if violations:
            raise ScenarioValidationError(violations)
        prep = None
    chosen = scenario.sim.mode if mode is None else mode
    if chosen not in SIM_MODES:
        raise ValidationError("mode", f"unknown simulation mode {_shown(chosen)}")
    if prep is None:
        prep = prepare(scenario)
    return _Engine(prep, chosen).run()


@dataclass(frozen=True)
class SweepRow:
    """One capacity point: baseline vs cooperative, plus the saving."""

    capacity_bps: float
    baseline: DelayBreakdown
    cooperative: DelayBreakdown
    savings_fraction: float


def sweep(scenario_template: Scenario, capacities_bps: Iterable[float]) -> list[SweepRow]:
    """Evaluate baseline and cooperative runs across link capacities.

    Each capacity is the per-link value from the source to one node: the
    cooperative run gives every member such a link (source channel total =
    members x capacity, inter-node link = capacity), while the baseline
    keeps the same channel total but concentrates it on the leader alone.
    The capacities are read once, so any iterable serves. Rows come back
    sorted by capacity; duplicates produce duplicate rows. An empty input,
    or a capacity other than a positive ``int`` or ``float`` finite as a
    float (``bool`` counts as neither), raises :class:`ValidationError`. The
    template passes the whole gate once, with its two rescaled capacities
    set to the first row's. A row changes only the channel, so each row
    then runs only the gate's channel rules, which name what the whole gate
    would name for that row. The first row that fails them (say, with a
    source total that overflows to ``inf``) raises
    :class:`ScenarioValidationError`, before any run. The baseline differs
    only in a group and ``k`` the gate always accepts and no other rule
    reads, so it is not gated again. Each arm is elaborated once, and each
    row runs only the engine, once per arm, through :func:`run`.
    """
    capacities = list(capacities_bps)
    if not capacities:
        raise ValidationError("capacities", "at least one capacity is required")
    for capacity in capacities:
        number = _is_int(capacity) or isinstance(capacity, float)
        if not (number and 0 < _float(capacity) < math.inf):
            got = _shown(capacity)
            raise ValidationError("capacities", f"must be positive and finite, got {got}")
    capacities.sort()
    # prepare expects a scenario the gate passed, so validate first. Rows
    # overwrite the template's source and inter-node capacities, so check
    # the first row's channel; the roster size bounds its member count,
    # which only prepare knows. A channel no row can rescale is gated as it is.
    first_row = scenario_template
    if isinstance(scenario_template.channel, ChannelModel):
        first_row = with_per_link_capacity(
            scenario_template, capacities[0], max(len(scenario_template.nodes), 1)
        )
    violations = validate_scenario(first_row)
    if violations:
        raise ScenarioValidationError(violations)
    cooperative_prep = prepare(scenario_template)
    member_count = len(cooperative_prep.members)
    function = cooperative_prep.function
    image = scenario_template.image_by_id()[function.required_image_id]
    terms = _worst_case_terms(scenario_template, function, image)
    cooperative_rows = []
    for capacity in capacities:
        cooperative_scenario = with_per_link_capacity(scenario_template, capacity, member_count)
        violations = _channel_violations(cooperative_scenario.channel, terms)
        if violations:
            raise ScenarioValidationError(violations)
        cooperative_rows.append(cooperative_scenario)
    # prepare never reads the channel, so one elaboration per arm serves every row.
    baseline_prep = prepare(as_baseline(scenario_template))
    rows: list[SweepRow] = []
    for capacity, cooperative_scenario in zip(capacities, cooperative_rows):
        baseline_scenario = replace(baseline_prep.scenario, channel=cooperative_scenario.channel)
        cooperative = run(replace(cooperative_prep, scenario=cooperative_scenario)).breakdown
        baseline = run(replace(baseline_prep, scenario=baseline_scenario)).breakdown
        if baseline.t_total_s > 0:
            savings = (baseline.t_total_s - cooperative.t_total_s) / baseline.t_total_s
        else:
            savings = 0.0
        rows.append(SweepRow(capacity, baseline, cooperative, savings))
    return rows
