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
(members by id, layer transfers, chunk counts, flow order, and each
member's compute and return spans from the plan's per-node totals).

Per member the engine stores only what it schedules: when the container
is ready, when the last chunk lands, and the compute and return spans.
It also sums the spans of the chunk batches it schedules, from 0.0, and
reports that sum as ``t_d`` in both modes. The report derives every
other time from these: a strict compute starts at the last arrival, an
overlap one at the later of its member's ready time and last arrival,
each end is its start plus its span, strict returns start at the last
compute end, a member's delivery row runs from the delivery start (the
last ready time in strict mode, 0 in overlap) to its last arrival, and
the overlap total is the last compute or return end. It also places the
records no event makes: a strict run's from the deliver barrier on, and,
if the total misses the deadline, ``DeadlineExpired`` before the first
record at or after the deadline.

Two phase models:

``strict_barrier``
    Phases are separated by global barriers, so the component spans add
    up to the total exactly as in the closed-form model. Only members not
    yet up can have events due at the establish barrier, so the last one
    up records it and starts delivery. From the deliver barrier on nothing
    interleaves, so the engine stops there and the report lists the rest
    in phase order, then sorts it on time.

``per_node_overlap``
    Delivery starts immediately and each node begins computing as soon
    as its own container is up and its own chunks have landed.
    Components are still the longest per-node span of each phase, but
    the total is the makespan, never more than the strict total: a
    member's return ends at ``math.fsum`` of its compute start (at most
    ``t_ce + t_d``), compute span and return span, and the strict total
    is ``math.fsum`` of its four components.

Event model: one heap of ``(time_s, seq, handler, arg)`` tuples, where
``seq`` is an insertion counter, so events run in ``(time_s, seq)``
order and ties in time break by insertion order; tuples never compare
past ``seq``. The loop pops the earliest event, sets the clock to its
time and calls ``handler(time_s, arg)``, which may push further events,
never earlier than the current time. A handler that needs two values
takes them as one tuple.

The t=0 join wave: ``InitSwarm``, through the same ``on_message`` path
as later messages, and each worker's ``JoinRequest``, first to itself
and then to the leader, are delivered at once, since nothing can be due
before them. Then ``admit`` goes onto the heap at
t=0. It delivers the leader's ``JoinAccepted`` replies, pushes the
later ``DeployService`` messages in member order, and then pushes one
step at t=0 for the deploys due then (pullers, which pay their startup
after the transfer, and members with zero startup), in member order.
An overlap run whose first chunk batch lands at t=0 (a zero-size task,
say) pushes that batch before ``admit``, so it runs before the replies.

Determinism: the event order above is total, and nothing draws a random
number: the join code is a hash of the seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Iterable, NamedTuple

from .latency import DelayBreakdown
from .model import FLOAT, ChannelModel, ValidationError
from .scenario import (
    PER_NODE_OVERLAP,
    SIM_MODES,
    STRICT_BARRIER,
    PreparedScenario,
    Scenario,
    ScenarioValidationError,
    _channel_violations,
    _meets,
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

    Every handler is called as ``handler(now, arg)``; one that needs two
    values takes them as one tuple. Handlers are bound methods held only
    by heap entries, so once the heap is drained no reference cycle keeps
    a finished engine alive.
    """

    def __init__(self, prep: PreparedScenario, mode: str):
        self.prep = prep
        self.mode = mode
        self.channel = channel = prep.scenario.channel
        self.now = 0.0
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        self.trace: list[TraceEvent] = []
        self.member_map = member_map = {node.node_id: node for node in prep.members}
        transfer_layers, transfer_bits, pullers = {}, {}, 0
        for node_id, layers, bits in prep.transfer_plans:
            transfer_layers[node_id] = layers
            transfer_bits[node_id] = bits
            pullers += bits > 0
        self.transfer_layers, self.transfer_bits = transfer_layers, transfer_bits
        self.active_transfers = pullers
        self.join_token = prep.swarm.join_token
        # Each member's protocol phase, advanced by swarmproto's handlers.
        self.phases = dict.fromkeys(member_map, "idle")

        self.ready_time: dict[str, float] = {}
        plan = prep.plan
        self.entries = entries = plan.entries
        self.arrival_time: dict[str, float] = {}
        # Chunks each member awaits; a strict report lists computes in this
        # key order.
        self.pending_chunks = pending = dict.fromkeys(plan.node_ids(), 0)
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
        # The spans of the batches scheduled so far, summed from 0.0.
        self.delivery_span = 0.0

        # Each member's compute and return spans, from the plan's totals,
        # in pending_chunks' key order.
        self.compute_spans, self.return_spans = compute_spans, return_spans = {}, {}
        cost, ratio = prep.function.per_frame_cost_wu, prep.function.output_ratio
        ignore_return = prep.scenario.policy.ignore_return
        server_bps = channel.edge_to_server_capacity_bps
        for node_id in pending:
            rate = member_map[node_id].effective_rate_wu_s
            compute_spans[node_id] = plan.frames_assigned_to(node_id) * cost / rate
            output_bits = 0.0 if ignore_return else plan.input_bits_for(node_id) * ratio
            return_spans[node_id] = 0.0 if output_bits <= 0 else output_bits / server_bps

    # -- small helpers --------------------------------------------------

    def push(self, time_s: float, handler, arg=None) -> None:
        if not time_s >= self.now:
            raise AssertionError("event queue went backwards in time")
        heapq.heappush(self.heap, (time_s, next(self.seq), handler, arg))

    def note_channel(self, time_s: float, label: str) -> None:
        self.trace.append(tuple.__new__(TraceEvent, (time_s, "source-channel", "-", label, "-")))

    # -- phase logic ----------------------------------------------------
    # A delivery runs the message type's swarmproto handler, stores the
    # member's new phase and records one trace event; tuple.__new__ skips
    # the Python-level __new__ of TraceEvent and the messages, same record.

    def seed_initial_events(self) -> None:
        """Deliver the t=0 join requests and push what follows them
        (module docstring)."""
        phases, layers, token = self.phases, self.transfer_layers, self.join_token
        append, new, swarm = self.trace.append, tuple.__new__, self.prep.swarm
        leader_id = swarm.leader_id
        self.on_message(0.0, (leader_id, InitSwarm(leader_id)))
        on_request, replies = _HANDLERS[JoinRequest], []
        for worker_id in swarm.worker_ids:
            # To the worker itself, then to the leader, which replies.
            request = new(JoinRequest, (worker_id, token))
            for node_id in (worker_id, leader_id):
                old_phase = phases[node_id]
                phase, emitted = on_request(old_phase, request, node_id, layers[node_id], token)
                phases[node_id] = phase
                append(new(TraceEvent, (0.0, node_id, old_phase, "JoinRequest", phase)))
            replies += emitted
        if self.mode == PER_NODE_OVERLAP:
            # split_task always gives at least one chunk, so there is a batch.
            self.schedule_chunk_batch(0.0)
        self.push(0.0, self.admit, replies)

    def admit(self, now: float, replies: list) -> None:
        """Deliver the leader's join replies; every member has then joined,
        so deploy the service. Deploys due later go onto the heap in member
        order, then one step at ``now`` for those due now, in member order."""
        phases, layers, token = self.phases, self.transfer_layers, self.join_token
        append, new, on_accepted = self.trace.append, tuple.__new__, _HANDLERS[JoinAccepted]
        # The gate leaves no wrong join code, so every reply is a JoinAccepted.
        for reply in replies:
            node_id = reply.node_id
            old_phase = phases[node_id]
            phase, _ = on_accepted(old_phase, reply, node_id, layers[node_id], token)
            phases[node_id] = phase
            append(new(TraceEvent, (now, node_id, old_phase, "JoinAccepted", phase)))
        deploy, due, push = DeployService(self.prep.service), [], self.push
        for node in self.prep.members:
            node_id = node.node_id
            # A puller pays its startup after the transfer lands.
            when = now if layers[node_id] else now + node.container_startup_s
            if when == now:
                due.append((node_id, deploy))
            else:
                push(when, self.on_message, (node_id, deploy))
        push(now, self.on_messages, due)

    def on_messages(self, now: float, deliveries: list[tuple[str, object]]) -> None:
        for delivery in deliveries:
            self.on_message(now, delivery)

    def on_message(self, now: float, delivery: tuple[str, object]) -> None:
        """Deliver a ``(node_id, msg)`` pair and react: a member whose
        container came up is ready, and a layer request starts that
        member's layer flow."""
        node_id, msg = delivery
        phases = self.phases
        old_phase = phases[node_id]
        kind = type(msg)
        phase, emitted = _HANDLERS[kind](
            old_phase, msg, node_id, self.transfer_layers[node_id], self.join_token
        )
        phases[node_id] = phase
        record = (now, node_id, old_phase, kind.__name__, phase)
        self.trace.append(tuple.__new__(TraceEvent, record))
        if phase == "container_ready" and old_phase != "container_ready":
            self.ready_time[node_id] = now
            if self.mode == PER_NODE_OVERLAP:
                self.maybe_start_compute(now, node_id)
            elif len(self.ready_time) == len(self.prep.members):
                self.note_channel(now, "PhaseBarrierReached[establish]")
                self.schedule_chunk_batch(now)
        for out in emitted:
            if isinstance(out, LayerRequest):
                bits = self.transfer_bits[out.node_id]
                if bits > 0:
                    # Shares are static: every puller requests at deploy time.
                    share = self.channel.internode_capacity_bps / self.active_transfers
                    duration = bits / share
                else:
                    # Only zero-size layers missing; the pull occupies no link time.
                    duration = 0.0
                self.push(now + duration, self.on_layer_flow_done, out.node_id)

    def on_layer_flow_done(self, now: float, node_id: str) -> None:
        phase, new = self.phases[node_id], tuple.__new__
        self.trace.append(new(TraceEvent, (now, node_id, phase, "LayerFlowCompleted", phase)))
        transfer = new(LayerTransfer, (self.transfer_layers[node_id], self.transfer_bits[node_id]))
        startup = self.member_map[node_id].container_startup_s
        self.push(now + startup, self.on_message, (node_id, transfer))

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
        # Chunk sizes are ints and drained_bits is the last batch's size, so
        # this subtraction is exact at any size, which matters because the
        # gate bounds no task size; the first batch's, from 0.0, rounds the
        # size to a float. latency.waterfill_completions does the same.
        least = size - self.drained_bits
        live = len(order) - first
        span = least * live / self.channel.source_channel_capacity_bps
        self.delivery_span += span
        self.push(now + span, self.on_chunk_flows_done, (order[first:end], size))

    def on_chunk_flows_done(self, now: float, flows: tuple[list[int], float]) -> None:
        batch, size = flows
        self.next_flow += len(batch)
        self.drained_bits = size
        if self.next_flow < len(self.flow_order):
            self.push(now, self.note_channel, "FlowRateRecomputed")
            self.schedule_chunk_batch(now)
        phases, arrival, pending = self.phases, self.arrival_time, self.pending_chunks
        append, new, overlap = self.trace.append, tuple.__new__, self.mode == PER_NODE_OVERLAP
        for entry_index in batch:
            label = f"ChunkDelivered[{entry_index}]"
            for node_id, _ in self.entries[entry_index].node_frames:
                phase = phases[node_id]
                append(new(TraceEvent, (now, node_id, phase, label, phase)))
                arrival[node_id] = now
                pending[node_id] -= 1
                if overlap:
                    self.maybe_start_compute(now, node_id)

    def maybe_start_compute(self, now: float, node_id: str) -> None:
        # Called once when the container is up and once per chunk landed, so
        # both conditions hold together exactly once.
        if node_id in self.ready_time and self.pending_chunks[node_id] == 0:
            self.push(now + self.compute_spans[node_id], self.on_compute_done, node_id)

    def on_compute_done(self, now: float, node_id: str) -> None:
        phase = self.phases[node_id]
        record = (now, node_id, phase, "ComputeCompleted", phase)
        self.trace.append(tuple.__new__(TraceEvent, record))
        if self.return_spans[node_id] > 0:
            self.push(self.chain_end(node_id), self.on_return_done, node_id)

    def chain_end(self, node_id: str) -> float:
        """An overlap member's return end, rounded once (module docstring)."""
        start = max(self.ready_time[node_id], self.arrival_time[node_id])
        return math.fsum((start, self.compute_spans[node_id], self.return_spans[node_id]))

    def on_return_done(self, now: float, node_id: str) -> None:
        phase = self.phases[node_id]
        record = (now, node_id, phase, "ResultUploaded", phase)
        self.trace.append(tuple.__new__(TraceEvent, record))

    # -- main loop ------------------------------------------------------

    def run(self) -> SimReport:
        self.seed_initial_events()
        self.drain()
        return self.build_report()

    def drain(self) -> None:
        """Pop events in ``(time_s, seq)`` order, setting the clock to each
        one's time, until none is left."""
        heap, pop = self.heap, heapq.heappop
        while heap:
            now, _, handler, arg = pop(heap)
            self.now = now
            handler(now, arg)

    # -- reporting ------------------------------------------------------

    def build_report(self) -> SimReport:
        # Every member's container comes up once, so ready_time has
        # exactly the members' keys.
        t_ce = max(self.ready_time.values())
        # Phase spans are the durations the engine itself scheduled, not
        # timestamp differences, so a phase's length cannot pick up
        # rounding from wherever its barrier happened to sit, nor vanish
        # into a late one. Delivery is the sum of its batch spans; in
        # overlap mode, where delivery starts at 0, that is the last arrival.
        t_d = self.delivery_span
        t_c = max(self.compute_spans.values())
        t_r = max(self.return_spans.values())
        if self.mode == STRICT_BARRIER:
            # Delivery starts at the establish barrier, the last ready time,
            # and every compute at the deliver barrier, the last arrival.
            # Rounded addition is monotone, so the last compute end is that
            # start plus t_c, and the last return end the barrier plus t_r.
            start = max(self.arrival_time.values())
            barrier = start + t_c
            timeline = self.build_timeline(t_ce, start, barrier)
            # The rest of the trace in phase order, stably sorted on time.
            trace, phases, first = self.trace, self.phases, len(self.trace)
            self.note_channel(start, "PhaseBarrierReached[deliver]")
            for node_id, span in self.compute_spans.items():
                phase = phases[node_id]
                trace.append(TraceEvent(start + span, node_id, phase, "ComputeCompleted", phase))
            self.note_channel(barrier, "PhaseBarrierReached[compute]")
            for node_id, span in self.return_spans.items():
                if span > 0:
                    self.on_return_done(barrier + span, node_id)
            self.note_channel(barrier + t_r, "PhaseBarrierReached[return]")
            trace[first:] = sorted(trace[first:], key=itemgetter(0))
            breakdown = DelayBreakdown.from_components(t_ce, t_d, t_c, t_r)
        else:
            # A member computes only once its container is up and its chunks
            # have landed, so the last row to end is a compute or a return.
            timeline = self.build_timeline(0.0)
            breakdown = DelayBreakdown(t_ce, t_d, t_c, t_r, max(map(itemgetter(3), timeline)))
        deadline = self.prep.scenario.task.deadline_s
        success = breakdown.t_total_s <= deadline
        if not success:
            # Records are appended at pop times, so the trace is in time order.
            expired = TraceEvent(deadline, "source-channel", "-", "DeadlineExpired", "-")
            self.trace.insert(bisect_left(self.trace, deadline, key=itemgetter(0)), expired)
        return SimReport(
            breakdown=breakdown,
            per_node_timeline=timeline,
            success=success,
            trace=tuple(self.trace),
        )

    def build_timeline(self, delivery_start: float, compute_start=None, barrier=None) -> tuple:
        """Each member's phase rows. Given a strict run's ``compute_start``
        and compute ``barrier``, every compute starts at the one and every
        return at the other; otherwise a member computes from the later of
        its ready time and last arrival, and returns as its compute ends."""
        rows: list[tuple[str, str, float, float]] = []
        ready, arrival = self.ready_time, self.arrival_time
        compute_spans, return_spans = self.compute_spans, self.return_spans
        for node in self.prep.members:
            node_id = node.node_id
            rows.append((node_id, "establish", 0.0, ready[node_id]))
            rows.append((node_id, "deliver", delivery_start, arrival[node_id]))
            start = max(ready[node_id], arrival[node_id]) if barrier is None else compute_start
            end = start + compute_spans[node_id]
            rows.append((node_id, "compute", start, end))
            if barrier is None:
                start, end = end, self.chain_end(node_id)
            else:
                start, end = barrier, barrier + return_spans[node_id]
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


class SweepRow(NamedTuple):
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
        if not (_meets(capacity, FLOAT) and 0 < capacity < math.inf):
            got = _shown(capacity)
            raise ValidationError("capacities", f"must be positive and finite, got {got}")
    capacities.sort()
    # prepare expects a scenario the gate passed, so validate first. Rows
    # overwrite the template's source and inter-node capacities, so check
    # the first row's channel; the roster size bounds its member count,
    # which only prepare knows. A template of another shape, whose rows
    # cannot be rescaled, is gated as it is.
    first_row = scenario_template
    if (
        isinstance(scenario_template, Scenario)
        and isinstance(scenario_template.channel, ChannelModel)
        and isinstance(scenario_template.nodes, (tuple, list))
    ):
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
