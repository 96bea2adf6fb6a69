"""Traced passes: spans around each layer's public calls, from outside.

The program carries no timing hooks. During a traced pass the benchmark
swaps each layer's public functions, as the calling modules see them,
for wrappers that open a span, and restores the originals afterwards.
Spans stay in memory (name, start, end, parent, op) and are written out
once the run ends. The same pass run without wrappers gives the
untraced time, so the difference is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import replace

import yaml

from workloads import Workload, result_key

# (module, attribute, span): every name a caller resolves at call time.
PATCHES = (
    ("yaml", "safe_load", "cli.yaml_load"),
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "write_sweep_csv", "cli.emit"),
    ("cli", "validate_scenario", "sim.validate"),
    ("sim", "validate_scenario", "sim.validate"),
    ("cli", "run", "sim.run"),
    ("sim", "run", "sim.run"),
    ("cli", "sweep", "sim.sweep"),
    ("sim", "sweep", "sim.sweep"),
    ("scenario", "prepare", "scenario.prepare"),
    ("sim", "prepare", "scenario.prepare"),
    ("latency", "prepare", "scenario.prepare"),
    ("latency", "analytic_scenario", "latency.analytic"),
    ("latency", "container_establish_time", "latency.establish"),
    ("latency", "delivery_time", "latency.delivery"),
    ("latency", "compute_time", "latency.compute"),
    ("latency", "result_return_time", "latency.return"),
)

# metric -> (span name, names of child spans whose time is subtracted).
# Values are milliseconds per traced pass.
TIMES = {
    "cli.yaml_load_ms": ("cli.yaml_load", ()),
    "cli.parse_scenario_ms": ("cli.parse_scenario", ()),
    "cli.emit_ms": ("cli.emit", ()),
    "sim.validate_ms": ("sim.validate", ()),
    "scenario.prepare_ms": ("scenario.prepare", ()),
    "swarmproto.join_ms": ("swarmproto.join", ()),
    "swarmproto.deploy_ms": ("swarmproto.deploy", ()),
    "model.split_ms": ("model.split", ()),
    "policies.form_group_ms": ("policies.form_group", ()),
    "policies.assign_ms": ("policies.assign", ()),
    "policies.plan_query_ms": ("policies.plan_query", ()),
    "latency.analytic_ms": ("latency.analytic", ("scenario.prepare",)),
    "latency.establish_ms": ("latency.establish", ()),
    "latency.delivery_ms": ("latency.delivery", ()),
    "latency.compute_ms": ("latency.compute", ()),
    "latency.return_ms": ("latency.return", ()),
    "sim.run_ms": ("sim.run", ()),
    "sim.engine_ms": ("sim.run", ("sim.validate", "scenario.prepare")),
    "sim.sweep_ms": ("sim.sweep", ()),
}

# Trace labels with any "[...]" suffix stripped; anything else is "other".
EVENT_LABELS = (
    "InitSwarm", "JoinRequest", "JoinAccepted", "DeployService", "LayerTransfer",
    "LayerFlowCompleted", "ChunkDelivered", "FlowRateRecomputed", "ComputeCompleted",
    "PhaseBarrierReached", "ResultUploaded", "DeadlineExpired",
)
COUNTS = (
    "sim.trace_events",
    *(f"sim.events.{label}" for label in EVENT_LABELS),
    "sim.events.other",
    "policies.members",
    "policies.plan_entries",
    "swarmproto.pullers",
    "model.chunks",
    "trace.ops",
    "trace.spans",
)

class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self.open: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.digest = hashlib.sha256()

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0, 0, self.open[-1] if self.open else -1, self.op]
        self.open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self.open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def note_result(self, key) -> None:
        self.digest.update(repr(key).encode())

    def note_report(self, report) -> None:
        self.counts["sim.trace_events"] += len(report.trace)
        for event in report.trace:
            label = event.label.split("[", 1)[0]
            bucket = label if label in EVENT_LABELS else "other"
            self.counts[f"sim.events.{bucket}"] += 1
            self.digest.update(event.to_line().encode())

    def note_input(self, stream) -> None:
        if isinstance(stream, str):
            size = len(stream.encode())
        else:
            size = os.fstat(stream.fileno()).st_size
        self.counts["cli.input_bytes"] += size

    def layer_times_ms(self) -> dict[str, float]:
        total: Counter = Counter()
        children: Counter = Counter()  # (parent span name, child name) -> ns
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[(self.spans[parent][0], name)] += end - start
        return {
            metric: (total[span] - sum(children[(span, c)] for c in minus)) / 1e6
            for metric, (span, minus) in TIMES.items()
        }

    def unrecorded(self) -> list[str]:
        """Spans a per-layer time is read from that this pass never opened."""
        seen = {record[0] for record in self.spans}
        needed = {name for span, minus in TIMES.values() for name in (span, *minus)}
        return sorted(needed - seen)

    def count_values(self) -> dict[str, int]:
        counts = {name: self.counts[name] for name in COUNTS}
        counts["trace.spans"] = len(self.spans)
        return counts


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass

    def note_result(self, key) -> None:
        pass


def _wrapper(tracer: Tracer, fn, span: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span):
            result = fn(*args, **kwargs)
        if span == "sim.run":
            tracer.note_report(result)
        elif span == "cli.yaml_load":
            tracer.note_input(args[0])
        return result

    return traced


@contextlib.contextmanager
def patched(es, tracer: Tracer):
    """Route every call listed in PATCHES through ``tracer`` meanwhile.

    Yields one problem per PATCHES target the program no longer has: its
    span would silently read 0, or its time move into its caller's."""
    modules = {"yaml": yaml, **vars(es)}
    saved, missing = [], []
    try:
        for module_name, attr, span in PATCHES:
            module = modules[module_name]
            if not hasattr(module, attr):
                missing.append(f"tracing: {module_name}.{attr} is gone, so {span} is not timed")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(tracer, original, span))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def replay_prepare(es, tracer, scenario, prep) -> list[str]:
    """Redo ``prepare``'s steps one public call at a time, each in a span,
    and report every way the result differs from ``prep``."""
    p, proto = es.policies, es.swarmproto
    function = scenario.function_by_id()[scenario.task.function_id]
    images = scenario.image_by_id()
    image = images[function.required_image_id]
    node_map = scenario.node_by_id()
    policy = scenario.policy
    with tracer.span("policies.form_group"):
        shape = p.form_group(
            scenario.nodes, p.GroupFormationPolicy(kind=policy.group, k=policy.k), image
        )
    with tracer.span("swarmproto.join"):
        swarm, token = proto.init_swarm(
            node_map[shape.leader_id], scenario.network, scenario.sim.seed
        )
        for worker_id in shape.worker_ids:
            swarm = proto.join_swarm(swarm, node_map[worker_id], token, scenario.network)
    members = tuple(node_map[m] for m in swarm.member_ids)
    with tracer.span("model.split"):
        if policy.mode == p.MULTICAST:
            chunks = es.model.split_task(scenario.task, 1)
        elif policy.split == p.SPLIT_RATE_WEIGHTED:
            chunks = es.model.split_task(
                scenario.task, len(members), policy="weighted",
                weights=[node.effective_rate_wu_s for node in members],
            )
        else:
            chunks = es.model.split_task(scenario.task, len(members))
    with tracer.span("policies.assign"):
        plan = p.assign_subtasks(chunks, swarm, node_map, split=policy.split, mode=policy.mode)
    service = proto.ServiceSpec(
        service_name=f"svc-{function.function_id}",
        function_id=function.function_id,
        image_id=image.image_id,
        cpu_budget_fraction=min(node.cpu_budget_fraction for node in members),
        memory_budget_bits=min(node.memory_budget_bits for node in members),
    )
    swarm = replace(swarm, service=service)
    with tracer.span("swarmproto.deploy"):
        transfer_plans = tuple(proto.deploy_service(swarm, service, node_map, images))
    with tracer.span("policies.plan_query"):
        for node in members:
            plan.frames_assigned_to(node.node_id)
            plan.input_bits_for(node.node_id)

    tracer.count("policies.members", len(members))
    tracer.count("policies.plan_entries", len(plan.entries))
    tracer.count("swarmproto.pullers", sum(1 for _, layers, _ in transfer_plans if layers))
    tracer.count("model.chunks", len(chunks))
    return [
        f"replayed prepare differs in {name}"
        for name, got, want in (
            ("members", members, prep.members),
            ("chunks", tuple(chunks), prep.chunks),
            ("plan", plan, prep.plan),
            ("transfer plans", transfer_plans, prep.transfer_plans),
            ("service", service, prep.service),
            ("swarm", swarm, prep.swarm),
        )
        if got != want
    ]


def probe_layers(es, tracer, scenario, text: str) -> list[str]:
    """Drive every layer once on one of the workload's scenarios: load and
    parse it from YAML, prepare and replay it, evaluate the closed forms on
    the prepared input, sweep one capacity and emit the CSV."""
    es.cli.parse_scenario(yaml.safe_load(text))
    prep = es.scenario.prepare(scenario)
    problems = replay_prepare(es, tracer, scenario, prep)
    es.latency.analytic_scenario(prep)
    rows = es.sim.sweep(scenario, [scenario.channel.internode_capacity_bps])
    es.cli.write_sweep_csv(rows, io.StringIO())
    return problems


def run_pass(es, wl: Workload, tracer, texts: list[str]):
    """One traced or untraced pass: the workload's op cycle, then one
    layer probe per scenario. Returns (op outputs, failed ops, problems)."""
    outputs, failed, problems = [], 0, []
    for op, (label, call) in enumerate(wl.ops):
        tracer.op = op
        tracer.count("trace.ops", 1)
        try:
            with tracer.span("op"):
                out = call()
        except Exception as error:  # an op that raises counts as failed
            outputs.append(None)
            failed += 1
            problems.append(f"{label}: raised {error!r}")
            continue
        outputs.append(out)
        tracer.note_result(result_key(out))
    for i, (scenario, text) in enumerate(zip(wl.scenarios, texts)):
        tracer.op = len(wl.ops) + i
        with tracer.span("probe"):
            problems += probe_layers(es, tracer, scenario, text)
    return outputs, failed, problems


def traced_run(es, wl: Workload, seconds: float):
    """Alternate traced and untraced passes until ``seconds`` have passed
    and there are at least two traced passes and one untraced.

    Returns (metrics, attempted, failed, problems, spans by pass)."""
    texts = [es.cli.serialize_scenario(s) for s in wl.scenarios]
    traced: list[tuple[float, Tracer]] = []
    untraced: list[float] = []
    reference = None
    bad_ops: set[int] = set()
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while len(traced) < 2 or not untraced or time.perf_counter() - started < seconds:
        tracing = len(traced) <= len(untraced)
        tracer = Tracer() if tracing else NullTracer()
        began = time.perf_counter()
        with patched(es, tracer) if tracing else contextlib.nullcontext([]) as missing:
            outputs, pass_failed, pass_problems = run_pass(es, wl, tracer, texts)
        wall = time.perf_counter() - began
        pass_problems += missing
        keys = [result_key(out) for out in outputs]
        if reference is None:
            reference = keys
            if not pass_failed:
                flagged = wl.check(outputs, False)
                bad_ops = {op for op, _ in flagged}
                pass_problems += [f"{wl.ops[op][0]}: {message}" for op, message in flagged]
                if not wl.check(outputs, True):
                    pass_problems.append("self-test: the output check missed a wrong value")
        for op, (key, want) in enumerate(zip(keys, reference)):
            if outputs[op] is not None and (op in bad_ops or key != want):
                pass_failed += 1
                if op not in bad_ops:
                    pass_problems.append(f"{wl.ops[op][0]}: output differs from the first pass")
        attempted += len(wl.ops)
        failed += pass_failed
        problems += pass_problems
        if tracing:
            traced.append((wall, tracer))
        else:
            untraced.append(wall)

    first = traced[0][1]
    for _, other in traced[1:]:
        if other.count_values() != first.count_values():
            problems.append("determinism: two traced passes gave different counts")
        if other.digest.digest() != first.digest.digest():
            problems.append("determinism: two traced passes gave different trace digests")

    problems += [f"tracing: no {name} span was recorded" for name in first.unrecorded()]

    per_pass = [tracer.layer_times_ms() for _, tracer in traced]
    metrics: dict[str, float] = {
        name: statistics.median(times[name] for times in per_pass) for name in TIMES
    }
    counts = first.count_values()
    metrics["sim.us_per_event"] = (
        metrics["sim.engine_ms"] * 1e3 / counts["sim.trace_events"]
        if counts["sim.trace_events"] else 0.0
    )
    metrics["cli.input_kb"] = first.counts["cli.input_bytes"] / 1e3
    metrics.update(counts)
    metrics["sim.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["trace.overhead_ms"] = (
        statistics.median(wall for wall, _ in traced) - statistics.median(untraced)
    ) * 1e3
    spans = [tracer.spans for _, tracer in traced]
    return metrics, attempted, failed, problems, spans
