"""Randomized protocol schedules shared by the protocol and acceptance suites.

Each trace drives a roster of node machines with legitimate traffic
only, but reordered, duplicated and sometimes carrying a wrong join
code. Responses (accept/reject, layer payloads) are injected only when
a machine actually emitted the triggering message, so nothing is forged
and the token-soundness invariant is genuinely checkable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from edgeswarm.model import READ_ONLY, READ_WRITE, ContainerImage, Layer
from edgeswarm.swarmproto import (
    DeployService,
    InitSwarm,
    JoinAccepted,
    JoinRejected,
    JoinRequest,
    LayerRequest,
    LayerTransfer,
    ServiceSpec,
    TraceEvent,
    derive_join_token,
    handle_message,
)
from oracles import layer_difference

PHASES_SEEN_AS_JOINED = ("member", "transferring_layers", "container_ready")


@dataclass
class NodeStepper:
    """One node stepped through :func:`handle_message`, tracing every
    delivered message, no-ops included."""

    node_id: str
    missing_layer_ids: tuple[str, ...]
    join_token: str
    state: str = "idle"
    trace: list[TraceEvent] = field(default_factory=list)

    def handle(self, msg: object, time_s: float = 0.0) -> list[object]:
        old = self.state
        self.state, emitted = handle_message(
            old, msg, node_id=self.node_id, missing_layer_ids=self.missing_layer_ids,
            join_token=self.join_token,
        )
        self.trace.append(
            TraceEvent(time_s, self.node_id, old, type(msg).__name__, self.state)
        )
        return emitted


@dataclass
class FuzzOutcome:
    machines: dict[str, NodeStepper]
    leader_id: str
    wrong_token_workers: set[str]
    deliveries: int


def build_image(rng: random.Random) -> ContainerImage:
    n_ro = rng.randint(1, 4)
    layers = tuple(
        Layer(f"l{i}", rng.randrange(0, 1_000_001), READ_ONLY) for i in range(n_ro)
    )
    return ContainerImage("app", layers, Layer("app.rw", rng.randrange(0, 500_001), READ_WRITE))


def run_fuzz_trace(rng: random.Random) -> FuzzOutcome:
    n = rng.randint(2, 5)
    image = build_image(rng)
    image_layer_ids = [layer.layer_id for layer in image.all_layers()]
    seed = rng.randrange(2**31)
    token = derive_join_token(seed)
    leader_id = "n0"
    ro_ids = {layer.layer_id for layer in image.layers}

    machines: dict[str, NodeStepper] = {}
    for i in range(n):
        node_id = f"n{i}"
        if node_id == leader_id:
            stored = set(ro_ids)
        else:
            stored = set(rng.sample(sorted(ro_ids), rng.randrange(0, len(ro_ids) + 1)))
            if rng.random() < 0.2:
                stored.add("app.rw")
        machines[node_id] = NodeStepper(
            node_id=node_id,
            missing_layer_ids=layer_difference(image_layer_ids, stored),
            join_token=token,
        )

    spec = ServiceSpec("svc", "fn", "app", 0.4, 10**9)
    wrong_token_workers: set[str] = set()
    pool: list[tuple[str, object]] = [(leader_id, InitSwarm(leader_id))]
    for i in range(1, n):
        node_id = f"n{i}"
        presented = token
        if rng.random() < 0.25:
            presented = "not-the-code"
            wrong_token_workers.add(node_id)
        request = JoinRequest(node_id, presented)
        pool.append((node_id, request))
        pool.append((leader_id, request))
    for node_id in machines:
        pool.append((node_id, DeployService(spec)))

    # Random duplication of scripted traffic (each at most once, so the
    # schedule always drains).
    for item in list(pool):
        if rng.random() < 0.2:
            pool.append(item)

    deliveries = 0
    duplicated_responses = 0
    while pool:
        target, msg = pool.pop(rng.randrange(len(pool)))
        emitted = machines[target].handle(msg, time_s=float(deliveries))
        deliveries += 1
        for out in emitted:
            if isinstance(out, (JoinAccepted, JoinRejected)):
                pool.append((out.node_id, out))
                if duplicated_responses < 8 and rng.random() < 0.15:
                    pool.append((out.node_id, out))
                    duplicated_responses += 1
            elif isinstance(out, LayerRequest):
                bits = sum(
                    layer.size_bits
                    for layer in image.all_layers()
                    if layer.layer_id in out.missing_layer_ids
                )
                pool.append((out.node_id, LayerTransfer(out.missing_layer_ids, bits)))
    return FuzzOutcome(machines, leader_id, wrong_token_workers, deliveries)


def check_invariants(outcome: FuzzOutcome) -> None:
    machines = outcome.machines
    leaders = [
        node_id
        for node_id, machine in machines.items()
        if machine.state == "leader_initialized" or (
            node_id == outcome.leader_id and machine.state == "container_ready"
        )
    ]
    assert leaders == [outcome.leader_id], f"leader set {leaders!r}"
    for node_id, machine in machines.items():
        phase = machine.state
        assert phase != "deploying", "deploying must be unreachable"
        for event in machine.trace:
            assert event.new_phase != "deploying"
        if node_id == outcome.leader_id:
            assert phase in ("leader_initialized", "container_ready")
            continue
        if node_id in outcome.wrong_token_workers:
            assert phase in ("idle", "joining", "rejected"), (
                f"{node_id} joined with a wrong code (phase {phase})"
            )
        else:
            assert phase in ("idle", "joining", "member", "transferring_layers",
                             "container_ready")
        if phase in PHASES_SEEN_AS_JOINED:
            assert node_id not in outcome.wrong_token_workers
