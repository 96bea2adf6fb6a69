import math
import random

import pytest

from edgeswarm.model import (
    READ_ONLY,
    READ_WRITE,
    ChannelModel,
    ContainerImage,
    EdgeNode,
    Layer,
    ProcessingFunction,
    VideoTask,
)
from edgeswarm.scenario import Scenario, ScenarioPolicy, SimSettings


def random_scenario(rng: random.Random) -> Scenario:
    """One valid random scenario: up to 6 nodes, up to 12 chunks.

    Chunk count is the member count for unicast and 1 for multicast, so
    the bound holds by construction. Every knob that changes code paths
    (group policy, split, delivery mode, ignored return, startup costs,
    zero-size tasks) is exercised with some probability.
    """
    n_nodes = rng.randint(1, 6)
    n_ro = rng.randint(1, 3)
    ro_layers = tuple(
        Layer(f"app.l{i}", rng.randrange(0, 2_000_001), READ_ONLY) for i in range(n_ro)
    )
    rw_layer = Layer("app.rw", rng.randrange(0, 4_000_001), READ_WRITE)
    image = ContainerImage("app", ro_layers, rw_layer)
    ro_ids = [layer.layer_id for layer in ro_layers]

    holders = set(rng.sample(range(n_nodes), rng.randint(1, n_nodes)))
    nodes = []
    for i in range(n_nodes):
        if i in holders:
            stored = set(ro_ids)
            if rng.random() < 0.3:
                stored.add(rw_layer.layer_id)
        else:
            stored = set(rng.sample(ro_ids, rng.randrange(0, n_ro)))
        nodes.append(
            EdgeNode(
                node_id=f"n{i}",
                compute_rate_wu_s=rng.uniform(5.0, 200.0),
                cpu_budget_fraction=rng.uniform(0.1, 1.0),
                memory_budget_bits=rng.randrange(10**9, 10**11),
                stored_layer_ids=frozenset(stored),
                container_startup_s=rng.choice([0.0, rng.uniform(0.0, 3.0)]),
            )
        )

    if rng.random() < 0.1:
        duration_s, fps, size_bits = 0.0, 0.0, 0
    else:
        duration_s = rng.uniform(1.0, 120.0)
        fps = rng.choice([24.0, 30.0, rng.uniform(1.0, 60.0)])
        size_bits = rng.randrange(1, 50_000_001)
    task = VideoTask(
        task_id="t",
        duration_s=duration_s,
        fps=fps,
        width_px=rng.choice([640, 1280, 1920]),
        height_px=rng.choice([360, 618, 1080]),
        total_size_bits=size_bits,
        deadline_s=rng.choice([math.inf, rng.uniform(1.0, 500.0)]),
        function_id="fn",
    )
    function = ProcessingFunction(
        function_id="fn",
        name="random function",
        per_frame_cost_wu=rng.choice([0.0, rng.uniform(0.05, 5.0)]),
        output_ratio=rng.uniform(0.0, 0.3),
        required_image_id="app",
    )
    group = rng.choice(["all_available", "top_k", "leader_only"])
    policy = ScenarioPolicy(
        group=group,
        k=rng.randint(1, n_nodes + 2) if group == "top_k" else None,
        split=rng.choice(["equal", "rate_weighted"]),
        mode=rng.choice(["unicast", "multicast"]),
        ignore_return=rng.random() < 0.5,
    )
    channel = ChannelModel(
        source_channel_capacity_bps=rng.uniform(1e5, 5e6),
        internode_capacity_bps=rng.uniform(1e5, 5e6),
        edge_to_server_capacity_bps=rng.uniform(1e5, 5e6),
    )
    return Scenario(
        task=task,
        functions=(function,),
        images=(image,),
        nodes=tuple(nodes),
        channel=channel,
        policy=policy,
        sim=SimSettings(mode="strict_barrier", seed=rng.randrange(2**31)),
    )


def scenario_batch(seed: int, count: int) -> list[Scenario]:
    rng = random.Random(seed)
    return [random_scenario(rng) for _ in range(count)]


def swarm_scenario(
    seed: int, n_nodes: int, split: str = "rate_weighted", mode: str = "unicast"
) -> Scenario:
    """A large swarm with result return on: effective rates spread from 4
    to 200 wu/s and about a tenth of the nodes hold the image. With the
    default rate-weighted unicast split there are enough frames that most
    nodes' chunks differ in size."""
    rng = random.Random(seed)
    ro_layers = tuple(Layer(f"app.l{i}", rng.randrange(1, 10**8), READ_ONLY) for i in range(3))
    ro_ids = [layer.layer_id for layer in ro_layers]
    nodes = tuple(
        EdgeNode(
            node_id=f"n{i:04d}",
            compute_rate_wu_s=rng.uniform(20.0, 200.0),
            cpu_budget_fraction=rng.uniform(0.2, 1.0),
            memory_budget_bits=10**10,
            stored_layer_ids=frozenset(
                ro_ids if i == 0 or rng.random() < 0.1 else rng.sample(ro_ids, rng.randrange(3))
            ),
            container_startup_s=rng.uniform(0.5, 3.0),
        )
        for i in range(n_nodes)
    )
    return Scenario(
        task=VideoTask(
            task_id="task", duration_s=3000.0, fps=30.0, width_px=1920, height_px=1080,
            total_size_bits=rng.randrange(10**9, 2 * 10**9), deadline_s=600.0, function_id="fn",
        ),
        functions=(ProcessingFunction("fn", "many sizes", 1.0, 0.05, "app"),),
        images=(ContainerImage("app", ro_layers, Layer("app.rw", 10**6, READ_WRITE)),),
        nodes=nodes,
        channel=ChannelModel(
            source_channel_capacity_bps=2e8,
            internode_capacity_bps=1e9,
            edge_to_server_capacity_bps=2e7,
        ),
        policy=ScenarioPolicy(split=split, mode=mode, ignore_return=False),
        sim=SimSettings(seed=rng.randrange(2**31)),
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xED6E)
