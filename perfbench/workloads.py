"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload is a fixed cycle of operations built from ``--seed``.
The program is handed only the generated inputs; nothing here edits it.
An operation is a zero-argument callable whose result is compared with
the result of the same operation in a reference cycle, and that
reference cycle is itself checked against independent expectations
(the fig5 CSV digest and anchors, analytic/simulated agreement).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

MODULES = ("model", "policies", "swarmproto", "latency", "scenario", "sim", "cli")

STRICT = "strict_barrier"
OVERLAP = "per_node_overlap"

FIG5_YAML = Path("scenarios") / "fig5.yaml"
FIG5_CAPACITIES_KBPS = ",".join(str(k) for k in range(100, 1001, 100))
# Output of `edgeswarm fig5` at the initial commit; `sweep` over the same
# capacities on scenarios/fig5.yaml prints the identical CSV.
FIG5_CSV_SHA256 = "df8cf951db8782439d02fa52c9c323156411031d1c5c69f5e5b744c8c899a4d1"
FIG5_ANCHORS = {"100": "0.0436253", "1000": "0.370017"}
FIG5_RUN_LINES = {
    STRICT: "t_ce=2.00 t_d=15.04 t_c=29.10 t_r=0.00 total=46.14 success=true\n",
    OVERLAP: "t_ce=2.00 t_d=15.04 t_c=29.10 t_r=0.00 total=44.14 success=true\n",
}

CROSSCHECK_SCENARIOS = 200
# 1,000 nodes would match the ROADMAP ladder, but its ops take about
# 0.5 s, so a 30 s run holds only about 60 of them. At 250 nodes a run
# holds about 750, while the per-node plan queries still cost about as
# much as the rest of a unicast run.
SWARM_NODES = 250
COMBOS = tuple(
    (group, split, mode, ignore_return)
    for group in ("all_available", "top_k", "leader_only")
    for split in ("equal", "rate_weighted")
    for mode in ("unicast", "multicast")
    for ignore_return in (True, False)
)


def load_program() -> SimpleNamespace:
    """Import every edgeswarm module afresh and return them by short name.

    Earlier imports are dropped from ``sys.modules`` first, so each call
    pays the full import cost the way a new process does (bytecode
    caches aside). PyYAML stays imported: it is a dependency, not part of
    the program under test.
    """
    for name in [m for m in sys.modules if m == "edgeswarm" or m.startswith("edgeswarm.")]:
        del sys.modules[name]
    importlib.import_module("edgeswarm")
    return SimpleNamespace(
        **{name: importlib.import_module(f"edgeswarm.{name}") for name in MODULES}
    )


@dataclass
class Workload:
    name: str
    # Percentile of all op times reported as op_tail_ms. p99 leaves 40 or
    # more ops beyond it in a 30 s run of fig5-cli or crosscheck. swarm
    # runs 550-800 ops, and its p95 and above moved by 30 % run to run
    # with host load, so it reports p80.
    tail_q: float
    ops: list[tuple[str, Callable[[], Any]]]
    scenarios: list  # in-memory scenarios the traced pass probes layer by layer
    # check(outputs, inject_wrong) -> [(op index, problem)]. With
    # inject_wrong one expected value is deliberately wrong, and the check
    # must object.
    check: Callable[[list, bool], list[tuple[int, str]]]


def result_key(out: Any) -> Any:
    """What must repeat exactly when an operation is run again."""
    if isinstance(out, tuple):
        return tuple(result_key(item) for item in out)
    if hasattr(out, "trace"):
        return (out.breakdown, out.success, len(out.trace))
    return out


# --- checks -------------------------------------------------------------


def fig5_csv_problems(text: str, anchors: dict[str, str] = FIG5_ANCHORS) -> list[str]:
    problems = []
    rows = {line.split(",")[0]: line.split(",") for line in text.splitlines()[1:]}
    for capacity, want in anchors.items():
        got = rows.get(capacity, [None])[-1]
        if got != want:
            problems.append(f"fig5 savings at {capacity} kb/s: got {got}, want {want}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != FIG5_CSV_SHA256:
        problems.append(f"fig5 CSV digest {digest} differs from {FIG5_CSV_SHA256}")
    return problems


def agreement_problems(analytic, strict, overlap) -> list[str]:
    """Strict simulation equals the closed forms per component within 1e-9,
    and the overlap makespan is never above the strict total."""
    problems = []
    names = ("t_ce", "t_d", "t_c", "t_r", "total")
    pairs = zip(names, analytic.components() + (analytic.t_total_s,),
                strict.components() + (strict.t_total_s,))
    for name, a, s in pairs:
        if not math.isclose(a, s, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"analytic {name}={a!r} != strict {s!r}")
    if not overlap.t_total_s <= strict.t_total_s * (1 + 1e-12) + 1e-9:
        problems.append(f"overlap total {overlap.t_total_s!r} > strict {strict.t_total_s!r}")
    return problems


def _skewed(breakdown):
    """A wrong expected value: t_c one part in a million too large."""
    return replace(breakdown, t_c_s=breakdown.t_c_s * (1 + 1e-6) + 1e-6)


# --- fig5-cli -----------------------------------------------------------


def cli_call(es, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = es.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fig5_cli(es, seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    path = str(root / FIG5_YAML)
    # The seed only picks the join-token seeds, which no reported figure
    # depends on; the file itself is the packaged experiment.
    argvs = [
        ["run", path, "--mode", STRICT, "--seed", str(rng.randrange(2**31))],
        ["run", path, "--mode", OVERLAP, "--seed", str(rng.randrange(2**31))],
        ["validate", path],
        ["sweep", path, "--capacities", FIG5_CAPACITIES_KBPS],
        ["fig5"],
    ]
    ops = [(argv[0] + (f":{argv[3]}" if argv[0] == "run" else ""),
            lambda argv=argv: cli_call(es, argv)) for argv in argvs]

    def check(outputs: list, inject_wrong: bool) -> list[tuple[int, str]]:
        problems = []
        for op, want in enumerate((
            (0, FIG5_RUN_LINES[STRICT], ""),
            (0, FIG5_RUN_LINES[OVERLAP], ""),
            (0, "", ""),
        )):
            if outputs[op] != want:
                problems.append((op, f"got {outputs[op]!r}, want {want!r}"))
        anchors = dict(FIG5_ANCHORS, **({"100": "0.0436254"} if inject_wrong else {}))
        for op in (3, 4):
            code, csv, err = outputs[op]
            if code != 0 or err:
                problems.append((op, f"exit {code}, stderr {err!r}"))
            problems += [(op, p) for p in fig5_csv_problems(csv, anchors)]
        return problems

    fig5 = es.cli.load_scenario(path)
    return Workload("fig5-cli", 0.99, ops, [fig5], check)


# --- crosscheck -----------------------------------------------------------


def crosscheck_scenario(es, rng: random.Random, index: int):
    """Scenario ``index`` of the batch: 1-6 nodes, with every knob that
    changes the amount of work (group policy and k, split, delivery mode,
    result return, holder count, deadline, zero-size task) cycled by index,
    so each seed's batch costs about the same; sizes, rates and which nodes
    hold which layers are drawn from ``rng``."""
    m = es.model
    n_nodes = 1 + index % 6
    group, split, mode, ignore_return = COMBOS[(index // 6) % len(COMBOS)]
    ro_layers = tuple(
        m.Layer(f"app.l{i}", rng.randrange(0, 2_000_001), m.READ_ONLY)
        for i in range(rng.randint(1, 3))
    )
    ro_ids = [layer.layer_id for layer in ro_layers]
    rw_layer = m.Layer("app.rw", rng.randrange(0, 4_000_001), m.READ_WRITE)
    holders = set(rng.sample(range(n_nodes), 1 + (index // 2) % n_nodes))
    nodes = []
    for i in range(n_nodes):
        if i in holders:
            stored = set(ro_ids) | ({rw_layer.layer_id} if rng.random() < 0.3 else set())
        else:
            stored = set(rng.sample(ro_ids, rng.randrange(0, len(ro_ids))))
        nodes.append(m.EdgeNode(
            node_id=f"n{i}",
            compute_rate_wu_s=rng.uniform(5.0, 200.0),
            cpu_budget_fraction=rng.uniform(0.1, 1.0),
            memory_budget_bits=rng.randrange(10**9, 10**11),
            stored_layer_ids=frozenset(stored),
            container_startup_s=rng.choice([0.0, rng.uniform(0.0, 3.0)]),
        ))
    if index % 10 == 9:  # zero-size task: no frames, no bits
        duration_s, fps, size_bits = 0.0, 0.0, 0
    else:
        duration_s = rng.uniform(1.0, 120.0)
        fps = rng.choice([24.0, 30.0, rng.uniform(1.0, 60.0)])
        size_bits = rng.randrange(1, 50_000_001)
    task = m.VideoTask(
        task_id="task", duration_s=duration_s, fps=fps,
        width_px=rng.choice([640, 1280, 1920]), height_px=rng.choice([360, 618, 1080]),
        total_size_bits=size_bits,
        deadline_s=rng.uniform(1.0, 500.0) if index % 4 < 2 else math.inf,
        function_id="fn",
    )
    function = m.ProcessingFunction(
        function_id="fn", name="generated function",
        per_frame_cost_wu=rng.choice([0.0, rng.uniform(0.05, 5.0)]),
        output_ratio=rng.uniform(0.0, 0.3), required_image_id="app",
    )
    policy = es.scenario.ScenarioPolicy(
        group=group, k=1 + (index // 3) % (n_nodes + 2) if group == "top_k" else None,
        split=split, mode=mode, ignore_return=ignore_return,
    )
    channel = m.ChannelModel(
        source_channel_capacity_bps=rng.uniform(1e5, 5e6),
        internode_capacity_bps=rng.uniform(1e5, 5e6),
        edge_to_server_capacity_bps=rng.uniform(1e5, 5e6),
    )
    return es.scenario.Scenario(
        task=task, functions=(function,), images=(m.ContainerImage("app", ro_layers, rw_layer),),
        nodes=tuple(nodes), channel=channel, policy=policy,
        sim=es.scenario.SimSettings(mode=STRICT, seed=rng.randrange(2**31)),
    )


def crosscheck(es, seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    scenarios = [crosscheck_scenario(es, rng, i) for i in range(CROSSCHECK_SCENARIOS)]

    def op(s):
        return (
            es.sim.validate_scenario(s),
            es.latency.analytic_scenario(s),
            es.sim.run(s, STRICT),
            es.sim.run(s, OVERLAP),
        )

    def check(outputs: list, inject_wrong: bool) -> list[tuple[int, str]]:
        problems = []
        for i, (violations, analytic, strict, overlap) in enumerate(outputs):
            if violations:
                problems.append((i, f"generated input is invalid: {violations}"))
            expected = _skewed(analytic) if inject_wrong and i == 0 else analytic
            problems += [
                (i, p) for p in agreement_problems(expected, strict.breakdown, overlap.breakdown)
            ]
        return problems

    ops = [(f"scenario-{i}", lambda s=s: op(s)) for i, s in enumerate(scenarios)]
    return Workload("crosscheck", 0.99, ops, scenarios, check)


# --- swarm ----------------------------------------------------------------


def swarm_scenario(es, rng: random.Random, split: str, mode: str):
    """A swarm of SWARM_NODES nodes: about 10 % image holders, the rest
    holding a random part of the read-only layers, result return on."""
    m = es.model
    ro_layers = tuple(
        m.Layer(f"app.l{i}", rng.randrange(16_000_000, 160_000_001), m.READ_ONLY)
        for i in range(4)
    )
    ro_ids = [layer.layer_id for layer in ro_layers]
    rw_layer = m.Layer("app.rw", rng.randrange(4_000_000, 16_000_001), m.READ_WRITE)
    nodes = []
    for i in range(SWARM_NODES):
        if i == 0 or rng.random() < 0.1:
            stored = set(ro_ids) | ({rw_layer.layer_id} if rng.random() < 0.3 else set())
        else:
            stored = set(rng.sample(ro_ids, rng.randrange(0, len(ro_ids))))
        nodes.append(m.EdgeNode(
            node_id=f"n{i:04d}",
            compute_rate_wu_s=rng.uniform(20.0, 200.0),
            cpu_budget_fraction=rng.uniform(0.2, 1.0),
            memory_budget_bits=rng.randrange(8 * 10**9, 64 * 10**9),
            stored_layer_ids=frozenset(stored),
            container_startup_s=rng.uniform(0.5, 3.0),
        ))
    task = m.VideoTask(
        task_id="task", duration_s=300.0, fps=30.0, width_px=1920, height_px=1080,
        total_size_bits=rng.randrange(800_000_000, 1_600_000_001), deadline_s=600.0,
        function_id="fn",
    )
    function = m.ProcessingFunction(
        function_id="fn", name="generated function", per_frame_cost_wu=1.0,
        output_ratio=0.05, required_image_id="app",
    )
    return es.scenario.Scenario(
        task=task, functions=(function,), images=(m.ContainerImage("app", ro_layers, rw_layer),),
        nodes=tuple(nodes),
        channel=m.ChannelModel(
            source_channel_capacity_bps=200e6,
            internode_capacity_bps=1e9,
            edge_to_server_capacity_bps=20e6,
        ),
        policy=es.scenario.ScenarioPolicy(split=split, mode=mode, ignore_return=False),
        sim=es.scenario.SimSettings(mode=STRICT, seed=rng.randrange(2**31)),
    )


SWARM_SHAPES = (
    ("unicast-equal", "equal", "unicast"),
    ("unicast-rate_weighted", "rate_weighted", "unicast"),
    ("multicast", "equal", "multicast"),
)


def swarm(es, seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    scenarios = [swarm_scenario(es, rng, split, mode) for _, split, mode in SWARM_SHAPES]
    # One call per op keeps ops short, so a run holds enough of them for
    # steady percentiles.
    ops = []
    for (shape, _, _), s in zip(SWARM_SHAPES, scenarios):
        ops += [
            (f"{shape}:analytic", lambda s=s: es.latency.analytic_scenario(s)),
            (f"{shape}:{STRICT}", lambda s=s: es.sim.run(s, STRICT)),
            (f"{shape}:{OVERLAP}", lambda s=s: es.sim.run(s, OVERLAP)),
        ]

    def check(outputs: list, inject_wrong: bool) -> list[tuple[int, str]]:
        problems = []
        for i in range(len(SWARM_SHAPES)):
            analytic, strict, overlap = outputs[3 * i: 3 * i + 3]
            expected = _skewed(analytic) if inject_wrong and i == 0 else analytic
            for p in agreement_problems(expected, strict.breakdown, overlap.breakdown):
                problems += [(op, p) for op in range(3 * i, 3 * i + 3)]
        return problems

    return Workload(f"swarm-{SWARM_NODES}", 0.80, ops, scenarios, check)


WORKLOADS = {"fig5-cli": fig5_cli, "crosscheck": crosscheck, f"swarm-{SWARM_NODES}": swarm}
