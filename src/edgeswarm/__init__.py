"""Deterministic simulator and analytic latency model for cooperative
video-task offloading to edge-node swarms.

The closed-form model (:mod:`edgeswarm.latency`) and the discrete-event
engine (:mod:`edgeswarm.sim`) compute the same four-component delay
breakdown by independent means; agreement between them is part of the
test contract. Everything is seeded and pure, so identical inputs give
identical outputs on any platform.
"""

from .latency import (
    DelayBreakdown,
    analytic_scenario,
    compute_time,
    container_establish_time,
    delivery_time,
    result_return_time,
    waterfill_completions,
)
from .model import (
    BITS_PER_MB,
    BPS_PER_KBPS,
    ChannelModel,
    ContainerImage,
    EdgeNode,
    Layer,
    ProcessingFunction,
    ValidationError,
    VideoChunk,
    VideoTask,
    make_task,
    proportional_shares,
    split_task,
)
from .policies import (
    Assignment,
    AssignmentPlan,
    GroupFormationPolicy,
    NoImageHolderError,
    Swarm,
    assign_subtasks,
    form_group,
    select_leader,
)
from .scenario import (
    PreparedScenario,
    Scenario,
    ScenarioPolicy,
    SimSettings,
    fig5_scenario,
    prepare,
)
from .sim import (
    ScenarioValidationError,
    SimReport,
    SweepRow,
    run,
    sweep,
    validate_scenario,
)
from .swarmproto import (
    ServiceSpec,
    SwarmNetworkConfig,
    SwarmNodeMachine,
    deploy_service,
    derive_join_token,
    init_swarm,
    join_swarm,
    plan_layer_transfer,
)

__version__ = "0.1.0"

__all__ = [
    "BITS_PER_MB",
    "BPS_PER_KBPS",
    "Assignment",
    "AssignmentPlan",
    "ChannelModel",
    "ContainerImage",
    "DelayBreakdown",
    "EdgeNode",
    "GroupFormationPolicy",
    "Layer",
    "NoImageHolderError",
    "PreparedScenario",
    "ProcessingFunction",
    "Scenario",
    "ScenarioPolicy",
    "ScenarioValidationError",
    "ServiceSpec",
    "SimReport",
    "SimSettings",
    "Swarm",
    "SwarmNetworkConfig",
    "SwarmNodeMachine",
    "SweepRow",
    "ValidationError",
    "VideoChunk",
    "VideoTask",
    "analytic_scenario",
    "assign_subtasks",
    "compute_time",
    "container_establish_time",
    "delivery_time",
    "deploy_service",
    "derive_join_token",
    "fig5_scenario",
    "form_group",
    "init_swarm",
    "join_swarm",
    "make_task",
    "plan_layer_transfer",
    "prepare",
    "proportional_shares",
    "result_return_time",
    "run",
    "select_leader",
    "split_task",
    "sweep",
    "validate_scenario",
    "waterfill_completions",
]
