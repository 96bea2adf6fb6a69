"""Command-line front end.

Subcommands: ``validate`` (schema and invariant checks), ``run`` (one
simulation, human-readable summary), ``sweep`` (capacity sweep to CSV)
and ``fig5`` (the packaged calibrated sweep). Exit codes: 0 on success,
1 for domain or validation failures, 2 for I/O or parse problems.

Scenario files are YAML. Sizes are megabytes and rates kb/s at this
boundary; they are converted once, at parse time, into the bit and
bit-per-second units the model works in (decimal convention, 1 MB =
8x10^6 bits). Parsing is strict: unknown keys are rejected so typos
fail loudly instead of silently using a default. Files are read with
libyaml's event parser under PyYAML's Python composer, so a deeply
nested file ends in a parse error instead of overflowing the C stack.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from typing import Any, Mapping, Sequence, TextIO

import yaml

from .model import (
    BITS_PER_MB,
    BPS_PER_KBPS,
    READ_ONLY,
    READ_WRITE,
    ChannelModel,
    ContainerImage,
    EdgeNode,
    Layer,
    ProcessingFunction,
    ValidationError,
    VideoTask,
)
from .scenario import (
    Scenario,
    ScenarioPolicy,
    ScenarioValidationError,
    SimSettings,
    fig5_scenario,
    validate_scenario,
)
from .sim import SweepRow, run, sweep
from .swarmproto import SwarmNetworkConfig

CSV_HEADER = (
    "capacity_kbps,base_tce,base_td,base_tc,base_tr,base_total,"
    "coop_tce,coop_td,coop_tc,coop_tr,coop_total,savings"
)

FIG5_CAPACITIES_KBPS = tuple(float(k) for k in range(100, 1001, 100))


class ScenarioParseError(Exception):
    """A scenario file is structurally malformed (keys or types)."""


# --- strict YAML tree reading -----------------------------------------


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _sequence(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _keys(section: Mapping, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ScenarioParseError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ScenarioParseError(f"{where}: missing key {missing[0]!r}")


def _number(section: Mapping, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{where}.{key}: expected a number, got {value!r}")
    return value


def _integer(section: Mapping, key: str, where: str) -> int:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _string(section: Mapping, key: str, where: str) -> str:
    value = section[key]
    if not isinstance(value, str):
        raise ScenarioParseError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def _boolean(section: Mapping, key: str, where: str) -> bool:
    value = section[key]
    if not isinstance(value, bool):
        raise ScenarioParseError(f"{where}.{key}: expected a boolean, got {value!r}")
    return value


def _size_bits(section: Mapping, key: str, where: str) -> int:
    """A size in MB, as whole bits; NaN, infinite or overflowing sizes are
    rejected here because no bit count can hold them."""
    bits = _number(section, key, where) * BITS_PER_MB
    if not math.isfinite(bits):
        raise ScenarioParseError(f"{where}.{key}: expected a finite size, got {section[key]!r}")
    return round(bits)


def _kbps_to_bps(kbps: float) -> float:
    return kbps * BPS_PER_KBPS


def parse_scenario(data: Any) -> Scenario:
    """Build a :class:`Scenario` from a loaded YAML tree, strictly.

    Only key/type/structure problems and sizes no bit count can hold
    (NaN, infinite) raise here (:class:`ScenarioParseError`); other
    out-of-range values parse fine and are reported later by validation,
    so a file with a bad budget still yields a scenario object whose
    violations can all be listed.
    """
    root = _mapping(data, "scenario")
    _keys(root, "scenario", ("task", "functions", "images", "nodes", "channel", "policy", "sim"))

    section = _mapping(root["task"], "task")
    _keys(
        section,
        "task",
        ("duration_s", "fps", "width", "height", "size_mb", "deadline_s", "function"),
    )
    task = VideoTask(
        task_id="task",
        duration_s=_number(section, "duration_s", "task"),
        fps=_number(section, "fps", "task"),
        width_px=_integer(section, "width", "task"),
        height_px=_integer(section, "height", "task"),
        total_size_bits=_size_bits(section, "size_mb", "task"),
        deadline_s=_number(section, "deadline_s", "task"),
        function_id=_string(section, "function", "task"),
    )

    functions = []
    for i, raw in enumerate(_sequence(root["functions"], "functions")):
        where = f"functions[{i}]"
        entry = _mapping(raw, where)
        _keys(entry, where, ("id", "name", "per_frame_cost_wu", "output_ratio", "image"))
        functions.append(
            ProcessingFunction(
                function_id=_string(entry, "id", where),
                name=_string(entry, "name", where),
                per_frame_cost_wu=_number(entry, "per_frame_cost_wu", where),
                output_ratio=_number(entry, "output_ratio", where),
                required_image_id=_string(entry, "image", where),
            )
        )

    images = []
    for i, raw in enumerate(_sequence(root["images"], "images")):
        where = f"images[{i}]"
        entry = _mapping(raw, where)
        _keys(entry, where, ("id", "layers", "rw_layer_mb"))
        image_id = _string(entry, "id", where)
        layers = []
        for j, raw_layer in enumerate(_sequence(entry["layers"], f"{where}.layers")):
            layer_where = f"{where}.layers[{j}]"
            layer = _mapping(raw_layer, layer_where)
            _keys(layer, layer_where, ("id", "size_mb"))
            layers.append(
                Layer(
                    layer_id=_string(layer, "id", layer_where),
                    size_bits=_size_bits(layer, "size_mb", layer_where),
                    kind=READ_ONLY,
                )
            )
        images.append(
            ContainerImage(
                image_id=image_id,
                layers=tuple(layers),
                rw_layer=Layer(
                    layer_id=f"{image_id}.rw",
                    size_bits=_size_bits(entry, "rw_layer_mb", where),
                    kind=READ_WRITE,
                ),
            )
        )

    nodes = []
    ports_open: dict[str, frozenset[int]] = {}
    for i, raw in enumerate(_sequence(root["nodes"], "nodes")):
        where = f"nodes[{i}]"
        entry = _mapping(raw, where)
        _keys(
            entry,
            where,
            ("id", "rate_wu_s", "cpu_budget", "memory_mb", "layers", "startup_s", "ports"),
        )
        node_id = _string(entry, "id", where)
        stored = []
        for j, layer_id in enumerate(_sequence(entry["layers"], f"{where}.layers")):
            if not isinstance(layer_id, str):
                raise ScenarioParseError(
                    f"{where}.layers[{j}]: expected a string, got {layer_id!r}"
                )
            stored.append(layer_id)
        ports = []
        for j, port in enumerate(_sequence(entry["ports"], f"{where}.ports")):
            if isinstance(port, bool) or not isinstance(port, int):
                raise ScenarioParseError(f"{where}.ports[{j}]: expected an integer, got {port!r}")
            ports.append(port)
        nodes.append(
            EdgeNode(
                node_id=node_id,
                compute_rate_wu_s=_number(entry, "rate_wu_s", where),
                cpu_budget_fraction=_number(entry, "cpu_budget", where),
                memory_budget_bits=_size_bits(entry, "memory_mb", where),
                stored_layer_ids=frozenset(stored),
                container_startup_s=_number(entry, "startup_s", where),
            )
        )
        ports_open[node_id] = frozenset(ports)

    section = _mapping(root["channel"], "channel")
    _keys(section, "channel", ("source_total_kbps", "internode_kbps", "server_kbps"))
    channel = ChannelModel(
        source_channel_capacity_bps=_kbps_to_bps(_number(section, "source_total_kbps", "channel")),
        internode_capacity_bps=_kbps_to_bps(_number(section, "internode_kbps", "channel")),
        edge_to_server_capacity_bps=_kbps_to_bps(_number(section, "server_kbps", "channel")),
    )

    section = _mapping(root["policy"], "policy")
    _keys(section, "policy", ("group", "split", "mode", "ignore_return"), optional=("k",))
    policy = ScenarioPolicy(
        group=_string(section, "group", "policy"),
        k=_integer(section, "k", "policy") if "k" in section else None,
        split=_string(section, "split", "policy"),
        mode=_string(section, "mode", "policy"),
        ignore_return=_boolean(section, "ignore_return", "policy"),
    )

    section = _mapping(root["sim"], "sim")
    _keys(section, "sim", ("mode", "seed"))
    sim_settings = SimSettings(
        mode=_string(section, "mode", "sim"),
        seed=_integer(section, "seed", "sim"),
    )

    return Scenario(
        task=task,
        functions=tuple(functions),
        images=tuple(images),
        nodes=tuple(nodes),
        channel=channel,
        policy=policy,
        sim=sim_settings,
        network=SwarmNetworkConfig(ports_open=ports_open),
    )


if yaml.__with_libyaml__:

    class _ScenarioLoader(
        yaml.cyaml.CParser,
        yaml.composer.Composer,
        yaml.constructor.SafeConstructor,
        yaml.resolver.Resolver,
    ):
        """``yaml.SafeLoader`` with libyaml doing the scanning and parsing.

        Composing stays in Python: libyaml's composer recurses in C and
        overflows the C stack on deeply nested input, while the Python one
        raises ``RecursionError``.
        """

        # CParser brings its own composer and comes first in the MRO.
        get_single_node = yaml.composer.Composer.get_single_node

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
            yaml.constructor.SafeConstructor.__init__(self)
            yaml.resolver.Resolver.__init__(self)

else:
    _ScenarioLoader = yaml.SafeLoader


def load_scenario(path: str) -> Scenario:
    # Binary mode lets the YAML reader pick UTF-8 or UTF-16 from the BOM
    # and name the file in its decoding errors.
    with open(path, "rb") as handle:
        try:
            data = yaml.load(handle, Loader=_ScenarioLoader)
        except RecursionError:
            raise ScenarioParseError(f"{path}: nesting too deep") from None
        # An explicit tag on a value it cannot hold (``!!int x``,
        # ``!!timestamp 2020-13-45``) fails inside PyYAML's constructor
        # with one of these instead of a YAMLError.
        except (ValueError, LookupError, AttributeError) as error:
            raise ScenarioParseError(f"{path}: {error}") from None
    return parse_scenario(data)


# --- serialization ----------------------------------------------------


def _plain(value: float) -> int | float:
    """Integral floats as ints, so emitted files stay tidy and stable."""
    number = float(value)
    if math.isfinite(number) and number.is_integer():
        return int(number)
    return number


def scenario_to_dict(scenario: Scenario) -> dict:
    """The YAML-ready tree for ``scenario``; inverse of parsing."""
    task = scenario.task
    return {
        "task": {
            "duration_s": _plain(task.duration_s),
            "fps": _plain(task.fps),
            "width": task.width_px,
            "height": task.height_px,
            "size_mb": _plain(task.total_size_bits / BITS_PER_MB),
            "deadline_s": _plain(task.deadline_s) if math.isfinite(task.deadline_s) else task.deadline_s,
            "function": task.function_id,
        },
        "functions": [
            {
                "id": fn.function_id,
                "name": fn.name,
                "per_frame_cost_wu": _plain(fn.per_frame_cost_wu),
                "output_ratio": _plain(fn.output_ratio),
                "image": fn.required_image_id,
            }
            for fn in scenario.functions
        ],
        "images": [
            {
                "id": image.image_id,
                "layers": [
                    {"id": layer.layer_id, "size_mb": _plain(layer.size_bits / BITS_PER_MB)}
                    for layer in image.layers
                ],
                "rw_layer_mb": _plain(image.rw_layer.size_bits / BITS_PER_MB),
            }
            for image in scenario.images
        ],
        "nodes": [
            {
                "id": node.node_id,
                "rate_wu_s": _plain(node.compute_rate_wu_s),
                "cpu_budget": _plain(node.cpu_budget_fraction),
                "memory_mb": _plain(node.memory_budget_bits / BITS_PER_MB),
                "layers": sorted(node.stored_layer_ids),
                "startup_s": _plain(node.container_startup_s),
                "ports": sorted(scenario.network.open_ports(node.node_id)),
            }
            for node in scenario.nodes
        ],
        "channel": {
            "source_total_kbps": _plain(scenario.channel.source_channel_capacity_bps / BPS_PER_KBPS),
            "internode_kbps": _plain(scenario.channel.internode_capacity_bps / BPS_PER_KBPS),
            "server_kbps": _plain(scenario.channel.edge_to_server_capacity_bps / BPS_PER_KBPS),
        },
        "policy": {
            "group": scenario.policy.group,
            **({"k": scenario.policy.k} if scenario.policy.k is not None else {}),
            "split": scenario.policy.split,
            "mode": scenario.policy.mode,
            "ignore_return": scenario.policy.ignore_return,
        },
        "sim": {"mode": scenario.sim.mode, "seed": scenario.sim.seed},
    }


def serialize_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False)


# --- CSV --------------------------------------------------------------


def write_sweep_csv(rows: Sequence[SweepRow], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for row in rows:
        base, coop = row.baseline, row.cooperative
        values = (
            row.capacity_bps / BPS_PER_KBPS,
            base.t_ce_s, base.t_d_s, base.t_c_s, base.t_r_s, base.t_total_s,
            coop.t_ce_s, coop.t_d_s, coop.t_c_s, coop.t_r_s, coop.t_total_s,
            row.savings_fraction,
        )
        out.write(",".join(f"{value:.6g}" for value in values) + "\n")


def _emit_csv(rows: Sequence[SweepRow], out_path: str | None) -> None:
    if out_path is None:
        write_sweep_csv(rows, sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            write_sweep_csv(rows, handle)


# --- subcommands ------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    violations = validate_scenario(scenario)
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, sim=replace(scenario.sim, seed=args.seed))
    try:
        report = run(scenario, args.mode)
    except ScenarioValidationError as error:
        for violation in error.violations:
            print(violation, file=sys.stderr)
        return 1
    except ValidationError as error:
        print(error, file=sys.stderr)
        return 1
    b = report.breakdown
    flag = "true" if report.success else "false"
    print(
        f"t_ce={b.t_ce_s:.2f} t_d={b.t_d_s:.2f} t_c={b.t_c_s:.2f} "
        f"t_r={b.t_r_s:.2f} total={b.t_total_s:.2f} success={flag}"
    )
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in report.trace:
                handle.write(event.to_line() + "\n")
    return 0


def _parse_capacities(raw_values: Sequence[str]) -> list[float]:
    """Capacities in kb/s. A value that is not positive, or not finite
    once converted to bit/s, is named as typed, in kb/s."""
    capacities = []
    for raw in raw_values:
        for piece in raw.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                capacity = float(piece)
            except ValueError:
                raise ValidationError("capacities", f"not a number: {piece!r}") from None
            if not (capacity > 0 and math.isfinite(_kbps_to_bps(capacity))):
                raise ValidationError(
                    "capacities", f"must be positive and finite, got {piece} kb/s"
                )
            capacities.append(capacity)
    return capacities


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    try:
        capacities_kbps = _parse_capacities(args.capacities)
        rows = sweep(scenario, [_kbps_to_bps(c) for c in capacities_kbps])
    except (ValidationError, ScenarioValidationError) as error:
        print(error, file=sys.stderr)
        return 1
    _emit_csv(rows, args.out)
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    rows = sweep(fig5_scenario(), [_kbps_to_bps(c) for c in FIG5_CAPACITIES_KBPS])
    _emit_csv(rows, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``edgeswarm`` argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged, so every call shares it.
    """
    parser = argparse.ArgumentParser(
        prog="edgeswarm",
        description="Simulate cooperative video-task offloading to an edge-node swarm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and list every violation")
    p.add_argument("scenario", help="scenario YAML file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("run", help="simulate one scenario and print the delay breakdown")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument(
        "--mode",
        choices=("strict_barrier", "per_node_overlap"),
        default=None,
        help="override the scenario's phase model",
    )
    p.add_argument("--seed", type=int, default=None, help="override the scenario's RNG seed")
    p.add_argument("--trace", default=None, help="write the event trace to this file")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="baseline vs cooperative CSV across link capacities")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument(
        "--capacities",
        nargs="+",
        required=True,
        help="per-link capacities in kb/s (space or comma separated)",
    )
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("fig5", help="run the packaged calibrated capacity sweep")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(handler=cmd_fig5)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    except (yaml.YAMLError, ScenarioParseError) as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
