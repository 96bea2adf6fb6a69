"""Command-line front end.

Subcommands: ``validate`` (schema and invariant checks), ``run`` (one
simulation, human-readable summary), ``sweep`` (capacity sweep to CSV)
and ``fig5`` (the packaged calibrated sweep). Exit codes: 0 on success,
1 for domain or validation failures, 2 for I/O or parse problems.

Scenario files are YAML. Their schema is written down once, below, as
one table per section (``_TASK`` to ``_SCENARIO``) of ``(file key,
model field, kind)`` rows in file order; :func:`parse_scenario` and
:func:`scenario_to_dict` both walk the tables, so a new field is one
table row. A kind converts one value both ways. Sizes are megabytes and
rates kb/s at this boundary; the kinds convert them, at parse time, into
the bit and bit-per-second units the model works in (decimal
convention, 1 MB = 8x10^6 bits). Parsing is strict: unknown keys are
rejected so typos fail loudly instead of silently using a default, and
``policy.k`` is the one key that may be absent. Files are read from
libyaml's events, or through PyYAML's Python composer where the walk
falls back, so deep nesting is a parse error, not a C stack overflow.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence, TextIO

import yaml

from .model import (
    BITS_PER_MB,
    BPS_PER_KBPS,
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
    SIM_MODES,
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


# --- the file format --------------------------------------------------


class _Kind(NamedTuple):
    """How one value converts between file and model.

    ``read(value, name)`` gives the model value, or raises
    :class:`ScenarioParseError` naming the value; ``write(model value)``
    gives the file value. An ``optional`` key may be absent: the model
    field then keeps its default, and a ``None`` value is not written.
    """

    read: Callable[[Any, str], Any]
    write: Callable[[Any], Any]
    optional: bool = False


def _checked(noun: str, accepts: Callable[[Any], bool]) -> _Kind:
    """The kind of a value the model keeps as the file gives it, if ``accepts`` it."""
    def read(value: Any, name: str) -> Any:
        if not accepts(value):
            raise ScenarioParseError(f"{name}: expected {noun}, got {value!r}")
        return value

    return _Kind(read, lambda value: value)


def _read_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioParseError(f"{name}: number too large for a float") from None


def _read_size_bits(value: Any, name: str) -> int:
    """A size in MB, as whole bits; NaN, infinite or overflowing sizes are
    rejected here because no bit count can hold them."""
    bits = _read_number(value, name) * BITS_PER_MB
    if not math.isfinite(bits):
        raise ScenarioParseError(f"{name}: expected a finite size, got {value!r}")
    return round(bits)


def _plain(value: float) -> int | float:
    """Integral floats as ints, so emitted files stay tidy and stable."""
    number = float(value)
    if math.isfinite(number) and number.is_integer():
        return int(number)
    return number


def _read_list(read_item: Callable[[Any, str], Any], value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise ScenarioParseError(f"{name}: expected a list, got {type(value).__name__}")
    return [read_item(item, f"{name}[{i}]") for i, item in enumerate(value)]


_NUMBER = _Kind(_read_number, _plain)
_INTEGER = _checked("an integer", lambda value: type(value) is not bool and isinstance(value, int))
_STRING = _checked("a string", lambda value: isinstance(value, str))
_BOOLEAN = _checked("a boolean", lambda value: isinstance(value, bool))
_MEGABYTES = _Kind(_read_size_bits, lambda bits: _plain(bits / BITS_PER_MB))
_KBPS = _Kind(
    lambda value, name: _read_number(value, name) * BPS_PER_KBPS,
    lambda bps: _plain(bps / BPS_PER_KBPS),
)
_LAYER_IDS = _Kind(lambda value, name: frozenset(_read_list(_STRING.read, value, name)), sorted)
_PORTS = _Kind(lambda value, name: frozenset(_read_list(_INTEGER.read, value, name)), sorted)

# A table lists one section's (file key, model field, kind) rows in file order.
_Table = tuple[tuple[str, str, _Kind], ...]


def _read_section(value: Any, where: str, table: _Table, prefix: str) -> dict:
    """``value`` read with ``table`` as ``{model field: model value}``.

    The mapping holds every key of ``table`` but the optional ones, and no
    other. Values are read in table order and named ``prefix + key``.
    """
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{where}: expected a mapping, got {type(value).__name__}")
    unknown = set(value).difference([key for key, _, _ in table])
    if unknown:
        # YAML keys of different types do not compare, so order by type name
        # first; among strings this names the least key, as sorting does.
        first = min(unknown, key=lambda key: (type(key).__name__, str(key)))
        raise ScenarioParseError(f"{where}: unknown key {first!r}")
    for key, _, kind in table:
        if key not in value and not kind.optional:
            raise ScenarioParseError(f"{where}: missing key {key!r}")
    return {
        field: kind.read(value[key], prefix + key) for key, field, kind in table if key in value
    }


def _write_section(table: _Table, model: Any) -> dict:
    """The file mapping of ``model``'s fields, in table order."""
    tree = {}
    for key, field, kind in table:
        value = getattr(model, field)
        if not (kind.optional and value is None):
            tree[key] = kind.write(value)
    return tree


def _section(table: _Table, build: Callable[..., Any]) -> _Kind:
    """The kind of a mapping read with ``table`` into ``build(**fields)``."""
    return _Kind(
        lambda value, name: build(**_read_section(value, name, table, f"{name}.")),
        lambda model: _write_section(table, model),
    )


def _entries(table: _Table, build: Callable[..., Any]) -> _Kind:
    """The kind of a list of such mappings, read into a tuple."""
    entry = _section(table, build)
    return _Kind(
        lambda value, name: tuple(_read_list(entry.read, value, name)),
        lambda models: [entry.write(model) for model in models],
    )


def _image(image_id: str, layers: tuple[Layer, ...], rw_layer: int) -> ContainerImage:
    """The file gives an image's writable top layer by its size alone."""
    return ContainerImage(image_id, layers, Layer(f"{image_id}.rw", rw_layer, READ_WRITE))


_TASK = (
    ("duration_s", "duration_s", _NUMBER),
    ("fps", "fps", _NUMBER),
    ("width", "width_px", _INTEGER),
    ("height", "height_px", _INTEGER),
    ("size_mb", "total_size_bits", _MEGABYTES),
    ("deadline_s", "deadline_s", _NUMBER),
    ("function", "function_id", _STRING),
)
_FUNCTION = (
    ("id", "function_id", _STRING),
    ("name", "name", _STRING),
    ("per_frame_cost_wu", "per_frame_cost_wu", _NUMBER),
    ("output_ratio", "output_ratio", _NUMBER),
    ("image", "required_image_id", _STRING),
)
_LAYER = (("id", "layer_id", _STRING), ("size_mb", "size_bits", _MEGABYTES))
_IMAGE = (
    ("id", "image_id", _STRING),
    ("layers", "layers", _entries(_LAYER, Layer)),
    ("rw_layer_mb", "rw_layer", _MEGABYTES),
)
# ``ports`` is no EdgeNode field: the open ports belong to the scenario's
# SwarmNetworkConfig.
_NODE = (
    ("id", "node_id", _STRING),
    ("rate_wu_s", "compute_rate_wu_s", _NUMBER),
    ("cpu_budget", "cpu_budget_fraction", _NUMBER),
    ("memory_mb", "memory_budget_bits", _MEGABYTES),
    ("layers", "stored_layer_ids", _LAYER_IDS),
    ("startup_s", "container_startup_s", _NUMBER),
    ("ports", "ports", _PORTS),
)
_CHANNEL = (
    ("source_total_kbps", "source_channel_capacity_bps", _KBPS),
    ("internode_kbps", "internode_capacity_bps", _KBPS),
    ("server_kbps", "edge_to_server_capacity_bps", _KBPS),
)
_POLICY = (
    ("group", "group", _STRING),
    ("k", "k", _INTEGER._replace(optional=True)),
    ("split", "split", _STRING),
    ("mode", "mode", _STRING),
    ("ignore_return", "ignore_return", _BOOLEAN),
)
_SIM = (("mode", "mode", _STRING), ("seed", "seed", _INTEGER))
_SCENARIO = (
    # The file names no task id.
    ("task", "task", _section(_TASK, functools.partial(VideoTask, task_id="task"))),
    ("functions", "functions", _entries(_FUNCTION, ProcessingFunction)),
    ("images", "images", _entries(_IMAGE, _image)),
    ("nodes", "nodes", _entries(_NODE, dict)),
    ("channel", "channel", _section(_CHANNEL, ChannelModel)),
    ("policy", "policy", _section(_POLICY, ScenarioPolicy)),
    ("sim", "sim", _section(_SIM, SimSettings)),
)


def parse_scenario(data: Any) -> Scenario:
    """Build a :class:`Scenario` from a loaded YAML tree, strictly.

    Only key/type/structure problems, numbers no float can hold and
    sizes no bit count can hold (NaN, infinite) raise here
    (:class:`ScenarioParseError`); other out-of-range values parse fine
    and are reported later by validation, so a file with a bad budget
    still yields a scenario object whose violations can all be listed.
    """
    # Top-level sections are named by their key alone.
    fields = _read_section(data, "scenario", _SCENARIO, "")
    ports_open = {node["node_id"]: node.pop("ports") for node in fields["nodes"]}
    fields["nodes"] = tuple(EdgeNode(**node) for node in fields["nodes"])
    return Scenario(**fields, network=SwarmNetworkConfig(ports_open=ports_open))


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

_WALK_DEPTH = 64  # see load_scenario


def _load_yaml(handle: Any) -> Any:
    """The tree ``yaml.load(handle, Loader=_ScenarioLoader)`` gives."""
    loader = _ScenarioLoader(handle)
    get_event, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
    try:
        get_event()  # the stream's start
        if type(get_event()) is yaml.StreamEndEvent:
            return None
        # Each open collection's items, a mapping's keys and values alternating.
        stack: list = [[]]
        mappings = [False]
        # A break leaves the file to the full loader below.
        while len(stack) > 1 or not stack[0]:
            event = get_event()
            kind = type(event)
            if kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
                items = stack.pop()
                value = dict(zip(items[::2], items[1::2])) if mappings.pop() else items
                if mappings[-1] and not len(stack[-1]) % 2:
                    break  # a collection as a mapping key
            elif kind is yaml.AliasEvent or event.anchor is not None or event.tag is not None:
                break
            elif kind is yaml.ScalarEvent:
                value = event.value
                tag = resolve(yaml.ScalarNode, value, event.implicit)
                if tag != "tag:yaml.org,2002:str":
                    try:
                        value = constructors[tag](loader, yaml.ScalarNode(tag, value))
                    except Exception:  # a merge key, "=", a bad timestamp
                        break
            elif len(stack) > _WALK_DEPTH:
                break
            else:
                stack.append([])
                mappings.append(kind is yaml.MappingStartEvent)
                continue
            stack[-1].append(value)
        else:
            get_event()  # the document's end
            if type(get_event()) is yaml.StreamEndEvent:
                return stack[0][0]
    finally:
        loader.dispose()
    handle.seek(0)
    return yaml.load(handle, Loader=_ScenarioLoader)


def load_scenario(path: str) -> Scenario:
    # Binary mode lets the YAML reader pick UTF-8 or UTF-16 from the BOM
    # and name the file in its decoding errors. _load_yaml builds plain YAML
    # from parser events; an anchor, alias, tag, merge key, collection key,
    # rejected scalar, second document or nesting past _WALK_DEPTH goes to
    # yaml.load, whose composer recurses, so deep files are "nesting too
    # deep" below (libyaml alone stops at depth 1,000 with another message).
    with open(path, "rb") as handle:
        try:
            data = _load_yaml(handle)
        except RecursionError:
            raise ScenarioParseError(f"{path}: nesting too deep") from None
        # An explicit tag on a value it cannot hold (``!!int x``,
        # ``!!timestamp 2020-13-45``) fails inside PyYAML's constructor
        # with one of these instead of a YAMLError.
        except (ValueError, LookupError, AttributeError) as error:
            raise ScenarioParseError(f"{path}: {error}") from None
    return parse_scenario(data)


# --- serialization ----------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    """The YAML-ready tree for ``scenario``; inverse of parsing."""
    # Where the file and the model differ: an image's writable layer is
    # given by its size, and the ports of each node are the network's.
    images = [replace(image, rw_layer=image.rw_layer.size_bits) for image in scenario.images]
    nodes = [
        SimpleNamespace(**vars(node), ports=scenario.network.open_ports(node.node_id))
        for node in scenario.nodes
    ]
    return _write_section(_SCENARIO, replace(scenario, images=images, nodes=nodes))


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
    violations = validate_scenario(load_scenario(args.scenario))
    if violations:
        raise ScenarioValidationError(violations)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, sim=replace(scenario.sim, seed=args.seed))
    report = run(scenario, args.mode)
    # The trace goes first, so a path that cannot be written leaves stdout empty.
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            for event in report.trace:
                handle.write(event.to_line() + "\n")
    b = report.breakdown
    flag = "true" if report.success else "false"
    print(
        f"t_ce={b.t_ce_s:.2f} t_d={b.t_d_s:.2f} t_c={b.t_c_s:.2f} "
        f"t_r={b.t_r_s:.2f} total={b.t_total_s:.2f} success={flag}"
    )
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
            if not (capacity > 0 and math.isfinite(capacity * BPS_PER_KBPS)):
                raise ValidationError(
                    "capacities", f"must be positive and finite, got {piece} kb/s"
                )
            capacities.append(capacity)
    return capacities


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    capacities_kbps = _parse_capacities(args.capacities)
    rows = sweep(scenario, [c * BPS_PER_KBPS for c in capacities_kbps])
    _emit_csv(rows, args.out)
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    rows = sweep(fig5_scenario(), [c * BPS_PER_KBPS for c in FIG5_CAPACITIES_KBPS])
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
        choices=SIM_MODES,
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
    except ScenarioValidationError as error:
        print(*error.violations, sep="\n", file=sys.stderr)
        return 1
    except ValidationError as error:
        print(error, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
