"""Command-line front end.

Subcommands: ``validate`` (schema and invariant checks), ``run`` (one
simulation, human-readable summary), ``sweep`` (capacity sweep to CSV)
and ``fig5`` (the packaged calibrated sweep). Exit codes: 0 on success,
1 for domain or validation failures, 2 for I/O or parse problems.

Scenario files are YAML, in the model's field tables: each section is
read and written by its class's :class:`~edgeswarm.model.Table`, whose
columns give the file keys in file order, so a new field is one
``column`` in its model class. A key's unit suffix converts its value:
``_mb`` sizes are megabytes and ``_kbps`` rates kb/s in files, and bits
and bits per second in the model (decimal convention, 1 MB = 8x10^6
bits). Parsing is strict: unknown keys are rejected so typos fail loudly
instead of silently using a default, and ``policy.k`` is the one key that
may be absent. Files are read from libyaml's events, or through PyYAML's
Python composer where the walk falls back, so deep nesting is a parse
error, not a C stack overflow.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Callable, Sequence, TextIO

import yaml

from .model import (
    BITS_PER_MB,
    BPS_PER_KBPS,
    INTEGER,
    LAYER_IDS,
    READ_WRITE,
    STRING,
    ContainerImage,
    EdgeNode,
    Layer,
    Rule,
    Table,
    ValidationError,
    VideoTask,
)
from .scenario import (
    SCENARIO,
    SIM_MODES,
    Scenario,
    ScenarioValidationError,
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


def _read_number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioParseError(f"{name}: number too large for a float") from None


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


def _image(image_id: str, layers: tuple[Layer, ...], rw_layer: int) -> ContainerImage:
    """The file gives an image's writable top layer by its size alone."""
    return ContainerImage(image_id, layers, Layer(f"{image_id}.rw", rw_layer, READ_WRITE))


# How a file section builds its model, where not as the class itself: the
# file names no task id and gives an image's writable layer by its size,
# and parse_scenario moves each node's ports to the network settings.
_BUILD: dict[type, Callable[..., Any]] = {
    VideoTask: functools.partial(VideoTask, task_id="task"),
    ContainerImage: _image,
    EdgeNode: dict,
    Scenario: dict,
}
# A node's open ports, which the network settings keep, so no model
# column states them and the gate checks them there; what each set holds.
_PORTS = Rule(frozenset, (frozenset,), lambda value: None)
_SETS = {LAYER_IDS: STRING, _PORTS: INTEGER}


@functools.cache
def _file_rows(table: Table) -> list[tuple[str, str, Any, str]]:
    """``table``'s (file key, attribute, rule, unit) rows in file order; a
    key's unit suffix, ``_mb`` or ``_kbps``, is its unit (else "")."""
    columns = [(key, name, rule) for key, name, rule, _ in table.rows if key is not None]
    if table.cls is EdgeNode:
        columns.append(("ports", "ports", _PORTS))
    rows = []
    for key, name, rule in columns:
        unit = "_mb" if key.endswith("_mb") else "_kbps" if key.endswith("_kbps") else ""
        rows.append((key, name, rule, unit))
    return rows


def _read(unit: str, rule: Any, value: Any, name: str) -> Any:
    """The model value of a file value in ``unit``, else of ``rule``'s class."""
    if unit == "_mb":
        # A size in whole bits: no bit count holds a NaN or infinite one.
        bits = _read_number(value, name) * BITS_PER_MB
        if not math.isfinite(bits):
            raise ScenarioParseError(f"{name}: expected a finite size, got {value!r}")
        return round(bits)
    if unit == "_kbps":
        return _read_number(value, name) * BPS_PER_KBPS
    if type(rule) is Rule:
        if rule.reads is float:
            return _read_number(value, name)
        if rule.reads is frozenset:
            return frozenset(_read_list(functools.partial(_read, "", _SETS[rule]), value, name))
        if isinstance(value, rule.reads) and (type(value) is not bool or rule.reads is bool):
            return value
        noun = {int: "an integer", str: "a string", bool: "a boolean"}[rule.reads]
        raise ScenarioParseError(f"{name}: expected {noun}, got {value!r}")
    if type(rule) is Table:
        return _read_section(rule, value, name, f"{name}.")
    return tuple(
        _read_list(lambda item, at: _read_section(rule.table, item, at, f"{at}."), value, name)
    )


def _read_section(table: Table, value: Any, where: str, prefix: str) -> Any:
    """The model of the file mapping ``value``, which holds every key of
    ``table`` (but one whose rule admits ``None``) and no other. Values
    are read in file order and named ``prefix + key``."""
    rows = _file_rows(table)
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{where}: expected a mapping, got {type(value).__name__}")
    unknown = set(value).difference([row[0] for row in rows])
    if unknown:
        # YAML keys of different types do not compare, so order by type name
        # first; among strings this names the least key, as sorting does.
        first = min(unknown, key=lambda key: (type(key).__name__, str(key)))
        raise ScenarioParseError(f"{where}: unknown key {first!r}")
    for key, _, rule, _ in rows:
        if key not in value and type(None) not in rule.exact:
            raise ScenarioParseError(f"{where}: missing key {key!r}")
    fields = {
        name: _read(unit, rule, value[key], prefix + key)
        for key, name, rule, unit in rows
        if key in value
    }
    return _BUILD.get(table.cls, table.cls)(**fields)


def _write(unit: str, rule: Any, value: Any) -> Any:
    """The file value of a model value; inverse of :func:`_read`."""
    if unit:
        return _plain(value / (BITS_PER_MB if unit == "_mb" else BPS_PER_KBPS))
    if type(rule) is Rule:
        if rule.reads is float:
            return _plain(value)
        return sorted(value) if rule.reads is frozenset else value
    if type(rule) is Table:
        return _write_section(rule, value)
    return [_write_section(rule.table, item) for item in value]


def _write_section(table: Table, model: Any) -> dict:
    """The file mapping of ``model``, in file order; a ``None`` that a
    rule admits is left out."""
    tree = {}
    for key, name, rule, unit in _file_rows(table):
        value = getattr(model, name)
        if value is not None or type(None) not in rule.exact:
            tree[key] = _write(unit, rule, value)
    return tree


def parse_scenario(data: Any) -> Scenario:
    """Build a :class:`Scenario` from a loaded YAML tree, strictly.

    Only key/type/structure problems, numbers no float can hold and
    sizes no bit count can hold (NaN, infinite) raise here
    (:class:`ScenarioParseError`); other out-of-range values parse fine
    and are reported later by validation, so a file with a bad budget
    still yields a scenario object whose violations can all be listed.
    """
    # Top-level sections are named by their key alone.
    fields = _read_section(SCENARIO, data, "scenario", "")
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
    return _write_section(SCENARIO, replace(scenario, images=images, nodes=nodes))


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
