"""The entry points' contract, as properties over broken inputs
(ROADMAP item 13 (a) and (c); (b) is ``test_sim.py::TestExtremeFloats``).

Inputs start from ``conftest.random_scenario``, the generator behind
``scenario_batch``, with one to three of its fields, items or sections
set to a value of the wrong class or to a finite float from anywhere in
the double range. On every such input:

(a) ``validate_scenario``, ``run`` in both modes, ``analytic_scenario``
    and ``sweep`` return, or raise only ``ScenarioValidationError`` or
    ``ValidationError``; ``cli.main`` on a written file exits 0, 1 or 2
    and prints no traceback;
(c) two calls on one input give equal ``repr``s, or the same exit code
    and output.
"""

import contextlib
import dataclasses
import io
import os
import random
import tempfile

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_scenario
from edgeswarm import cli
from edgeswarm.latency import analytic_scenario
from edgeswarm.model import ValidationError
from edgeswarm.scenario import (
    PER_NODE_OVERLAP,
    STRICT_BARRIER,
    ScenarioValidationError,
    validate_scenario,
)
from edgeswarm.sim import run, sweep


class Opaque:
    """No model class, and a fixed repr."""

    def __repr__(self):
        return "Opaque()"


# Finite floats from the least subnormal to the largest double, of
# either sign, and values of the wrong class for any place in a scenario.
EXTREME_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
MODEL_VALUES = st.one_of(st.sampled_from([None, True, 5, "x", {}, [Opaque()]]), EXTREME_FLOATS)
# The same kinds of value, as a YAML file can hold them.
FILE_VALUES = st.one_of(st.sampled_from([None, True, 5, "x", {}, [1]]), EXTREME_FLOATS)


def children(tree) -> list:
    """``(key, child)`` for each field or item of ``tree``, a scenario's
    dataclasses and tuples or a file's mappings and lists."""
    if dataclasses.is_dataclass(tree):
        return [(f.name, getattr(tree, f.name)) for f in dataclasses.fields(tree)]
    if isinstance(tree, dict):
        return list(tree.items())
    if isinstance(tree, (tuple, list)):
        return list(enumerate(tree))
    return []


def replaced(tree, path, value):
    """``tree`` with the place at ``path`` set to ``value``."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if dataclasses.is_dataclass(tree):
        return dataclasses.replace(tree, **{key: replaced(getattr(tree, key), rest, value)})
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[key] = replaced(tree[key], rest, value)
    return tuple(copy) if isinstance(tree, tuple) else copy


@st.composite
def broken(draw, tree, values):
    """``tree`` with one to three of its places set to drawn ``values``.
    Each place is found by walking down from the top and stopping at each
    level with chance 1/2, so a whole section is drawn as often as all of
    its leaves together."""
    for _ in range(draw(st.integers(1, 3))):
        path, node = (), tree
        while options := children(node):
            key, node = draw(st.sampled_from(options))
            path += (key,)
            if draw(st.booleans()):
                break
        tree = replaced(tree, path, draw(values))
    return tree


@st.composite
def broken_scenarios(draw):
    scenario = random_scenario(random.Random(draw(st.integers(0, 2**32 - 1))))
    return draw(broken(scenario, MODEL_VALUES))


@st.composite
def broken_files(draw):
    scenario = random_scenario(random.Random(draw(st.integers(0, 2**32 - 1))))
    return yaml.safe_dump(draw(broken(cli.scenario_to_dict(scenario), FILE_VALUES)))


def outcome(call) -> str:
    """The ``repr`` of what ``call()`` returns, or of the gate's error it
    raises; any other exception escapes and fails the property."""
    try:
        return repr(call())
    except (ScenarioValidationError, ValidationError) as error:
        return f"{type(error).__name__}({error})"


def cli_outcome(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestContract:
    @given(scenario=broken_scenarios(), capacities=st.one_of(
        st.just([1e6]), st.lists(MODEL_VALUES, max_size=2)
    ))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_entry_points_raise_only_gate_errors_and_repeat(self, scenario, capacities):
        for call in (
            lambda: validate_scenario(scenario),
            lambda: run(scenario, STRICT_BARRIER),
            lambda: run(scenario, PER_NODE_OVERLAP),
            lambda: analytic_scenario(scenario),
            lambda: sweep(scenario, capacities),
        ):
            assert outcome(call) == outcome(call)

    @given(text=broken_files())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_the_command_line_exits_0_1_or_2_and_repeats(self, text):
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "scenario.yaml")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            for argv in (
                ["validate", path],
                ["run", path, "--mode", STRICT_BARRIER],
                ["run", path, "--mode", PER_NODE_OVERLAP],
                ["sweep", path, "--capacities", "1000"],
            ):
                code, out, err = cli_outcome(argv)
                assert code in (0, 1, 2)
                assert "Traceback" not in err
                assert (code, out, err) == cli_outcome(argv)
