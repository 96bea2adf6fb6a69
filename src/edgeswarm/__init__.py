"""Deterministic simulator and analytic latency model for cooperative
video-task offloading to edge-node swarms.

The closed-form model (:mod:`edgeswarm.latency`) and the discrete-event
engine (:mod:`edgeswarm.sim`) compute the same four-component delay
breakdown by independent means; agreement between them is part of the
test contract. Everything is seeded and pure, so identical inputs give
identical outputs on any platform. Import names from their modules;
:func:`edgeswarm.scenario.validate_scenario` decides which scenarios
they accept.
"""

from . import latency, model, policies, scenario, sim, swarmproto

__version__ = "0.1.0"
