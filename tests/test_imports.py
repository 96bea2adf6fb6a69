import os
import subprocess
import sys
from pathlib import Path

import edgeswarm

# Re-importing the package must let earlier copies go: nothing
# module-level may hand a class to a process-wide cache (such as the
# one ``typing`` keeps for subscriptions like ``Union[...]``).
REIMPORT_SCRIPT = """
import gc
import importlib
import sys
import weakref


def fresh_package():
    for name in [m for m in sys.modules if m == "edgeswarm" or m.startswith("edgeswarm.")]:
        del sys.modules[name]
    return importlib.import_module("edgeswarm")


# The classes to watch, as "module.Class" arguments.
package = fresh_package()
first = [
    weakref.ref(getattr(getattr(package, module), name))
    for module, name in (arg.split(".") for arg in sys.argv[1:])
]
del package
for _ in range(3):
    fresh_package()
gc.collect()
print(" ".join("alive" if ref() is not None else "released" for ref in first))
"""


def classes_alive_after_reimport(*classes: str) -> list[str]:
    # A subprocess, so this session's own modules are never swapped.
    package_root = str(Path(edgeswarm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", REIMPORT_SCRIPT, *classes],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.split()


def test_reimported_package_releases_earlier_copies():
    assert classes_alive_after_reimport("policies.AssignmentPlan") == ["released"]


def test_reimported_package_releases_protocol_records():
    # NamedTuple classes, the trace record and the protocol messages, build
    # their fields through typing; nothing there may keep the first copies
    # alive.
    watched = ("swarmproto.TraceEvent", "swarmproto.JoinRequest", "swarmproto.LayerTransfer")
    assert classes_alive_after_reimport(*watched) == ["released"] * len(watched)
