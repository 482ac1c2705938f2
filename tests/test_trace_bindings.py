"""The benchmark tracer (perfbench/traced.py) must reach every library function.

It rebinds each module and class attribute that holds a public layer function
or a traced kernel method.  A function kept in a dict, a tuple or a default
argument escapes the rebinding, and its time would go uncounted; install()
lists such places, and this test requires that list to be empty.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_rebinds_every_library_function():
    code = (
        "import json, traced; "
        "print(json.dumps(traced.install(traced.Tracer())[1]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_tracer_rebinds_the_names_that_the_package_has_bound():
    """conjchern binds each export in its own namespace on first access, so a
    name read before the tracer installs is one more place to rebind: after
    install the package's name is the traced one, and only the star import's
    own copy still holds the original."""
    code = (
        "import json, traced; from conjchern import *; import conjchern; "
        "left = traced.install(traced.Tracer())[1]; "
        "print(json.dumps([left, conjchern.total_conj_chern is conjchern.chern.total_conj_chern,"
        " conjchern.total_conj_chern is total_conj_chern]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], True, False]
