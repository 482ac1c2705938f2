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
