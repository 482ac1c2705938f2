"""The benchmark's correctness gate, run on every workload BENCHMARK.json names.

perfbench/run.py refuses a run whose output is wrong: a nonzero exit, a
report off the documented schema, an expected check that is not PASS, traced
output that differs from untraced, a library function the tracer could not
wrap, or trace coverage below its minimum.  This test runs one untraced and
one traced invocation per workload through that gate, so a change that would
fail it fails here first, naming the condition.
"""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 7


def load_run():
    """perfbench/run.py as a module; its dataclass needs it in sys.modules."""
    name = "perfbench_run"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


# Trace coverage is a share of wall time, so a scheduling stall outside the
# library can push one short run below the minimum.  dickson-p13-n2 has the
# least library time: over traced runs at seed 12 on a 2-core box its
# coverage had a median of 0.992 (lowest 0.988, 118 runs) before the
# gl-invariance trials shared a substitution memo, and of 0.980 (lowest
# 0.973, 157 runs) with it.  Deciding gl-invariance over every elementary
# matrix put it at 0.974 (seed 7, 254 runs; 251 above 0.963, and three
# stalls at 0.879-0.937).  A coverage shortfall alone is retried, up to
# COVERAGE_TRIES traced runs; every other problem fails at once.
COVERAGE_TRIES = 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_the_benchmark_gate(workload):
    run = load_run()
    deadline = time.perf_counter() + 120
    plain = run.spawn(run.untraced_argv(workload, SEED), deadline)
    _, _, problems = run.gate(plain, workload, SEED, None)
    assert problems == [], plain.stderr.decode()[-2000:]
    for _ in range(COVERAGE_TRIES):
        traced = run.spawn(run.traced_argv(workload, SEED), deadline)
        _, _, problems = run.gate(traced, workload, SEED, plain.stdout)
        _, trace_problems = run.read_trace(traced)
        problems += trace_problems
        if not problems or any(not p.startswith("trace coverage") for p in problems):
            break
    assert problems == [], traced.stderr.decode()[-2000:]
