"""Benchmark of the conjchern `verify` CLI: closed-loop, fixed-work runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload all-p3-l2 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

A workload is one `verify` invocation with fixed arguments; the benchmark's
--seed becomes the CLI's --seed.  One client runs invocations back to back,
each a fresh single-threaded child process, until the next one would end
past --seconds (at least MIN_SAMPLES of them).

--trace 0 reports the end-to-end metrics: median wall time of an invocation,
the median of each child's own peak RSS, and set-up time (median of fresh
interpreters that import `conjchern.cli` and exit).

--trace 1 alternates untraced invocations with traced ones (perfbench/traced.py,
a fresh interpreter that wraps the library layers, then calls the CLI), at
least MIN_PAIRS of each, and reports the per-layer metrics.

--workload all runs every workload untraced, then traced, and prints every
metric; it is the one command that shows the whole picture.

Every invocation passes a correctness gate (see `gate`).  An invocation
that breaks it counts all its checks as failed.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it give the quartiles, the sample counts and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "conjchern" / "cli.py"

# rep-p5-l2 is not listed in BENCHMARK.json: its wall time drifts too much
# on a small shared box to be gated (see README.md), so it runs on request.
WORKLOADS = {
    "all-p3-l2": ("--suite", "all", "--p", "3", "--l", "2"),
    "rep-p5-l2": ("--suite", "rep", "--p", "5", "--l", "2"),
    "dickson-p13-n2": ("--suite", "dickson", "--p", "13", "--n", "2"),
}
EXPECTED_CHECKS = json.loads((HERE / "expected_checks.json").read_text())

MIN_SAMPLES = 3  # untraced invocations per --trace 0 run
MIN_PAIRS = 2  # untraced + traced pairs per --trace 1 run
SETUP_SAMPLES = 11
RUN_LIMIT_S = 165.0  # a run must end inside 180 s, whatever --seconds says
MIN_COVERAGE = 0.95

REPORT_KEYS = {"suite", "params", "checks", "overall", "seed", "version"}
PARAM_KEYS = {"p", "l", "n", "threads", "trials"}
CHECK_KEYS = {"name", "status", "detail", "elapsed_ms"}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _span(trace, key):
    return trace["spans"].get(key, [0, 0, 0])


def _calls(key):
    return lambda t: _span(t, key)[0]


def _ms(key):
    return lambda t: _span(t, key)[2] / 1e6


def _self_ms(layer):
    return lambda t: t["self_ns"][layer] / 1e6


def _cache(layer, field):
    return lambda t: t["caches"][layer][field]


# name, unit, value from one trace.  cli.cpu_s and trace.overhead_s come
# from the untraced invocations of a traced run; see `run_traced`.
TRACED = (
    ("poly.mul.calls", "count", _calls("poly.Poly.__mul__")),
    ("poly.mul.ms", "ms", _ms("poly.Poly.__mul__")),
    ("poly.mul.term_pairs", "count", lambda t: t["term_pairs"]),
    ("poly.pow.ms", "ms", _ms("poly.Poly.__pow__")),
    ("poly.compose.calls", "count", _calls("poly.Poly.compose")),
    ("poly.compose.ms", "ms", _ms("poly.Poly.compose")),
    ("poly.exact_div.ms", "ms", _ms("poly.exact_div")),
    ("poly.determinant.ms", "ms", _ms("poly.determinant")),
    ("poly.self_ms", "ms", _self_ms("poly")),
    ("dickson.f_n_product.ms", "ms", _ms("dickson.f_n_product")),
    ("dickson.f_n_product.terms", "count",
     lambda t: t["terms"].get("dickson.f_n_product", 0)),
    ("dickson.dickson_c.ms", "ms", _ms("dickson.dickson_c")),
    ("dickson.gl_action.calls", "count", _calls("dickson.gl_action")),
    ("dickson.gl_action.ms", "ms", _ms("dickson.gl_action")),
    ("dickson.cache_hits", "count", _cache("dickson", "hits")),
    ("dickson.cache_misses", "count", _cache("dickson", "misses")),
    ("dickson.self_ms", "ms", _self_ms("dickson")),
    ("chern.total_conj_chern.ms", "ms", _ms("chern.total_conj_chern")),
    ("chern.total_conj_chern.terms", "count",
     lambda t: t["terms"].get("chern.total_conj_chern", 0)),
    ("chern.cache_hits", "count", _cache("chern", "hits")),
    ("chern.cache_misses", "count", _cache("chern", "misses")),
    ("chern.self_ms", "ms", _self_ms("chern")),
    ("steenrod.total_power.calls", "count", _calls("steenrod.total_power")),
    ("steenrod.total_power.ms", "ms", _ms("steenrod.total_power")),
    ("steenrod.power_op.calls", "count", _calls("steenrod.power_op")),
    ("steenrod.power_op.ms", "ms", _ms("steenrod.power_op")),
    ("steenrod.milnor_q.calls", "count", _calls("steenrod.milnor_q")),
    ("steenrod.milnor_q.top_calls", "count",
     lambda t: _span(t, "steenrod.milnor_q")[1]),
    ("steenrod.coh_mul.ms", "ms", _ms("steenrod.CohClass.__mul__")),
    ("steenrod.self_ms", "ms", _self_ms("steenrod")),
    ("cyclo.verify_weight_basis.ms", "ms", _ms("cyclo.verify_weight_basis")),
    ("cyclo.conj_act.calls", "count", _calls("cyclo.conj_act")),
    ("cyclo.conj_act.ms", "ms", _ms("cyclo.conj_act")),
    ("cyclo.kron.ms", "ms", _ms("cyclo.CycMatrix.kron")),
    ("cyclo.matrix_eq.ms", "ms", _ms("cyclo.CycMatrix.__eq__")),
    ("cyclo.self_ms", "ms", _self_ms("cyclo")),
    ("relations.verify_r_delta.ms", "ms", _ms("relations.verify_r_delta")),
    ("relations.verify_chern_r_relations.ms", "ms",
     _ms("relations.verify_chern_r_relations")),
    ("relations.self_ms", "ms", _self_ms("relations")),
    ("report.check_ms", "ms", _ms("report.timed_check")),
    ("report.unattributed_ms", "ms",
     lambda t: (t["wall_ns"] - _span(t, "report.timed_check")[2]) / 1e6),
    ("trace.coverage", "share", lambda t: t["covered_ns"] / t["wall_ns"]),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in TRACED) + (
    ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Invocation:
    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, deadline: float) -> Invocation:
    """Run argv to completion and measure it; kill it at `deadline` (perf_counter).

    The child is reaped with wait4, so its rusage is its own, not the
    maximum over earlier children that RUSAGE_CHILDREN would give.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    lock = threading.Lock()
    exited = False

    def kill():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - start, 0.0), kill)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    timer.start()
    reader.start()
    status = None
    try:
        out = proc.stdout.read()
        reader.join()
        # wait without reaping, so the timer can never signal a recycled pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            exited = True
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        if status is None:
            with lock:
                exited = True
            proc.kill()
            _, status = os.waitpid(proc.pid, 0)
            reader.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        timer.join()
    return Invocation(
        stdout=out,
        stderr=err[0] if err else b"",
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def cli_args(workload: str, seed: int) -> list:
    return [*WORKLOADS[workload], "--seed", str(seed), "--format", "json"]


def untraced_argv(workload: str, seed: int) -> list:
    return [sys.executable, "-m", "conjchern", *cli_args(workload, seed)]


def traced_argv(workload: str, seed: int) -> list:
    return [sys.executable, str(HERE / "traced.py"), *cli_args(workload, seed)]


def report_problems(data, seed: int) -> list:
    """Schema of the JSON report, as documented in the README."""
    if not isinstance(data, dict) or set(data) != REPORT_KEYS:
        return ["report keys differ from the documented schema"]
    problems = []
    if not isinstance(data["params"], dict) or set(data["params"]) != PARAM_KEYS:
        problems.append("report params differ from the documented schema")
    if data["seed"] != seed:
        problems.append(f"report seed {data['seed']!r}, expected {seed}")
    if data["overall"] != "pass":
        problems.append(f"overall is {data['overall']!r}")
    checks = data["checks"]
    if not isinstance(checks, list):
        return problems + ["checks is not a list"]
    for c in checks:
        if not isinstance(c, dict) or set(c) != CHECK_KEYS:
            problems.append("a check differs from the documented schema")
            break
        if c["status"] not in ("pass", "fail", "skipped") or c["elapsed_ms"] != 0:
            problems.append(f"check {c['name']!r} has a bad status or elapsed_ms")
    names = [c.get("name") for c in checks if isinstance(c, dict)]
    if len(set(names)) != len(names):
        problems.append("duplicate check names")
    return problems


def gate(inv: Invocation, workload: str, seed: int, reference: bytes | None):
    """Return (attempted, failed, problems) for one invocation.

    Passing needs exit code 0, the documented schema with overall pass,
    every expected check present and PASS (any extra one PASS too), and
    stdout byte-identical to the run's first invocation.
    """
    expected = EXPECTED_CHECKS[workload]
    problems = []
    if inv.returncode != 0:
        problems.append(f"exit code {inv.returncode}")
    statuses = {}
    try:
        data = json.loads(inv.stdout)
    except ValueError:
        problems.append("stdout is not a JSON report")
    else:
        problems += report_problems(data, seed)
        if not problems:
            statuses = {c["name"]: c["status"] for c in data["checks"]}
    if reference is not None and inv.stdout != reference:
        problems.append("stdout differs from the run's first report at this seed")
    names = set(expected) | set(statuses)
    bad = sorted(n for n in names if statuses.get(n) != "pass")
    if bad:
        problems.append(f"{len(bad)} checks not PASS, e.g. {bad[0]}")
    failed = len(names) if problems else 0
    return len(names), failed, problems


def read_trace(inv: Invocation) -> tuple:
    lines = inv.stderr.decode(errors="replace").strip().splitlines()
    try:
        trace = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, ["traced child wrote no trace"]
    problems = []
    if trace["still_bound"]:
        problems.append(f"unwrapped references: {trace['still_bound'][:5]}")
    if Path(trace["module_file"]).resolve() != CLI_FILE.resolve():
        problems.append(f"traced child imported {trace['module_file']}")
    coverage = trace["covered_ns"] / trace["wall_ns"]
    if coverage < MIN_COVERAGE:
        problems.append(f"trace coverage {coverage:.3f} < {MIN_COVERAGE}")
    return trace, problems


def count_values(trace) -> dict:
    return {name: get(trace) for name, unit, get in TRACED if unit == "count"}


class Tally:
    """Checks attempted and failed, and the problems seen, over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, failed: int, problems, label: str):
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{label}: {p}" for p in problems]


def setup_times(deadline: float, tally: Tally) -> list:
    """Wall time of fresh interpreters that import conjchern.cli and exit."""
    probe = [
        sys.executable,
        "-c",
        "import sys, conjchern.cli; sys.stdout.write(conjchern.cli.__file__)",
    ]
    times = []
    for k in range(SETUP_SAMPLES + 1):  # the first one may write bytecode caches
        inv = spawn(probe, deadline)
        ok = inv.returncode == 0 and Path(inv.stdout.decode()).resolve() == CLI_FILE.resolve()
        if not ok:
            tally.problems.append(f"setup probe failed: {inv.stderr.decode()[-300:]}")
            break
        if k:
            times.append(inv.wall_s)
    return times


def loop(step, seconds: float, minimum: int, deadline: float) -> None:
    """Call step() until the next call would end past `seconds`, at least `minimum` times."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds and done >= minimum:
            return
        if now + (now - t0) > deadline:
            return


def run_untraced(workload: str, seed: int, seconds: float, deadline: float):
    tally = Tally()
    setups = setup_times(deadline, tally)
    invs = []
    argv = untraced_argv(workload, seed)

    def step():
        inv = spawn(argv, deadline)
        ref = invs[0].stdout if invs else None
        tally.add(*gate(inv, workload, seed, ref), f"untraced #{len(invs) + 1}")
        invs.append(inv)

    loop(step, seconds, MIN_SAMPLES, deadline)
    if not setups:
        tally.failed = tally.attempted
    samples = {
        "wall_s": [i.wall_s for i in invs],
        "peak_rss_mb": [i.peak_rss_mb for i in invs],
        "setup_s": setups or [0.0],
    }
    return tally, samples


def run_traced(workload: str, seed: int, seconds: float, deadline: float):
    tally = Tally()
    plain, traced, traces = [], [], []
    counts = None

    def step():
        nonlocal counts
        inv = spawn(untraced_argv(workload, seed), deadline)
        ref = plain[0].stdout if plain else None
        tally.add(*gate(inv, workload, seed, ref), f"untraced #{len(plain) + 1}")
        plain.append(inv)

        inv = spawn(traced_argv(workload, seed), deadline)
        label = f"traced #{len(traced) + 1}"
        attempted, failed, problems = gate(inv, workload, seed, plain[0].stdout)
        trace, trace_problems = read_trace(inv)
        problems += trace_problems
        if trace is not None:
            if counts is None:
                counts = count_values(trace)
            elif count_values(trace) != counts:
                problems.append("exact counts differ from the first traced invocation")
            traces.append(trace)
        tally.add(attempted, attempted if problems else failed, problems, label)
        traced.append(inv)

    loop(step, seconds, MIN_PAIRS, deadline)
    samples = {name: [get(t) for t in traces] for name, _, get in TRACED}
    samples["cli.cpu_s"] = [i.cpu_s for i in plain]
    samples["trace.overhead_s"] = [
        median([i.wall_s for i in traced]) - median([i.wall_s for i in plain])
    ]
    samples["wall_s.untraced"] = [i.wall_s for i in plain]
    samples["wall_s.traced"] = [i.wall_s for i in traced]
    return tally, samples


def median(values) -> float:
    """Median, or 0.0 for a run that produced no sample (its gate has failed)."""
    return statistics.median(values) if values else 0.0


def describe(name: str, unit: str, values) -> str:
    line = f"  {name:<40} {median(values):>14.4f} {unit}"
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"   q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"
    return line


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """One run: print its table, return (tally, metrics as {name: (value, unit)})."""
    if trace:
        tally, samples = run_traced(workload, seed, seconds, deadline)
        wanted = PER_LAYER
        argv = traced_argv(workload, seed)
    else:
        tally, samples = run_untraced(workload, seed, seconds, deadline)
        wanted = END_TO_END
        argv = untraced_argv(workload, seed)
    mode = "traced" if trace else "untraced"
    print(f"workload {workload}  seed {seed}  {mode}: {' '.join(argv[1:])}")
    metrics = {}
    for name, unit in wanted:
        values = samples[name]
        metrics[name] = (median(values), unit)
        print(describe(name, unit, values))
    if trace:
        for name in ("wall_s.untraced", "wall_s.traced"):
            print(describe(name, "s", samples[name]))
    print("samples " + json.dumps({k: samples[k] for k in sorted(samples)}))
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'check_fail_rate':<40} {rate:>14.4f} share"
          f"   {tally.failed} of {tally.attempted} checks")
    for problem in tally.problems:
        print(f"  GATE {problem}", file=sys.stderr)
    return tally, metrics


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "conjchern").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(args, names) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "load_avg_at_start": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": {
            w: {"untraced": untraced_argv(w, args.seed)[1:],
                "traced": ["perfbench/traced.py", *cli_args(w, args.seed)]}
            for w in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    if not CLI_FILE.is_file():
        print(f"no conjchern sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit, so `spawn` kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    prov = provenance(args, list(WORKLOADS) if args.workload == "all" else [args.workload])
    total = Tally()
    metrics = {}
    if args.workload == "all":
        for workload in WORKLOADS:
            for trace in (False, True):
                deadline = time.perf_counter() + RUN_LIMIT_S
                tally, found = measure(workload, args.seed, args.seconds, trace, deadline)
                total.add(tally.attempted, tally.failed, tally.problems, workload)
                metrics.update({f"{workload}/{k}": v for k, v in found.items()})
    else:
        deadline = time.perf_counter() + RUN_LIMIT_S
        tally, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline
        )
        total.add(tally.attempted, tally.failed, tally.problems, args.workload)
        if args.trace:
            prov["trace_overhead_s"] = metrics["trace.overhead_s"][0]

    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": total.failed == 0 and not total.problems and total.attempted > 0,
        "attempted": max(total.attempted, 1),
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
