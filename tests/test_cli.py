import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from conjchern import cli
from conjchern.errors import VerificationFailure
from conjchern.report import Check, VerificationReport, timed_check

from helpers import REFUSAL

SCHEMA_KEYS = {"suite", "params", "checks", "overall", "seed", "version"}
CHECK_KEYS = {"name", "status", "detail", "elapsed_ms"}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("NO_COLOR", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "conjchern", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def validate_schema(data):
    assert set(data) == SCHEMA_KEYS
    assert isinstance(data["params"], dict)
    assert data["overall"] in ("pass", "fail")
    assert isinstance(data["seed"], int)
    assert isinstance(data["version"], str)
    for check in data["checks"]:
        assert set(check) == CHECK_KEYS
        assert check["status"] in ("pass", "fail", "skipped")
        assert isinstance(check["elapsed_ms"], int)


# -- report object ----------------------------------------------------------------


def test_report_roundtrip():
    report = VerificationReport(
        suite="signs",
        params={"p": 3},
        checks=[Check("a", "pass", "fine", 0), Check("b", "skipped", "guard", 0)],
        seed=9,
    )
    assert json.loads(report.to_json()) == report.to_dict()
    assert report.overall == "pass"


def test_report_overall_fail():
    report = VerificationReport(
        suite="x", params={}, checks=[Check("a", "fail", "boom", 1)]
    )
    assert report.overall == "fail"


def test_promote_skips():
    report = VerificationReport(
        suite="x", params={}, checks=[Check("a", "skipped", "guard", 1)]
    )
    report.promote_skips()
    assert report.overall == "fail"


def test_json_is_sorted_and_lf():
    report = VerificationReport(suite="x", params={"b": 1, "a": 2}, checks=[])
    text = report.to_json()
    assert "\r" not in text
    assert text.index('"checks"') < text.index('"overall"') < text.index('"params"')


def test_cli_import_needs_no_dataclasses():
    """dataclasses pulls in inspect, ast, dis and tokenize at every start."""
    code = (
        "import sys; before = set(sys.modules); import conjchern.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


# Each start of the CLI in a fresh child: the verify arguments that run after
# `import conjchern.cli` (None: the import alone), the exit code, and the
# layer modules loaded then.  A suite imports only the layers that it uses.
LAYERS = ("poly", "dickson", "chern", "steenrod", "cyclo", "relations")
STARTS = [
    (None, None, []),
    (["--suite", "dickson", "--p", "3", "--n", "2", "--format", "json"], 0, ["dickson", "poly"]),
    (["--suite", "chern", "--p", "4"], 2, []),
]


@pytest.mark.parametrize("argv, code, loaded", STARTS)
def test_cli_loads_only_the_layers_its_suite_uses(argv, code, loaded):
    child = (
        "import contextlib, io, json, sys\n"
        "import conjchern.cli\n"
        "code = None\n"
        f"if {argv!r} is not None:\n"
        "    quiet = io.StringIO()\n"
        "    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
        "        try:\n"
        f"            code = conjchern.cli.main({argv!r})\n"
        "        except SystemExit as exit:\n"
        "            code = exit.code\n"
        f"layers = [m for m in {LAYERS!r} if 'conjchern.' + m in sys.modules]\n"
        "print(json.dumps([code, sorted(layers)]))"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, loaded]


# -- CLI behavior -------------------------------------------------------------------


def test_signs_suite_exits_zero():
    proc = run_cli("--suite", "signs")
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_non_prime_p_is_usage_error():
    proc = run_cli("--suite", "chern", "--p", "4")
    assert proc.returncode == 2


def test_odd_only_suites_reject_two():
    proc = run_cli("--suite", "rep", "--p", "2")
    assert proc.returncode == 2


def test_unknown_suite_rejected():
    proc = run_cli("--suite", "nope")
    assert proc.returncode == 2


def test_json_schema_and_determinism_small():
    args = ("--suite", "vistoli", "--p", "3", "--seed", "1", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    validate_schema(data)
    assert data["suite"] == "vistoli"
    assert all(c["elapsed_ms"] == 0 for c in data["checks"])


# The sha256 of the default (--threads 1) JSON report of each benchmark
# workload, so that a change of any byte fails here.
GOLDEN_REPORTS = {
    "all-p3-l2": (
        ["--suite", "all", "--p", "3", "--l", "2", "--seed", "7"],
        "4c8c8a6a59f920942efeb6985093907bd62f1645c4a8dfaebad03bc60b0379ab",
    ),
    "dickson-p13-n2": (
        ["--suite", "dickson", "--p", "13", "--n", "2", "--seed", "7"],
        "406bab00a1a084d29c153abd65339c564c6b6a8da277a49d416385f69881bd44",
    ),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN_REPORTS))
def test_benchmark_reports_are_byte_identical(workload):
    argv, digest = GOLDEN_REPORTS[workload]
    proc = subprocess.run(
        [sys.executable, "-m", "conjchern", *argv, "--format", "json"], capture_output=True
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(
        "--suite", "signs", "--format", "json", "--out", str(target)
    )
    assert proc.returncode == 0
    data = json.loads(target.read_text())
    validate_schema(data)


def test_relations_suite_skips_at_p7():
    proc = run_cli("--suite", "relations", "--p", "7", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert any(s == "skipped" for s in statuses.values())


# The address space allowed to each run at the largest prime: a run that
# starts building size-p objects fails fast with a MemoryError instead of
# exhausting the machine.
ADDRESS_SPACE_CAP = 2**30


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "chern", "--l", "1"],
        ["--suite", "dickson", "--n", "2", "--trials", "2"],
        ["--suite", "relations"],
        ["--suite", "rep"],
        ["--suite", "all", "--l", "1", "--trials", "2"],
    ],
)
def test_largest_admitted_prime_ends_in_seconds(argv):
    """Without the guards of the linear-form product and verify_extraspecial
    these runs outlast a 15 s timeout or run out of memory; now the expensive
    checks are SKIPPED with their estimates."""
    checks = capped_checks([*argv, "--p", "2147483647"], timeout=60)
    skipped = [c for c in checks.values() if c["status"] == "skipped"]
    assert skipped and all(REFUSAL.fullmatch(c["detail"]) for c in skipped)


def capped_checks(argv, timeout):
    """The checks of a JSON verify run under the address-space cap, by name;
    the run must exit 0 within timeout seconds."""
    proc = subprocess.run(
        [sys.executable, "-m", "conjchern", *argv, "--format", "json"],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {c["name"]: c for c in json.loads(proc.stdout)["checks"]}


def test_largest_prime_orders_the_minors_and_refuses_rank_one_invariance():
    """At p = 2^31 - 1 argument-order-invariance cross-multiplies 4x4 Moore
    minors in the class variables, whose exponents reach p^4, and passes.
    gl-invariance at n = 1 reads its C from f_1, so the product guard
    refuses it."""
    checks = capped_checks(["--suite", "chern", "--p", "2147483647", "--l", "2"], timeout=60)
    assert checks["chern/argument-order-invariance"]["status"] == "pass"
    argv = ["--suite", "dickson", "--p", "2147483647", "--n", "1", "--trials", "2"]
    check = capped_checks(argv, timeout=60)["dickson/gl-invariance"]
    assert (check["status"], check["detail"]) == (
        "skipped",
        "the product of the 2147483647^1 linear forms (3.07e+18 monomial pairs) "
        "would take about 5.69e+08 h; the guard allows 6.67 s",
    )


def test_all_at_p7_l2_ends_in_seconds():
    """When argument-order-invariance divided the Moore minors, this run
    took about 24 s and 117 MB, 23 s of it in that check (2-core x86,
    Python 3.11).  Cross-multiplied, the whole run takes about 0.5 s."""
    argv = ["--suite", "all", "--p", "7", "--l", "2", "--trials", "5"]
    checks = capped_checks(argv, timeout=20)
    assert checks["chern/argument-order-invariance"]["status"] == "pass"
    # the 7^4 product guard SKIPs 7 chern checks and relations/chern-relation-j0..j4
    skipped = [name for name, c in checks.items() if c["status"] == "skipped"]
    assert len(skipped) == 12, skipped


def test_strict_promotes_skips_to_failure():
    proc = run_cli("--suite", "relations", "--p", "7", "--strict")
    assert proc.returncode == 1


def test_all_at_p2_runs_only_prime_agnostic_suites():
    proc = run_cli("--suite", "all", "--p", "2", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    prefixes = {c["name"].split("/")[0] for c in data["checks"]}
    assert prefixes == {"dickson", "signs"}


def test_dickson_suite_with_parameters():
    proc = run_cli(
        "--suite", "dickson", "--p", "3", "--n", "3",
        "--trials", "5", "--seed", "3", "--format", "json",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["params"]["n"] == 3
    assert data["overall"] == "pass"


def test_threads_flag_accepted():
    proc = run_cli("--suite", "signs", "--threads", "auto", "--format", "json")
    assert proc.returncode == 0
    proc = run_cli("--suite", "signs", "--threads", "0")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "signs"],
        ["--suite", "rep", "--p", "3", "--l", "2"],
        ["--suite", "steenrod", "--p", "3", "--l", "1"],
        ["--suite", "relations", "--p", "3"],
        ["--suite", "chern", "--p", "3", "--l", "2"],
    ],
    ids=["signs", "rep-p3-l2", "steenrod-p3-l1", "relations-p3", "chern-p3-l2"],
)
def test_suite_exits_zero_under_optimize(args):
    # invariants raise library errors, so they still hold with asserts stripped
    env = dict(os.environ, NO_COLOR="1")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "conjchern", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout


def test_timed_check_library_error_is_a_failure():
    def body():
        raise VerificationFailure("x")

    check = timed_check("broken", body)
    assert (check.status, check.detail) == ("fail", "x")


def test_timed_check_other_exceptions_propagate():
    def body():
        raise ValueError("a bug")

    with pytest.raises(ValueError):
        timed_check("buggy", body)


def ticking_clock(monkeypatch, times):
    """Make report.timed_check read the given perf_counter values in turn."""
    it = iter(times)
    monkeypatch.setattr("conjchern.report.time.perf_counter", lambda: next(it))


def test_timed_check_rounds_to_the_nearest_ms(monkeypatch):
    ticking_clock(monkeypatch, [10.0, 10.0017, 20.0, 20.0012, 30.0, 30.0004])
    assert [timed_check("t", lambda: True).elapsed_ms for _ in range(3)] == [2, 1, 0]


def test_signs_checks_keep_their_timings(monkeypatch):
    ticks = (k / 1000 for k in range(10**6))
    monkeypatch.setattr("conjchern.report.time.perf_counter", lambda: next(ticks))
    args = cli.build_parser().parse_args(["--suite", "signs"])
    checks = cli.run_suite(args).checks
    signs = [c for c in checks if c.name.startswith("signs/I=")]
    assert len(signs) == 35
    assert signs[0].name == "signs/I=0,1,2,3"
    assert all(c.status == "pass" for c in signs)
    assert {c.detail for c in signs} == {"all three kappa sums vanish"}
    assert all(c.elapsed_ms >= 1 for c in signs)


def test_modulus_above_the_bound_is_usage_error():
    # 2147483659 is the least prime above fp.MAX_MODULUS = 2^31
    for suite in ("dickson", "vistoli"):
        proc = run_cli("--suite", suite, "--p", "2147483659")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "exceeds the supported bound" in proc.stderr


def gl_invariance_at(p):
    """The gl-invariance check of verify --suite dickson --p p --n 2, which
    must end within 30 s and exit 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "conjchern", "--suite", "dickson", "--p", str(p), "--n", "2",
         "--format", "json"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0
    checks = {c["name"]: c for c in json.loads(proc.stdout)["checks"]}
    return checks["dickson/gl-invariance"]


def test_gl_invariance_guard_ends_a_large_prime_in_seconds():
    """A GL trial costs about p^3 at n = 2: unguarded, --p 401 ran past 60 s.
    Now gl-invariance is SKIPPED with its estimate.  Above p = 271 the
    product guard refuses it first, since it reads its C from f_2, so the
    trial guard is seen at p = 101."""
    check = gl_invariance_at(101)
    assert check["status"] == "skipped"
    assert check["detail"] == (
        "50 random matrices (7.07e+07 Lucas picks) would take about 47.2 s; "
        "the guard allows 6.67 s"
    )


def test_gl_invariance_refusal_rounds_its_seconds():
    """At --p 53 the 50 trials come to 10,494,400 picks, 6.996 s: just over
    the guard's 10^7 picks (6.67 s), so the stated time must read 7 s, not a
    floored 6 s that would sit below what the guard allows; both times have
    three significant digits."""
    check = gl_invariance_at(53)
    assert check["status"] == "skipped"
    assert check["detail"] == (
        "50 random matrices (1.05e+07 Lucas picks) would take about 7 s; "
        "the guard allows 6.67 s"
    )


def test_unwritable_out_is_usage_error(tmp_path):
    """Exit code 1 means a failed check, so a report that cannot be written
    is a usage error, found before the suite runs."""
    for target in (tmp_path / "missing" / "report.txt", tmp_path):
        proc = run_cli("--suite", "signs", "--out", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"verify: error: --out {target}: "
            + ("No such file or directory" if target != tmp_path else "Is a directory")
        ]
