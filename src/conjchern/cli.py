"""Command-line front door: named verification suites with machine-readable
reports and deterministic exit codes.

This module parses the arguments, maps each suite name to its home module
and the verifiers there that make its checks, and builds the run's one
report.  It imports no layer module itself: a suite's module, and the report
module, load the first time a run needs them, so a usage error or a
one-suite run never compiles the layers it does not use.  Each verifier
returns its checks named without the suite prefix; run_suite adds the
`<suite>/` prefix.

Exit codes: 0 when every check passes, 1 when any check fails, 2 on a usage
or configuration error.  --threads is a timing switch only: every suite runs
in this one thread whatever its value.  With --threads 1 (the default)
reports are byte-identical across runs: elapsed times are zeroed, since
wall-clock noise would break the determinism contract.  With any larger
value, or 'auto', the real elapsed times are kept.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from .fp import check_modulus

# Each suite's home module, and its checks from that module and the parsed
# arguments, in report order.  run_suite imports the module the first time
# its suite runs, so a run loads only the layers its suites use, and each
# verifier is looked up on the module at call time, so a rebound (traced)
# verifier is the one that runs.
_RUNNERS = {
    "dickson": (
        "dickson",
        lambda m, a: m.verify_dickson(m.DicksonContext(a.p, a.n)),
    ),
    "rep": ("cyclo", lambda m, a: m.verify_extraspecial(a.p) + m.verify_weight_bases(a.p, a.l)),
    "steenrod": (
        "steenrod",
        lambda m, a: m.verify_steenrod(a.p, a.l, a.trials, a.seed)
        + m.verify_jacobian_independence(a.p, a.l),
    ),
    "chern": (
        "chern",
        lambda m, a: m.verify_conj_chern(m.CohAlgebra(a.p, a.l))
        + m.verify_top_chern(m.CohAlgebra(a.p, a.l)),
    ),
    "vistoli": ("chern", lambda m, a: m.verify_vistoli(a.p)),
    "signs": ("relations", lambda m, a: m.verify_signs()),
    "relations": (
        "relations",
        lambda m, a: m.verify_quadratic(a.p)
        + m.verify_r_delta(a.p)
        + m.verify_chern_r_relations(a.p),
    ),
}
SUITES = tuple(_RUNNERS)
ODD_ONLY = {"rep", "steenrod", "chern", "vistoli", "relations"}


def _threads(text: str) -> int:
    if text == "auto":
        return os.cpu_count() or 1
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run exact verification suites for the Dickson/Chern identities.",
    )
    parser.add_argument("--suite", required=True, choices=SUITES + ("all",))
    parser.add_argument("--p", type=int, default=3, help="prime (default 3)")
    parser.add_argument("--l", type=int, default=1, choices=(1, 2))
    parser.add_argument("--n", type=int, default=2, choices=(1, 2, 3, 4))
    parser.add_argument(
        "--trials", type=int, default=50, help="random trials; only the steenrod suite reads it"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the trials; only the steenrod suite reads it"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument(
        "--threads",
        type=_threads,
        default="1",
        help="timing switch only, checks always run in one thread: 1 (default) "
        "zeroes elapsed_ms for byte-stable reports, a larger integer or 'auto' "
        "keeps the real timings",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat skipped checks as failures"
    )
    return parser


# Built once per process, at import: constructing the parser (gettext lookups,
# regex compiles) costs 2-3 ms, more than parsing, and main may run many times.
_PARSER = build_parser()


def _layer(name: str):
    return importlib.import_module(f"{__package__}.{name}")


def run_suite(args):
    """Run the named suite, or each suite that --p admits for 'all', into the
    run's one VerificationReport: each check name gains its suite's prefix
    here."""
    if args.suite == "all":
        names = [s for s in SUITES if args.p != 2 or s not in ODD_ONLY]
    else:
        names = [args.suite]
    checks = []
    for name in names:
        module, runner = _RUNNERS[name]
        for check in runner(_layer(module), args):
            check.name = f"{name}/{check.name}"
            checks.append(check)
    return _layer("report").VerificationReport(
        suite=args.suite,
        params={
            "p": args.p,
            "l": args.l,
            "n": args.n,
            "threads": args.threads,
            "trials": args.trials,
        },
        checks=checks,
        seed=args.seed,
    )


def main(argv=None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)

    try:
        check_modulus(args.p)
    except ValueError as err:
        parser.error(f"--p: {err}")
    if args.suite in ODD_ONLY and args.p == 2:
        parser.error(f"suite {args.suite!r} needs an odd prime")
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if not -(2**63) <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    # Opened before the run, so that an unwritable --out fails at once, and
    # as a usage error: exit code 1 means a failed check.
    out = sys.stdout
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as err:
            parser.exit(2, f"{parser.prog}: error: --out {args.out}: {err.strerror}\n")

    try:
        report = run_suite(args)
        if args.strict:
            report.promote_skips()
        if args.threads == 1:
            report.zero_elapsed()

        if args.format == "json":
            rendered = report.to_json()
        else:
            color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
            rendered = report.to_text(color=color and args.out is None)
        out.write(rendered)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
