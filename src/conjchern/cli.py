"""Command-line front door: named verification suites with machine-readable
reports and deterministic exit codes.

This module parses the arguments, maps each suite name to the verifiers
that make its checks, and builds the run's one report.  Each verifier
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
import os
import sys

from .chern import ChernContext, verify_conj_chern, verify_top_chern, verify_vistoli
from .cyclo import verify_extraspecial, verify_weight_bases
from .dickson import DicksonContext, verify_dickson
from .fp import check_modulus
from .relations import verify_chern_r_relations, verify_quadratic, verify_r_delta, verify_signs
from .report import VerificationReport
from .steenrod import verify_jacobian_independence, verify_steenrod

# Each suite's checks, from the parsed arguments, in report order.  The
# entries are lambdas, not the verifiers themselves, so that they look each
# verifier up when called and a rebound (traced) verifier is the one that runs.
_RUNNERS = {
    "dickson": lambda a: verify_dickson(DicksonContext(a.p, a.n), a.trials, a.seed),
    "rep": lambda a: verify_extraspecial(a.p) + verify_weight_bases(a.p, a.l),
    "steenrod": lambda a: verify_steenrod(a.p, a.l, a.trials, a.seed)
    + verify_jacobian_independence(a.p, a.l),
    "chern": lambda a: verify_conj_chern(ChernContext(a.p, a.l))
    + verify_top_chern(ChernContext(a.p, a.l)),
    "vistoli": lambda a: verify_vistoli(a.p),
    "signs": lambda a: verify_signs(),
    "relations": lambda a: verify_quadratic(a.p)
    + verify_r_delta(a.p)
    + verify_chern_r_relations(a.p),
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
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
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


def run_suite(args) -> VerificationReport:
    """Run the named suite, or each suite that --p admits for 'all', into the
    run's one report: each check name gains its suite's prefix here."""
    if args.suite == "all":
        names = [s for s in SUITES if args.p != 2 or s not in ODD_ONLY]
    else:
        names = [args.suite]
    checks = []
    for name in names:
        for check in _RUNNERS[name](args):
            check.name = f"{name}/{check.name}"
            checks.append(check)
    return VerificationReport(
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
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.passed() else 1


if __name__ == "__main__":
    raise SystemExit(main())
