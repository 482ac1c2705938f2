"""Command-line front door: named verification suites with machine-readable
reports and deterministic exit codes.

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
from itertools import combinations

from ._version import __version__
from .chern import ChernContext, verify_conj_chern, verify_top_chern, verify_vistoli
from .cyclo import verify_extraspecial, verify_weight_basis
from .dickson import DicksonContext, verify_dickson
from .fp import check_modulus
from .relations import (
    verify_chern_r_relations,
    verify_partition_signs,
    verify_quadratic,
    verify_r_delta,
)
from .report import FAIL, Check, VerificationReport, timed_check
from .steenrod import verify_jacobian_independence, verify_steenrod

SUITES = ("dickson", "rep", "steenrod", "chern", "vistoli", "signs", "relations")
ODD_ONLY = {"rep", "steenrod", "chern", "vistoli", "relations"}
SIGNS_UNIVERSE = range(7)


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


def _prefixed(prefix: str, report: VerificationReport) -> list:
    return [
        Check(f"{prefix}/{c.name}", c.status, c.detail, c.elapsed_ms)
        for c in report.checks
    ]


def _checks_dickson(args) -> list:
    ctx = DicksonContext(args.p, args.n)
    return _prefixed("dickson", verify_dickson(ctx, args.trials, args.seed))


def _checks_rep(args) -> list:
    checks = _prefixed("rep", verify_extraspecial(args.p))
    for l in sorted({1, args.l}):
        name = f"rep/weight-basis-l{l}"

        def run(l=l):
            detail = f"{verify_weight_basis(args.p, l)} weight lines verified"
            if l == 1:
                detail += "; coordinate determinant nonzero"
            return True, detail

        checks.append(timed_check(name, run))
    return checks


def _checks_steenrod(args) -> list:
    checks = _prefixed(
        "steenrod", verify_steenrod(args.p, args.l, args.trials, args.seed)
    )
    checks += _prefixed("steenrod", verify_jacobian_independence(args.p, args.l))
    return checks


def _checks_chern(args) -> list:
    ctx = ChernContext(args.p, args.l)
    checks = _prefixed("chern", verify_conj_chern(ctx))
    return checks + _prefixed("chern", verify_top_chern(ctx))


def _checks_vistoli(args) -> list:
    return _prefixed("vistoli", verify_vistoli(args.p))


def _checks_signs(args) -> list:
    checks = []
    for iset in combinations(SIGNS_UNIVERSE, 4):

        def run(iset=iset):
            report = verify_partition_signs(iset)
            if report.passed():
                return True, "all three kappa sums vanish"
            return False, "; ".join(
                f"{c.name}: {c.detail}" for c in report.checks if c.status == FAIL
            )

        checks.append(timed_check("signs/I=" + ",".join(map(str, iset)), run))

    def frozen_values():
        from .relations import epsilon, partitions22, slash

        u, v, w = partitions22((0, 1, 2, 3))
        expected_eps = (epsilon(u), epsilon(v), epsilon(w)) == (1, -1, 1)
        expected_slash = (
            slash(u, v),
            slash(v, u),
            slash(w, u),
            slash(u, w),
            slash(v, w),
            slash(w, v),
        ) == (1, 1, 1, -1, -1, -1)
        return expected_eps and expected_slash, "sign table matches"

    checks.append(timed_check("signs/canonical-values", frozen_values))
    return checks


def _checks_relations(args) -> list:
    checks = []
    for fn in (verify_quadratic, verify_r_delta, verify_chern_r_relations):
        checks += _prefixed("relations", fn(args.p))
    return checks


_RUNNERS = {
    "dickson": _checks_dickson,
    "rep": _checks_rep,
    "steenrod": _checks_steenrod,
    "chern": _checks_chern,
    "vistoli": _checks_vistoli,
    "signs": _checks_signs,
    "relations": _checks_relations,
}


def run_suite(args) -> VerificationReport:
    if args.suite == "all":
        names = [s for s in SUITES if args.p != 2 or s not in ODD_ONLY]
    else:
        names = [args.suite]
    checks = []
    for name in names:
        checks += _RUNNERS[name](args)
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
