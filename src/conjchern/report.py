"""Structured pass/fail reports with canonical JSON and text rendering."""

from __future__ import annotations

import json
import time

from ._version import __version__
from .errors import ConjChernError, SizeGuard
from .poly import agree

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class Check:
    """The outcome of one named check."""

    __slots__ = ("name", "status", "detail", "elapsed_ms")

    def __init__(self, name: str, status: str, detail: str = "", elapsed_ms: int = 0):
        self.name = name
        self.status = status
        self.detail = detail
        self.elapsed_ms = elapsed_ms

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "elapsed_ms": self.elapsed_ms,
        }


class VerificationReport:
    """The one report of a verify run: its checks, each named <suite>/<check>,
    with the run's parameters and seed."""

    __slots__ = ("suite", "params", "checks", "seed")

    def __init__(self, suite: str, params: dict, checks: list, seed: int = 0):
        self.suite = suite
        self.params = params
        self.checks = checks
        self.seed = seed

    @property
    def overall(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def passed(self) -> bool:
        return self.overall == PASS

    def zero_elapsed(self) -> None:
        """Make the report time-independent (the threads=1 determinism contract)."""
        for c in self.checks:
            c.elapsed_ms = 0

    def promote_skips(self) -> None:
        for c in self.checks:
            if c.status == SKIPPED:
                c.status = FAIL

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "seed": self.seed,
            "version": __version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def to_text(self, color: bool = False) -> str:
        def paint(s: str, code: str) -> str:
            return f"\x1b[{code}m{s}\x1b[0m" if color else s

        status_style = {PASS: "32", FAIL: "31", SKIPPED: "33"}
        lines = [f"suite: {self.suite}"]
        if self.params:
            params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            lines.append(f"params: {params}")
        lines.append(f"seed: {self.seed}")
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            status = paint(c.status.upper().ljust(7), status_style[c.status])
            line = f"  {c.name.ljust(width)}  {status} {c.elapsed_ms:>6} ms"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line)
        lines.append(f"overall: {paint(self.overall.upper(), status_style[self.overall])}")
        return "\n".join(lines) + "\n"


def timed_check(name: str, fn) -> Check:
    """Run fn and wrap the outcome.

    fn returns True/False or (ok, detail).  Raising SizeGuard yields a
    skipped check, and raising any other ConjChernError yields a failed
    check whose detail is the error message.  Every other exception
    propagates: it indicates a bug, not a failure.  The elapsed time is
    rounded to the nearest millisecond.
    """
    start = time.perf_counter()
    try:
        result = fn()
    except SizeGuard as guard:
        status, detail = SKIPPED, str(guard)
    except ConjChernError as error:
        status, detail = FAIL, str(error)
    else:
        ok, detail = result if isinstance(result, tuple) else (result, "")
        status = PASS if ok else FAIL
    elapsed = round((time.perf_counter() - start) * 1000)
    return Check(name, status, detail, elapsed)


# The rate and the two time budgets of the size guards: Poly.__mul__ visits
# 1.3-2.1 million monomial pairs a second in the linear-form products at
# (p, m) = (3, 4), (5, 3), (7, 3), (5, 4) and (3, 5) (2-core x86, Python
# 3.11).  POLY_BUDGET bounds the linear-form product and the GL-invariance
# check of dickson: 10^7 pairs at PAIRS_PER_SECOND, about 6.67 s.  REP_BUDGET, in
# seconds, bounds each check of cyclo.
PAIRS_PER_SECOND = 1_500_000
POLY_BUDGET = 10**7 / PAIRS_PER_SECOND
REP_BUDGET = 12


def refuse_above(work: str, seconds: float, budget: float) -> None:
    """Raise SizeGuard if the estimated seconds of work exceed budget.

    Every cost guard refuses through here, before its work starts, so each
    SKIPPED detail reads "<work> would take about <cost>; the guard allows
    <budget> s", the cost to 3 significant figures, in hours above an hour."""
    if seconds > budget:
        cost, unit = (seconds / 3600, "h") if seconds > 3600 else (seconds, "s")
        raise SizeGuard(
            f"{work} would take about {float(f'{cost:.3g}'):g} {unit}; "
            f"the guard allows {budget:.3g} s"
        )


def two_routes(name: str, lhs, rhs) -> Check:
    """A check that two independent routes reach the same result: lhs() is
    computed first, then rhs(), and the two are compared with agree, so a
    failed check diffs lhs against rhs.

    tests/test_routes.py runs each route alone and fails when both reach a
    library function outside the shared ring arithmetic."""
    return timed_check(name, lambda: agree(lhs(), rhs()))
