"""Acceptance suite: every exit criterion, run at its exact tolerance.

All identities are exact equalities over finite fields, so there is no
numeric tolerance anywhere; each criterion also carries a wall-clock budget
for a commodity 4-core machine.  One pass/fail line prints per criterion
(run pytest with -s to see them stream).
"""

import json
import os
import subprocess
import sys
import time
from itertools import combinations

from conjchern.chern import (
    verify_conj_chern,
    verify_top_chern,
    verify_vistoli,
)
from conjchern.cyclo import verify_extraspecial, verify_weight_basis
from conjchern.dickson import (
    DicksonContext,
    delta_full,
    delta_ni,
    dickson_c_from_f,
    f_n_product,
    verify_dickson,
)
from conjchern.relations import (
    epsilon,
    kappa_sums,
    partitions22,
    slash,
    verify_chern_r_relations,
    verify_quadratic,
    verify_r_delta,
)
from conjchern.steenrod import (
    CohAlgebra,
    milnor_q,
    r_closed,
    verify_jacobian_independence,
    verify_steenrod,
    x_class,
)

DICKSON_GRID = [(2, 2), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (3, 4), (5, 3)]
CHERN_GRID = [(3, 1), (5, 1), (3, 2)]
# (5, 2) runs in criterion 8 alone: criteria 7 and 9 share CHERN_GRID under
# budgets of 30 s and 60 s
CONJ_CHERN_GRID = CHERN_GRID + [(5, 2)]


def criterion(number, name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_s
    verdict = "PASS" if within else "FAIL (over budget)"
    print(f"[criterion {number:2d}] {name}: {verdict} ({elapsed:.1f}s / {budget_s}s)")
    assert within, f"{name}: {elapsed:.1f}s exceeded the {budget_s}s budget"


def assert_report(checks):
    bad = [c for c in checks if c.status != "pass"]
    assert not bad, "; ".join(f"{c.name}: {c.detail}" for c in bad)


def test_criterion_01_dickson_two_routes():
    def run():
        for p, n in DICKSON_GRID:
            ctx = DicksonContext(p, n)
            assert not delta_ni(ctx, n).is_zero(), (p, n)
            for i in range(n + 1):
                assert delta_ni(ctx, i) == delta_ni(ctx, n) * dickson_c_from_f(ctx, i), (p, n, i)

    criterion(1, "Dickson two-route agreement", 30, run)


def test_criterion_02_moore_factorization():
    def run():
        for p, n in DICKSON_GRID:
            ctx = DicksonContext(p, n)
            lhs = delta_full(ctx)
            minor = delta_ni(ctx, n).compose([ctx.xring.variable(j) for j in range(n)])
            rhs = minor * f_n_product(ctx)
            assert lhs == rhs, (p, n)

    criterion(2, "Moore determinant factorization", 30, run)


def test_criterion_03_gl_invariance():
    def run():
        for p, n in DICKSON_GRID:
            checks = verify_dickson(DicksonContext(p, n))
            assert_report(checks)

    criterion(3, "GL-invariance under every elementary matrix", 60, run)


def test_criterion_04_representation_relations():
    def run():
        for p in (3, 5):
            assert_report(verify_extraspecial(p))
            assert verify_weight_basis(p, 1) == p * p
        assert verify_weight_basis(3, 2) == 81

    criterion(4, "representation relations and weight lines", 60, run)


def test_criterion_05_milnor_closed_form():
    def run():
        for p, l in [(3, 1), (3, 2), (5, 1), (5, 2)]:
            for i in range(5):
                assert milnor_q(i, x_class(p, l)) == r_closed(p, i, l), (p, l, i)

    criterion(5, "Milnor primitives hit the closed forms", 120, run)


def test_criterion_06_steenrod_structure():
    def run():
        for l in (1, 2):
            assert_report(verify_steenrod(3, l, trials=200, seed=42))

    criterion(6, "Steenrod structural laws on 200 random classes", 60, run)


def test_criterion_07_jacobian_independence():
    def run():
        for p, l in CHERN_GRID:
            assert_report(verify_jacobian_independence(p, l))

    criterion(7, "Jacobian independence of the closed forms", 30, run)


def test_criterion_08_conjugation_chern_classes():
    def run():
        for p, l in CONJ_CHERN_GRID:
            assert_report(verify_conj_chern(CohAlgebra(p, l)))

    criterion(8, "graded Chern parts match signed Dickson invariants", 300, run)


def test_criterion_09_top_chern_identities():
    def run():
        for p, l in CHERN_GRID:
            assert_report(verify_top_chern(CohAlgebra(p, l)))

    criterion(9, "top Chern class power identities", 60, run)


def test_criterion_10_rank_one_relations():
    def run():
        for p in (3, 5):
            assert_report(verify_vistoli(p))

    criterion(10, "rank-one closed forms and product relations", 60, run)


def test_criterion_11_partition_signs():
    def run():
        for iset in combinations(range(7), 4):
            assert kappa_sums(iset) == {"kappa-u": 0, "kappa-v": 0, "kappa-w": 0}, iset
        u, v, w = partitions22((0, 1, 2, 3))
        assert (epsilon(u), epsilon(v), epsilon(w)) == (1, -1, 1)
        assert (slash(u, v), slash(v, u), slash(w, u)) == (1, 1, 1)
        assert (slash(u, w), slash(v, w), slash(w, v)) == (-1, -1, -1)

    criterion(11, "partition sign identities on every 4-subset of 0..6", 5, run)


def test_criterion_12_quadratic_relations_p3():
    def run():
        assert_report(verify_quadratic(3))
        assert_report(verify_r_delta(3))
        assert_report(verify_chern_r_relations(3))

    criterion(12, "weighted relations R_j at p = 3", 600, run)


def test_criterion_13_cli_contract():
    def run():
        args = [
            sys.executable, "-m", "conjchern",
            "--suite", "all", "--p", "3", "--l", "2",
            "--seed", "42", "--format", "json",
        ]
        env = dict(os.environ, NO_COLOR="1")
        first = subprocess.run(args, capture_output=True, text=True, env=env)
        second = subprocess.run(args, capture_output=True, text=True, env=env)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout, "reports are not byte-stable"
        data = json.loads(first.stdout)
        assert set(data) == {"suite", "params", "checks", "overall", "seed", "version"}
        assert data["overall"] == "pass"
        assert data["seed"] == 42
        for check in data["checks"]:
            assert set(check) == {"name", "status", "detail", "elapsed_ms"}
            assert check["status"] in ("pass", "fail", "skipped")

    criterion(13, "CLI all-suite contract, byte-stable JSON", 900, run)
