"""Every cost guard decides at the same prime as before, and before its work.

Each guarded step is replaced by a sentinel that fails the check when it is
called.  At its last admitted prime a guard lets the check reach that step,
so the check FAILs with the sentinel's detail.  At its first refused prime
the check is SKIPPED, in the one text of report.refuse_above, so the step was
never called."""

import pytest

from conjchern import cyclo, dickson
from conjchern.cyclo import verify_extraspecial, verify_weight_basis
from conjchern.dickson import DicksonContext, linear_form_product, verify_dickson
from conjchern.errors import ConjChernError
from conjchern.report import FAIL, SKIPPED, timed_check

from helpers import REFUSAL


class Reached(ConjChernError):
    """Raised by the sentinel in place of a guarded step."""


def product(m):
    def run(p):
        return timed_check("product", lambda: linear_form_product(DicksonContext(p, m).xring))

    return run


def weight_basis(l):
    return lambda p: timed_check("weight-basis", lambda: verify_weight_basis(p, l))


def named(verifier, name):
    return lambda p: next(c for c in verifier(p) if c.name == name)


# guard: (guarded step as (owner, attribute), run at p, last admitted p,
# first refused p)
GUARDS = {
    "product-m1": ((dickson, "_shift_scalars"), product(1), 3863, 3877),
    "product-m2": ((dickson, "_shift_scalars"), product(2), 271, 277),
    "product-m3": ((dickson, "_shift_scalars"), product(3), 19, 23),
    "product-m4": ((dickson, "_shift_scalars"), product(4), 5, 7),
    "trials-n2": (
        (dickson, "_apply_factor"),
        named(lambda p: verify_dickson(DicksonContext(p, 2)), "gl-invariance"),
        53,
        59,
    ),
    "weight-basis-l1": ((cyclo, "gen_matrices"), weight_basis(1), 197, 199),
    "weight-basis-l2": ((cyclo, "gen_matrices"), weight_basis(2), 11, 13),
    "order": ((cyclo, "gen_matrices"), named(verify_extraspecial, "sigma-order"), 737263, 737279),
    "commutator": (
        (cyclo, "gen_matrices"),
        named(verify_extraspecial, "commutator-central"),
        1999993,
        2000003,
    ),
    "omega": (
        (cyclo, "gen_matrices"),
        named(verify_extraspecial, "omega-commutes"),
        3749971,
        3750001,
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_guard_admits_and_refuses_at_its_boundary(guard, monkeypatch):
    (owner, attribute), run, admitted, refused = GUARDS[guard]

    def sentinel(*args, **kwargs):
        raise Reached("reached the guarded step")

    monkeypatch.setattr(owner, attribute, sentinel)
    check = run(admitted)
    assert (check.status, check.detail) == (FAIL, "reached the guarded step")
    check = run(refused)
    assert check.status == SKIPPED
    assert REFUSAL.fullmatch(check.detail), check.detail
