"""Two-variable polynomial systems: constant witnesses and infinite PR.

The criterion: a two-variable system is PR exactly when some w solves
every diagonal P_i(w, w) = 0, and infinitely PR exactly when every
diagonal vanishes identically, i.e. (x - y) divides every P_i.  Linear
systems in two variables reach the same diagonals through
`decide_linear`, whose rows give rowsum_i * w - b_i.  `decide_twovar`
decides general polynomial systems by the same diagonals, except that
no witness leaves them UNKNOWN in three or more variables.
"""

import random
from fractions import Fraction

import pytest

from prtoolkit.algebra import MultiPoly, constant_solutions
from prtoolkit.diophantine import decide_twovar
from prtoolkit.equations import (
    GeneralPolySystem,
    TwoVarPolySystem,
    classify,
    linear_polys,
    parse_equation_text,
)
from prtoolkit.rado import decide_linear


def poly2(terms):
    return MultiPoly(("x", "y"), {k: Fraction(v) for k, v in terms.items()})


def system(*polys):
    return TwoVarPolySystem(variables=("x", "y"), polys=tuple(polys))


def linear_witnesses(cls, domain="N"):
    """Constant solutions of a linear system, from the diagonals of its rows."""
    return constant_solutions([p.diagonal() for p in linear_polys(cls)], domain)


# --- worked instances -----------------------------------------------------


def test_shifted_double():
    # 2x - y = n has the single constant solution x = y = n
    for n in range(1, 11):
        cls = classify(parse_equation_text("2*x - y = %d" % n))
        v = decide_linear(cls)
        assert v.status == "PR_CONSTANT"
        assert v.witness == n
        assert linear_witnesses(cls) == (n,)
        assert v.witness != "all"


def test_x_minus_y_infinitely_pr():
    cls = classify(parse_equation_text("x - y = 0"))
    v = decide_linear(cls)
    assert v.status == "PR_CONSTANT"
    assert v.witness == "all"
    assert linear_witnesses(cls) == "all"
    assert linear_polys(cls)[0].diagonal().is_zero()  # (x - y) divides x - y


def test_difference_of_squares():
    # x^2 - y^2 = (x-y)(x+y): diagonal vanishes identically
    v = decide_twovar(classify(parse_equation_text("x^2 - y^2 = 0")))
    assert v.infinitely_pr
    assert v.witnesses == "all"


def test_quadratic_with_two_roots():
    # x*y - 4 = 0: diagonal w^2 - 4, roots -2 and 2, only 2 lies in N
    v = decide_twovar(classify(parse_equation_text("x*y = 4")))
    assert v.status == "PR_CONSTANT"
    assert v.witnesses == (2,)
    assert v.witness == 2
    assert not v.infinitely_pr
    vz = decide_twovar(classify(parse_equation_text("x*y = 4")), domain="Z")
    assert set(vz.witnesses) == {-2, 2}
    assert vz.witness == 2  # least absolute value, nonnegative wins ties


def test_no_constant_solution():
    # x + y = 1 needs w = 1/2
    cls = classify(parse_equation_text("x + y = 1"))
    v = decide_linear(cls)
    assert v.status == "NOT_PR"
    assert v.witness is None
    assert linear_witnesses(cls) == ()


def test_zero_only_root_excluded_over_n():
    # x + y = 0: diagonal 2w, root 0 only; no N witness, Z witness 0
    lin = classify(parse_equation_text("x + y = 0"))
    v = decide_linear(lin)
    assert v.status == "NOT_PR"
    assert linear_witnesses(lin) == ()
    vz = decide_linear(lin, domain="Z")
    assert vz.status == "PR_CONSTANT" and vz.witness == 0
    assert linear_witnesses(lin, "Z") == (0,)


def test_system_intersects_witness_sets():
    # x*y = 4 (w = ±2) and x + y = 4 (w = 2): intersection {2}
    cls = classify(parse_equation_text("x*y = 4 ; x + y = 4"))
    v = decide_twovar(cls, domain="Z")
    assert v.witnesses == (2,)


def test_unsatisfiable_constant_equation():
    # 5 = 0 holds nowhere, so no coloring has a solution
    v = decide_twovar(system(poly2({(0, 0): 5})))
    assert (v.status, v.witnesses, v.witness) == ("NOT_PR", (), None)
    assert v.note == "an equation reduces to 5 = 0: no solution"


INCOMPLETE = (
    "the constant-solution search stopped on an incomplete factorization: "
    "factorization of -1000000016000000063 incomplete: cofactor "
    "1000000016000000063 exceeds budget^2 = 1000000000000"
)
NO_PROCEDURE = (
    "no decision procedure for this polynomial system beyond its constant "
    "solutions; try `search` for finite evidence"
)


@pytest.mark.parametrize(
    "expr, cls, status, witnesses, witness, note",
    [
        ("x*y = 4", TwoVarPolySystem, "PR_CONSTANT", (2,), 2, ""),
        ("x*y*z = 8", GeneralPolySystem, "PR_CONSTANT", (2,), 2, ""),
        ("x^2 = y^2", TwoVarPolySystem, "PR_CONSTANT", "all", 1, ""),
        ("x^2 + y^2 = 2*z^2", GeneralPolySystem, "PR_CONSTANT", "all", 1, ""),
        ("x*y = x*y + 1; x = y^2", GeneralPolySystem, "NOT_PR", (), None,
         "an equation reduces to -1 = 0: no solution"),
        ("x = y^2; x*y*z + 3 = x*y*z", GeneralPolySystem, "NOT_PR", (), None,
         "an equation reduces to 3 = 0: no solution"),
        # no root: decided in two variables, not in three
        ("x*y = 2", TwoVarPolySystem, "NOT_PR", (), None, ""),
        ("x^2 + y^2 = z^2", GeneralPolySystem, "UNKNOWN", (), None, NO_PROCEDURE),
        # w^3 + w - (10^9 + 7)(10^9 + 9) needs a factorization the budget cannot finish
        ("x^3 + x = 1000000016000000063", TwoVarPolySystem, "UNKNOWN", (), None, INCOMPLETE),
        ("x*y*z + x = 1000000016000000063", GeneralPolySystem, "UNKNOWN", (), None, INCOMPLETE),
    ],
)
def test_one_decision_for_both_polynomial_classes(expr, cls, status, witnesses, witness, note):
    system_ = classify(parse_equation_text(expr))
    assert type(system_) is cls
    v = decide_twovar(system_)
    assert (v.status, v.witnesses, v.witness, v.note) == (status, witnesses, witness, note)
    assert v.infinitely_pr == (witnesses == "all")
    assert v.domain == "N"


def test_decide_infinitely_pr_helper():
    assert decide_twovar(classify(parse_equation_text("x^2 - y^2 = 0"))).infinitely_pr
    assert not decide_twovar(classify(parse_equation_text("x*y = 4"))).infinitely_pr


# --- oracle cross-checks ----------------------------------------------------


def division_by_x_minus_y_is_exact(p):
    """Oracle: substitute x := y and check the collapse is zero."""
    rem = {}
    for (ex, ey), c in p.terms.items():
        rem[ex + ey] = rem.get(ex + ey, Fraction(0)) + c
    return all(v == 0 for v in rem.values())


def random_poly2(rng, force_divisible):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 2), rng.randint(0, 2))
        terms[key] = terms.get(key, 0) + rng.randint(-6, 6)
    p = poly2(terms)
    if p.is_zero():
        p = poly2({(1, 0): 1, (0, 1): -1})
    if force_divisible:
        p = p * poly2({(1, 0): 1, (0, 1): -1})
    return p


def test_infinitely_pr_iff_every_diagonal_vanishes():
    rng = random.Random(401)
    for trial in range(100):
        divisible = trial % 2 == 0
        polys = [random_poly2(rng, divisible) for _ in range(rng.randint(1, 3))]
        sys_ = system(*polys)
        want = all(division_by_x_minus_y_is_exact(p) for p in polys)
        got = decide_twovar(sys_, domain="Z").infinitely_pr
        assert got == want, [p.terms for p in polys]


def test_witnesses_against_brute_scan():
    rng = random.Random(402)
    for _ in range(60):
        polys = [random_poly2(rng, False) for _ in range(rng.randint(1, 2))]
        sys_ = system(*polys)
        v = decide_twovar(sys_)
        brute = [
            w for w in range(1, 1001)
            if all(p.eval((w, w)) == 0 for p in polys)
        ]
        if v.witnesses == "all":
            assert brute == list(range(1, 1001))
        else:
            # roots of integer polynomials of these sizes stay well inside
            # the scanned range
            assert [w for w in v.witnesses if w <= 1000] == brute


def test_diagonal_polys_shape():
    ds = [p.diagonal() for p in classify(parse_equation_text("x^2 - y = 0")).polys]
    assert len(ds) == 1
    # w^2 - w
    assert list(ds[0].coeffs) == [0, -1, 1]
