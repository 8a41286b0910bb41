"""Multiplicative subgroups of Q*: rank, bounds, unit-equation scans."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prtoolkit import sunit
from prtoolkit.algebra import IncompleteFactorization
from prtoolkit.sunit import (
    GroupSpec,
    count_unit_equation_solutions,
    decide_sunit_3var,
    enumerate_group_elements,
    make_group,
    subgroup_rank,
    sunit_solution_bound,
    two_term_unit_bound,
)


# --- group construction and rank -------------------------------------------


def test_rank_known_values():
    assert subgroup_rank([2, 3]) == 2
    assert subgroup_rank([4, 8]) == 1      # both powers of 2
    assert subgroup_rank([-1]) == 0        # torsion only
    assert subgroup_rank([1]) == 0
    assert subgroup_rank([Fraction(3, 5)]) == 1
    assert subgroup_rank([2, 3, 6]) == 2   # 6 = 2*3 is dependent


def test_make_group_fields():
    g = make_group([-1, 2, Fraction(3, 5)])
    assert g.generators == (Fraction(-1), Fraction(2), Fraction(3, 5))
    assert g.primes == (2, 3, 5)
    assert g.exponents == ((0, 0, 0), (1, 0, 0), (0, 1, -1))
    assert g.signs == (1, 0, 0)
    assert g.rank == 2


def test_make_group_rejects_zero():
    with pytest.raises(ValueError):
        make_group([2, 0])
    with pytest.raises(ValueError):
        make_group([])


def test_rank_invariant_under_recombination():
    # replacing (g1, g2) by (g1*g2, g2) spans the same group
    rng = random.Random(501)
    pool = [2, 3, 5, 7, Fraction(1, 2), Fraction(3, 5), -2, -3, 6, 10]
    for _ in range(40):
        gens = [Fraction(rng.choice(pool)) for _ in range(rng.randint(2, 4))]
        combined = list(gens)
        i, j = rng.sample(range(len(gens)), 2)
        combined[i] = gens[i] * gens[j]
        assert subgroup_rank(gens) == subgroup_rank(combined), (gens, combined)


def test_rank_budget():
    p = 2_147_483_647
    with pytest.raises(IncompleteFactorization):
        subgroup_rank([p * p])


# --- bounds -------------------------------------------------------------------


def test_bound_values():
    assert sunit_solution_bound(0) == 2**16
    assert sunit_solution_bound(1) == 2**32
    assert sunit_solution_bound(2) == 2**48
    assert two_term_unit_bound(0) == 2**16
    assert two_term_unit_bound(1) == 2**24
    with pytest.raises(ValueError):
        sunit_solution_bound(-1)


# --- element enumeration ---------------------------------------------------------


def test_enumerate_powers_of_two():
    g = make_group([2])
    els = enumerate_group_elements(g, 2)
    assert els == [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]


def test_enumerate_includes_signs():
    g = make_group([-1, 2])
    els = enumerate_group_elements(g, 1)
    assert set(els) == {Fraction(s) * Fraction(2) ** e for s in (1, -1) for e in (-1, 0, 1)}


# generators with signs, 1, proper fractions and dependent pairs such as
# (2, 4) and (2, 1/2)
POOL = [-1, 1, 2, 4, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), 5, 6]


def box_product(generators, exp_bound):
    """The enumeration the staged one replaced: one product per box cell."""
    out = set()
    for exps in product(range(-exp_bound, exp_bound + 1), repeat=len(generators)):
        val = Fraction(1)
        for g, e in zip(generators, exps):
            val *= Fraction(g) ** e
        out.add(val)
    return sorted(out)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=3), st.integers(0, 4))
@example([2, 4], 3)
@example([2, Fraction(1, 2)], 4)
@example([-1, 1], 2)
@example([Fraction(-2, 3), Fraction(3, 2), 6], 4)
def test_staged_enumeration_matches_box_product(gens, exp_bound):
    els = enumerate_group_elements(gens, exp_bound)
    assert els == box_product(gens, exp_bound)
    assert all(type(x) is Fraction for x in els)


def test_huge_box_is_refused_before_any_work():
    # (2 * 10^6 + 1)^2 cells: the box check raises before one is built
    with pytest.raises(ValueError, match="box too large"):
        enumerate_group_elements([-1, 2], 10**6)
    with pytest.raises(ValueError, match="box too large"):
        count_unit_equation_solutions(1, 1, [-1, 2], 10**6)


def test_enumeration_checks_in_order():
    # negative bound first, then the group, then the box
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_group_elements([0], -1)
    with pytest.raises(ValueError, match="nonzero"):
        enumerate_group_elements([0], 10**6)


def test_enumerate_dedups_dependent_generators():
    # 4 and 8 generate the same elements as 2 restricted to even*3... just
    # check no duplicates and closure under the exponent box
    els = enumerate_group_elements(make_group([4, 8]), 1)
    assert len(els) == len(set(els))


# --- unit equation scan ------------------------------------------------------------


def test_unit_equation_in_minus_one_two():
    # x + y = 1 with x, y in <-1, 2>: exactly (2,-1), (-1,2), (1/2,1/2)
    g = make_group([-1, 2])
    count, sols = count_unit_equation_solutions(1, 1, g, 6)
    assert count == 3
    assert set(sols) == {
        (Fraction(2), Fraction(-1)),
        (Fraction(-1), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 2)),
    }
    assert count <= sunit_solution_bound(g.rank)


def test_unit_equation_solutions_verify():
    rng = random.Random(502)
    for _ in range(10):
        a = rng.choice([1, 2, 3, -1])
        b = rng.choice([1, 2, -2])
        g = make_group([-1, 2])
        _, sols = count_unit_equation_solutions(a, b, g, 4)
        for x, y in sols:
            assert a * x + b * y == 1


def pair_scan(a, b, group, exp_bound):
    """The scan the lookup replaced: every pair of box elements."""
    elements = box_product(group, exp_bound)
    sols = sorted((x, y) for x in elements for y in elements if a * x + b * y == 1)
    return len(sols), tuple(sols)


def test_unit_equation_lookup_matches_pair_scan():
    rng = random.Random(503)
    pool = POOL + [-2, 3]
    coeffs = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]
    found = 0
    for _ in range(40):
        gens = rng.sample(pool, rng.randint(1, 3))
        a, b = Fraction(rng.choice(coeffs)), Fraction(rng.choice(coeffs))
        bound = rng.randint(0, 3)
        got = count_unit_equation_solutions(a, b, gens, bound)
        assert got == pair_scan(a, b, gens, bound), (a, b, gens, bound)
        found += got[0]
    assert found > 0


def test_count_above_the_finiteness_bound_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(sunit, "sunit_solution_bound", lambda r: 0)
    with pytest.raises(RuntimeError, match="internal error: 3 solutions exceed"):
        count_unit_equation_solutions(1, 1, [-1, 2], 6)


def test_no_nontrivial_three_term_progressions_in_powers_of_two():
    # x + y = 2z inside <2>: 2^a + 2^b = 2^(c+1) forces a = b = c
    els = enumerate_group_elements(make_group([2]), 6)
    for x in els:
        for y in els:
            z = (x + y) / 2
            if z in els and not (x == y == z):
                assert False, (x, y, z)


# --- three-variable criterion ----------------------------------------------------


def test_sunit_criterion():
    # ax + by + cz = 0 over a subgroup is PR iff a + b + c = 0
    v = decide_sunit_3var(1, 1, -1)
    assert v.status == "NOT_PR"
    assert v.coefficient_sum == 1
    v2 = decide_sunit_3var(1, 1, -2)
    assert v2.status == "PR_CONSTANT"
    assert v2.coefficient_sum == 0


def test_residue_coloring_leaves_no_schur_triple_monochromatic():
    # x + y = z over <2, 3> has coefficient sum 1; p = 5 divides no
    # generator, coefficient or sum, so coloring g by g mod 5 (4 colors)
    # leaves no solution in the exponent box [-3, 3]^2 monochromatic
    els = enumerate_group_elements(make_group([2, 3]), 3)
    members = set(els)
    color = {g: g.numerator * pow(g.denominator, -1, 5) % 5 for g in els}
    assert set(color.values()) == {1, 2, 3, 4}
    solutions = [(x, y, x + y) for x in els for y in els if x + y in members]
    assert len(solutions) >= 10
    for x, y, z in solutions:
        assert len({color[x], color[y], color[z]}) > 1, (x, y, z)


def test_sunit_criterion_with_group_context():
    v = decide_sunit_3var(1, 1, -2, group=[2, 3])
    assert v.status == "PR_CONSTANT"
    assert v.rank == 2
    assert v.bound == sunit_solution_bound(2)


def test_sunit_verdict_without_a_factorization():
    # the verdict reads the coefficient sum alone; rank and bound need the
    # generator factored, beyond the trial-division budget of 10^6
    p = 2_147_483_647
    for (a, b, c), status in (((1, 1, -2), "PR_CONSTANT"), ((1, 1, -1), "NOT_PR")):
        v = decide_sunit_3var(a, b, c, group=[2, p * p])
        assert (v.status, v.rank, v.bound) == (status, None, None)
        assert v.note.endswith("; rank and bound not computed: factorization of %d "
                               "incomplete: cofactor %d exceeds budget^2 = %d" % (p * p, p * p, 10**12))


def test_sunit_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        decide_sunit_3var(1, 0, -1)


def test_sunit_scale_invariance():
    rng = random.Random(503)
    for _ in range(30):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        if 0 in (a, b, c):
            continue
        k = rng.choice([2, 3, -1, 5])
        assert decide_sunit_3var(a, b, c).status == decide_sunit_3var(k * a, k * b, k * c).status
