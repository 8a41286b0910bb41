"""Exact-arithmetic core: polynomials, rank, factorization, integer roots.

Every frozen value below was computed by an independent method (brute
scan, schoolbook long division, naive row reduction) before the library
implementation existed.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtoolkit.algebra import (
    DEFAULT_FACTOR_BUDGET,
    IncompleteFactorization,
    MultiPoly,
    RatMatrix,
    UniPoly,
    constant_solutions,
    divisors_from_factors,
    factor_integer,
    integer_roots,
    matrix_rank,
)


# --- multivariate polynomials -----------------------------------------


def random_poly(rng, names, max_terms=5, max_deg=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in names)
        terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-max_coeff, max_coeff))
    return MultiPoly(tuple(names), terms)


def test_poly_eval_basic():
    # x^2*y - 3*x + 1/2 at (2, 5)
    p = MultiPoly(("x", "y"), {(2, 1): Fraction(1), (1, 0): Fraction(-3), (0, 0): Fraction(1, 2)})
    assert p.eval((2, 5)) == Fraction(4 * 5 - 6) + Fraction(1, 2)
    assert p.degree() == 3
    assert p.degree_in(("y",)) == 1


def test_poly_arithmetic_is_a_homomorphism():
    # evaluation commutes with +, -, * at 40 random points
    rng = random.Random(101)
    for _ in range(40):
        names = ("x", "y", "z")[: rng.randint(1, 3)]
        p = random_poly(rng, names)
        q = random_poly(rng, names)
        pt = tuple(Fraction(rng.randint(-6, 6)) for _ in names)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)
        assert (p - q).eval(pt) == p.eval(pt) - q.eval(pt)
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)


def test_poly_zero_degree_convention():
    z = MultiPoly.zero(("x",))
    assert z.is_zero()
    assert z.degree() == -1
    p = MultiPoly.constant(("x",), Fraction(7))
    assert p.degree() == 0


def test_diagonal_substitution():
    # x*y - z + 2 at x=y=z=s gives s^2 - s + 2
    p = MultiPoly(("x", "y", "z"), {(1, 1, 0): Fraction(1), (0, 0, 1): Fraction(-1), (0, 0, 0): Fraction(2)})
    d = p.diagonal()
    assert list(d.coeffs) == [2, -1, 1]
    rng = random.Random(102)
    for _ in range(30):
        q = random_poly(rng, ("x", "y"))
        s = Fraction(rng.randint(-8, 8))
        assert q.diagonal().eval(s) == q.eval((s, s))


def fraction_diagonal(p):
    """MultiPoly.diagonal summed on Fractions throughout."""
    coeffs = {}
    for exps, c in p.terms.items():
        coeffs[sum(exps)] = coeffs.get(sum(exps), Fraction(0)) + c
    out = [Fraction(0)] * (max(coeffs, default=-1) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return UniPoly(out)


def test_integer_diagonal_matches_fraction_reference():
    xy = ("x", "y")
    F = Fraction
    cases = [
        MultiPoly(xy, {(1, 0): F(1, 2), (0, 1): F(1, 3), (0, 0): F(-5, 6)}),  # x/2 + y/3 - 5/6
        MultiPoly(xy, {(1, 0): F(1, 2), (0, 1): F(1, 2), (0, 0): 3}),  # x/2 + y/2 + 3: w + 3
        MultiPoly(xy, {(2, 0): F(2, 3), (1, 1): F(1, 3), (0, 2): -1, (1, 0): 4, (0, 1): F(-7, 2)}),
        MultiPoly(xy, {(1, 0): 1, (0, 1): -1}),  # x - y: the zero polynomial
        MultiPoly(xy, {}),
    ]
    rng = random.Random(616)
    for _ in range(200):
        cases.append(MultiPoly(xy, {
            (rng.randint(0, 3), rng.randint(0, 3)):
                rng.choice([F(rng.randint(-9, 9)), F(rng.randint(-9, 9), rng.randint(1, 6))])
            for _ in range(rng.randint(0, 6))}))
    for p in cases:
        d = p.diagonal()
        assert d == fraction_diagonal(p)
        assert all(type(c) is Fraction for c in d.coeffs)
    assert cases[0].diagonal().coeffs == (F(-5, 6), F(5, 6))
    assert cases[1].diagonal().coeffs == (3, 1) and cases[3].diagonal().is_zero()


# --- rank --------------------------------------------------------------


def naive_rank(rows):
    """Independent fraction Gaussian elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_rank_known_values():
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert RatMatrix([[Fraction(1, 2), Fraction(1, 3)]]).rank() == 1
    assert matrix_rank([]) == 0
    with pytest.raises(ValueError):
        matrix_rank([[1, 2], [3]])


def test_rank_matches_naive_elimination():
    rng = random.Random(104)
    entries = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(12)] + [0, 0, 1, -1]
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        assert matrix_rank(rows) == naive_rank(rows)
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        assert matrix_rank(rows) == naive_rank(rows) == RatMatrix(rows).rank()
    # tall integer rows, as in character_group_trivial: valuation
    # differences, mostly 0 and +-1, many rows over few columns
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(rng.randint(5, 14))]
        if rng.random() < 0.5:  # rank deficient: every row on one line
            rows = [[r[0] * k for k in range(1, n + 1)] for r in rows]
        assert matrix_rank(rows) == naive_rank(rows)


# --- factorization -----------------------------------------------------


def test_factor_recompose():
    rng = random.Random(105)
    for _ in range(50):
        n = rng.randint(-10**6, 10**6)
        if n == 0:
            continue
        sign, factors = factor_integer(n)
        out = sign
        for p, e in factors:
            out *= p**e
        assert out == n
        # exponents positive, primes strictly increasing
        assert all(e >= 1 for _, e in factors)
        assert list(f[0] for f in factors) == sorted({f[0] for f in factors})


def test_factor_one_and_minus_one():
    assert factor_integer(1) == (1, ())
    assert factor_integer(-1) == (-1, ())


def test_factor_budget_raises():
    # 10-digit prime squared exceeds the trial-division budget
    p = 2_147_483_647
    with pytest.raises(IncompleteFactorization):
        factor_integer(p * p, budget=10**4)


def test_divisors():
    _, f = factor_integer(12)
    assert divisors_from_factors(f) == [1, 2, 3, 4, 6, 12]


# --- integer roots ------------------------------------------------------


def test_integer_roots_known():
    # (w - 2)(w + 3) = w^2 + w - 6
    assert integer_roots(UniPoly([-6, 1, 1])) == [-3, 2]
    # w^2 (w - 5)
    assert integer_roots(UniPoly([0, 0, -5, 1])) == [0, 5]
    # no roots
    assert integer_roots(UniPoly([1, 0, 1])) == []
    with pytest.raises(ValueError):
        integer_roots(UniPoly([]))


def test_integer_roots_against_brute_scan():
    rng = random.Random(106)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))]
        if all(c == 0 for c in coeffs):
            continue
        p = UniPoly(coeffs)
        brute = [s for s in range(-1000, 1001) if p.eval(s) == 0]
        got = integer_roots(p)
        # a degree <= 4 integer polynomial has all roots within the scan
        assert got == brute


def test_integer_roots_binomial_needs_no_factoring(monkeypatch):
    import prtoolkit.algebra as algebra

    def no_factoring(*args):
        raise AssertionError("factor_integer called on a binomial")

    monkeypatch.setattr(algebra, "factor_integer", no_factoring)
    # (10^9 + 7)(10^9 + 9) is not a square, and trial division cannot factor it
    assert integer_roots(UniPoly([-1000000016000000063, 0, 1])) == []
    assert integer_roots(UniPoly([-1000000016000000064, 0, 1])) == [-1000000008, 1000000008]
    assert integer_roots(UniPoly([8, 0, 0, 1])) == [-2]
    assert integer_roots(UniPoly([-162, 0, 0, 0, 2])) == [-3, 3]
    assert integer_roots(UniPoly([0, 0, 162, 0, 0, 0, 2])) == [0]
    assert integer_roots(UniPoly([-33, 0, 0, 0, 0, 1])) == []
    assert integer_roots(UniPoly([Fraction(-9, 2), Fraction(1, 2)])) == [9]
    assert integer_roots(UniPoly([-(3 ** 40)] + [0] * 39 + [1])) == [-3, 3]
    assert integer_roots(UniPoly([7, 0, 2])) == []


def test_integer_roots_binomial_against_brute_scan():
    rng = random.Random(108)
    for _ in range(150):
        n = rng.randint(1, 6)
        cn = rng.choice([c for c in range(-4, 5) if c])
        if rng.random() < 0.5:
            w = rng.randint(-6, 6) or 1
            c0 = -cn * w ** n
        else:
            c0 = rng.choice([c for c in range(-200, 201) if c])
        p = UniPoly([c0] + [0] * (n - 1) + [cn])
        assert integer_roots(p) == [s for s in range(-200, 201) if p.eval(s) == 0]


def test_integer_roots_rational_coefficients():
    # (w/2 - 1) has root 2 after clearing denominators
    assert integer_roots(UniPoly([Fraction(-1), Fraction(1, 2)])) == [2]


# --- constant solutions -------------------------------------------------


@st.composite
def diagonal_systems(draw):
    """1-3 polynomials in 1-4 variables of degree <= 3 with small coefficients.

    A drawn integer r may be planted as a constant solution of every
    polynomial, and a quarter of the polynomials have their terms of each
    degree cancelled on the diagonal (for k >= 2, multiples of x_i - x_k).
    """
    k = draw(st.integers(1, 4))
    names = ("x", "y", "z", "w")[:k]
    planted = draw(st.one_of(st.none(), st.integers(-4, 4)))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = [0] * k
            for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
                exps[i] += 1
            coeff = Fraction(draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))),
                             draw(st.sampled_from((1, 1, 2))))
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
        if draw(st.integers(0, 3)) == 0:
            # cancel each degree's coefficient sum on the last variable's power
            for d in {sum(e) for e in terms}:
                total = sum(c for e, c in terms.items() if sum(e) == d)
                last = (0,) * (k - 1) + (d,)
                terms[last] = terms.get(last, 0) - total
        p = MultiPoly(names, terms)
        if planted is not None:
            p = p - MultiPoly.constant(names, p.eval((planted,) * k))
        polys.append(p)
    return polys


def brute_constant_solutions(polys, domain):
    """Scan w over the Cauchy bound of the diagonals, evaluating each P_i(w, .., w)."""
    diagonals = []
    for p in polys:
        by_degree = {}
        for exps, c in p.terms.items():
            by_degree[sum(exps)] = by_degree.get(sum(exps), 0) + c
        diagonals.append({d: c for d, c in by_degree.items() if c != 0})
    if not any(diagonals):
        return "all"
    # every root of c_0 + .. + c_n w^n lies within 1 + max |c_i / c_n|
    bound = max(
        1 + math.ceil(max(abs(c / diag[max(diag)]) for c in diag.values()))
        for diag in diagonals if diag
    )
    lowest = 1 if domain == "N" else -bound
    return tuple(
        w for w in range(lowest, bound + 1)
        if all(p.eval((w,) * len(p.vars)) == 0 for p in polys)
    )


@settings(max_examples=300, deadline=None)
@given(diagonal_systems())
def test_constant_solutions_match_a_scan_of_the_root_bound(polys):
    for domain in ("N", "Z"):
        assert constant_solutions([p.diagonal() for p in polys], domain) == (
            brute_constant_solutions(polys, domain)
        ), (polys, domain)


def test_constant_solutions_known_values():
    def diag(*coeffs):
        return UniPoly([Fraction(c) for c in coeffs])

    # w^2 - 4 and w - 2 share w = 2; -2 is a root of the first only
    assert constant_solutions([diag(-4, 0, 1), diag(-2, 1)], "Z") == (2,)
    assert constant_solutions([diag(-4, 0, 1)], "Z") == (-2, 2)
    assert constant_solutions([diag(-4, 0, 1)], "N") == (2,)
    # zero diagonals are skipped; only zero diagonals mean every constant
    assert constant_solutions([diag(), diag(0, 1)], "Z") == (0,)
    assert constant_solutions([diag(), diag()], "N") == "all"
    # a nonzero constant diagonal has no root
    assert constant_solutions([diag(3), diag()], "Z") == ()
    with pytest.raises(ValueError):
        constant_solutions([diag(0, 1)], "Q")


# --- divisibility by x - y ----------------------------------------------


def long_division_by_x_minus_y(p):
    """Oracle: repeatedly eliminate the leading x power using x = y + (x-y)."""
    # remainder of p modulo (x - y) equals p with x := y; zero remainder
    # is exactly divisibility
    assert p.vars == ("x", "y")
    rem = {}
    for (ex, ey), c in p.terms.items():
        key = ex + ey
        rem[key] = rem.get(key, Fraction(0)) + c
    return all(v == 0 for v in rem.values())


def test_divides_x_minus_y_matches_substitution_oracle():
    rng = random.Random(107)
    hits = 0
    for k in range(80):
        q = random_poly(rng, ("x", "y"))
        xy = MultiPoly(("x", "y"), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
        p = q * xy if k % 2 == 0 else q
        want = long_division_by_x_minus_y(p)
        # every constant solves p exactly when (x - y) divides p
        assert (constant_solutions([p.diagonal()], "Z") == "all") == want
        hits += want
    assert hits >= 40  # every even k is constructed divisible
