"""Finite solution enumeration and the avoiding-coloring search.

Boundary values frozen here were cross-checked against independent
scans of all 2^N colorings (see the brute loops below); the Schur
boundary 4/5 and the van der Waerden 3-progression boundary 8/9 agree
with the classical values.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prtoolkit import ramsey
from prtoolkit.algebra import MultiPoly, RatMatrix
from prtoolkit.equations import (
    GeneralPolySystem,
    LinearSystem,
    classify,
    linear_polys,
    parse_equation_text,
)
from prtoolkit.polyexp import PolyExpEquation, PolyExpTerm, polyexp_eval
from prtoolkit.ramsey import (
    BudgetExceeded,
    enumerate_solutions,
    filter_injectivity,
    search_avoiding_coloring,
    verify_coloring,
)


def linsys(coeffs, rhs=0):
    return LinearSystem(
        variables=tuple("xyzw"[: len(coeffs)]),
        matrix=RatMatrix([[Fraction(c) for c in coeffs]]),
        rhs=(Fraction(rhs),),
    )


def rowsys(rows, rhs):
    return LinearSystem(
        variables=tuple("xyzw"[: len(rows[0])]),
        matrix=RatMatrix([[Fraction(a) for a in row] for row in rows]),
        rhs=tuple(Fraction(b) for b in rhs),
    )


def as_general(cls):
    """The same rows as a GeneralPolySystem, which takes the back-substitution path."""
    return GeneralPolySystem(cls.variables, tuple(linear_polys(cls)))


def linear_scan(cls, N):
    k = len(cls.variables)
    return scan(lambda *s: all(sum(a * v for a, v in zip(row, s)) == b
                               for row, b in zip(cls.matrix.rows, cls.rhs)), k, N)


SCHUR = linsys((1, 1, -1))


# --- enumeration -------------------------------------------------------------


def scan(holds, k, N):
    """The tuples of [1, N]^k satisfying `holds`, in lexicographic order."""
    return tuple(s for s in itertools.product(range(1, N + 1), repeat=k) if holds(*s))


def test_schur_solutions_n4():
    assert enumerate_solutions(SCHUR, 4) == (
        (1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 3), (2, 2, 4), (3, 1, 4),
    )


def test_enumeration_matches_product_scan():
    # one- or two-row systems with Fraction entries built through RatMatrix,
    # right-hand sides that are mostly nonzero (half of them planted at a
    # point of the grid, so that multi-row systems have solutions too),
    # and in about a fifth a zero last column, which leaves the last
    # variable unconstrained
    rng = random.Random(701)
    seen = {"multirow": 0, "zero_last_column": 0, "inhomogeneous": 0}
    for _ in range(150):
        k = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(k)]
            for _ in range(rng.randint(1, 2))
        ]
        zero_last = rng.random() < 0.2
        if zero_last:
            for row in rows:
                row[-1] = Fraction(0)
        N = rng.choice((1, 5, 9) if k < 4 else (1, 5))
        if rng.random() < 0.5:
            point = [rng.randint(1, N) for _ in range(k)]
            rhs = tuple(sum(a * v for a, v in zip(row, point)) for row in rows)
        else:
            rhs = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in rows)
        sys_ = LinearSystem(
            variables=tuple("xyzw"[:k]), matrix=RatMatrix(rows), rhs=rhs
        )

        def holds(*s):
            return all(
                sum(a * v for a, v in zip(row, s)) == b for row, b in zip(rows, rhs)
            )

        want = scan(holds, k, N)
        assert enumerate_solutions(sys_, N) == want, (rows, rhs, N)
        if want:
            seen["multirow"] += len(rows) > 1
            seen["zero_last_column"] += zero_last
            seen["inhomogeneous"] += any(rhs)
    assert min(seen.values()) >= 3, seen


ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
)


@st.composite
def linear_systems(draw):
    """(system, N): k = 2..4 variables, 1..3 rows, N <= 12 (<= 8 when k = 4,
    to keep the reference scan short); the right-hand side is zero, random,
    or planted at a point of the grid."""
    k = draw(st.integers(2, 4))
    N = draw(st.integers(1, 12 if k < 4 else 8))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=k, max_size=k), min_size=1, max_size=3))
    rhs_kind = draw(st.sampled_from(("zero", "random", "planted")))
    if rhs_kind == "zero":
        rhs = [0] * len(rows)
    elif rhs_kind == "random":
        rhs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    else:
        point = draw(st.lists(st.integers(1, N), min_size=k, max_size=k))
        rhs = [sum(a * v for a, v in zip(row, point)) for row in rows]
    return rowsys(rows, rhs), N


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_linear_enumeration_matches_product_scan(system_and_N):
    cls, N = system_and_N
    assert enumerate_solutions(cls, N) == linear_scan(cls, N)


def monomials(k, last):
    """Exponent tuples of k variables and total degree 1..3 whose last
    exponent is 0 (last = "none"), the whole degree ("pure") or neither."""
    for exps in itertools.product(range(4), repeat=k):
        if 1 <= sum(exps) <= 3 and {"none": exps[-1] == 0, "pure": exps[-1] == sum(exps),
                                    "mixed": 0 < exps[-1] < sum(exps)}[last]:
            yield exps


COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from((1, 2)))


@st.composite
def poly_systems(draw):
    """(system, N, TABLE_BYTES): k = 1..4 variables, 1..2 rows of degree <= 3
    with small coefficients, N <= 8 (<= 6 when k = 4).  In each row the last
    variable z is absent, separated (no term with z holds another variable)
    or mixed; half the rows have their constant planted at a grid point."""
    k = draw(st.integers(1, 4))
    N = draw(st.integers(1, 8 if k < 4 else 6))
    point = draw(st.lists(st.integers(1, N), min_size=k, max_size=k))
    polys = []
    for _ in range(draw(st.integers(1, 2))):
        shape = draw(st.sampled_from(("absent", "separated", "mixed") if k > 1
                                     else ("absent", "separated")))
        terms = draw(st.dictionaries(st.sampled_from(list(monomials(k, "none")) or [(0,) * k]),
                                     COEFFS, max_size=3))
        if shape != "absent":
            pool = list(monomials(k, "pure" if shape == "separated" else "mixed"))
            terms.update(draw(st.dictionaries(st.sampled_from(pool), COEFFS,
                                              min_size=1, max_size=2)))
        poly = MultiPoly(tuple("xyzw"[:k]), terms)
        if draw(st.booleans()):
            poly = MultiPoly(poly.vars, {**poly.terms, (0,) * k: poly.terms.get((0,) * k, 0)
                                         - poly.eval(point)})
        polys.append(poly)
    table_bytes = draw(st.sampled_from((ramsey.TABLE_BYTES, 600, 1)))
    return GeneralPolySystem(tuple("xyzw"[:k]), tuple(polys)), N, table_bytes


@settings(max_examples=200, deadline=None)
@given(poly_systems())
def test_polynomial_enumeration_matches_product_scan(system_N_and_table_bytes):
    cls, N, table_bytes = system_N_and_table_bytes
    want = scan(lambda *s: all(p.eval(s) == 0 for p in cls.polys), len(cls.variables), N)
    with mock.patch.object(ramsey, "TABLE_BYTES", table_bytes):
        assert enumerate_solutions(cls, N) == want


def rado_members():
    """Criterion 7's NOT_PR equations: 1..3 coefficients in [-4, 4], no
    subset summing to zero (372 equations in 60 symmetry classes)."""
    for n in (1, 2, 3):
        for coeffs in itertools.product([c for c in range(-4, 5) if c], repeat=n):
            if all(sum(c for c, bit in zip(coeffs, bits) if bit)
                   for bits in itertools.product((0, 1), repeat=n) if any(bits)):
                yield coeffs


def test_linear_path_matches_back_substitution():
    members = list(rado_members())
    assert len(members) == 372
    for coeffs in members:
        cls = linsys(coeffs)
        assert enumerate_solutions(cls, 50) == enumerate_solutions(as_general(cls), 50), coeffs
    ap4 = classify(parse_equation_text("x + z = 2*y; y + w = 2*z"))
    sols = enumerate_solutions(ap4, 35)
    assert len(sols) == 35 + 2 * 187  # constant progressions, then d = +-1..+-11
    assert sols == enumerate_solutions(as_general(ap4), 35)


LINEAR_BRANCHES = {
    # t is the second-to-last variable, u the last; the pivot is the first
    # row with a nonzero coefficient on u
    "pivot_without_t": [rowsys([[1, 0, 2]], [10]), rowsys([[1, 0, 3]], [50]),
                        rowsys([[1, 0, 2], [1, 1, -3]], [10, 0])],
    "row_without_u_pins_t": [rowsys([[1, 1, -2], [0, 1, 0]], [0, 3]),
                             rowsys([[0, 1, 0], [1, 1, -2]], [3, 0]),
                             rowsys([[1, 1, -1], [1, -2, 0]], [0, 0]),
                             rowsys([[1, 1, -1], [1, 1, 0]], [0, 7])],
    "no_pivot": [rowsys([[1, 2, 0]], [9]), rowsys([[1, -1, 0], [0, 0, 0]], [0, 0]),
                 rowsys([[0, 0, 0]], [0])],
    "not_coprime": [linsys((4, 6, -2)), linsys((1, 4, -6)), linsys((3, -6, 9), 12)],
    "negative_t_and_u": [linsys((1, -2, -3)), linsys((-1, -1, -1), -12),
                         linsys((5, -3, -7), 4)],
    "two_variables": [linsys((-2, 1)), linsys((3, 5), 60), linsys((0, 2), 8),
                      rowsys([[1, 1], [1, -1]], [10, 2]), rowsys([[1, 1], [2, 2]], [10, 21])],
}


@pytest.mark.parametrize("branch", sorted(LINEAR_BRANCHES))
def test_linear_path_branches(branch):
    for cls in LINEAR_BRANCHES[branch]:
        for N in (1, 6, 13):
            want = linear_scan(cls, N)
            assert enumerate_solutions(cls, N) == want, (branch, cls, N)
            assert enumerate_solutions(as_general(cls), N) == want, (branch, cls, N)


def test_enumeration_two_variable_polynomial():
    sys_ = classify(parse_equation_text("x*y = 12"))
    sols = enumerate_solutions(sys_, 12)
    assert set(sols) == {(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)}


def test_enumeration_polyexp_direct_scan():
    eq = classify(parse_equation_text("(y - 2*x)*2^x - 0*y = 0"))
    assert isinstance(eq, PolyExpEquation)
    sols = enumerate_solutions(eq, 8)
    assert sols == scan(lambda *s: polyexp_eval(eq, s) == 0, len(eq.variables), 8)
    named = [dict(zip(eq.variables, s)) for s in sols]
    assert named == [{"x": a, "y": 2 * a} for a in range(1, 5)]


@st.composite
def small_polyexps(draw):
    """(equation, N): x and y in exponent position, bases in [-3, 3],
    rational coefficients, a parameter t when drawn, and y folded to
    base 1 in every term when drawn.  The first term's constant is set
    so that the sum vanishes at a drawn point of [1, N]^k."""
    variables = ("x", "y", "t") if draw(st.booleans()) else ("x", "y")
    k, N = len(variables), draw(st.integers(1, 5))
    bases = st.sampled_from((-3, -2, -1, 1, 2, 3))
    ybases = st.just(1) if draw(st.booleans()) else bases
    chars = draw(st.lists(st.tuples(bases, ybases), min_size=1, max_size=3, unique=True))
    coeffs = st.fractions(-3, 3, max_denominator=4).filter(bool)
    monos = st.dictionaries(st.tuples(*[st.integers(0, 2)] * k), coeffs, min_size=1, max_size=3)
    terms = [PolyExpTerm(MultiPoly(variables, draw(monos)), c) for c in chars]
    param = "t" if k == 3 else None
    eq = PolyExpEquation(variables, ("x", "y"), param, tuple(terms))
    point = draw(st.tuples(*[st.integers(1, N)] * k))
    x, y = point[:2]
    unit = Fraction(chars[0][0]) ** x * Fraction(chars[0][1]) ** y
    first = terms[0].poly + MultiPoly.constant(variables, -polyexp_eval(eq, point) / unit)
    if first.is_zero():
        return eq, N
    return PolyExpEquation(variables, ("x", "y"), param,
                           (PolyExpTerm(first, chars[0]), *terms[1:])), N


@settings(max_examples=200, deadline=None)
@given(small_polyexps())
def test_polyexp_int_scan_matches_polyexp_eval(case):
    eq, N = case
    k = len(eq.variables)
    assert enumerate_solutions(eq, N) == scan(lambda *s: polyexp_eval(eq, s) == 0, k, N)
    # one common denominator: the int sum is the exact value times one positive constant
    terms = ramsey._exp_terms(eq)
    ratios = {ramsey._exp_value(terms, p) / polyexp_eval(eq, p)
              for p in itertools.product(range(1, N + 1), repeat=k) if polyexp_eval(eq, p)}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


def test_multirow_enumeration():
    # x + y = z and y = 2x: solutions (a, 2a, 3a)
    sys_ = classify(parse_equation_text("x + y - z = 0 ; 2*x - y = 0"))
    assert enumerate_solutions(sys_, 9) == ((1, 2, 3), (2, 4, 6), (3, 6, 9))


def test_enumeration_identically_zero_rows():
    # x - x = 0 holds everywhere; a zero row beside a real one changes
    # nothing; a zero row with a nonzero right-hand side has no solutions
    always = classify(parse_equation_text("x - x = 0"))
    assert enumerate_solutions(always, 4) == ((1,), (2,), (3,), (4,))
    zero_and_schur = LinearSystem(
        variables=("x", "y", "z"),
        matrix=RatMatrix([[0, 0, 0], [1, 1, -1]]),
        rhs=(Fraction(0), Fraction(0)),
    )
    assert enumerate_solutions(zero_and_schur, 6) == enumerate_solutions(SCHUR, 6)
    never = LinearSystem(
        variables=("x", "y"), matrix=RatMatrix([[0, 0]]), rhs=(Fraction(1),)
    )
    assert enumerate_solutions(never, 5) == ()


POLY_CASES = (
    # z = -3 is negative, z = 2x a double root, z = x + y + 20 above N
    ("(z + 3)*(z - 2*x)*(z - 2*x)*(z - x - y - 20) = 0",
     lambda x, y, z: (z + 3) * (z - 2 * x) ** 2 * (z - x - y - 20) == 0),
    ("x^2 + y^2 = z^2", lambda x, y, z: x * x + y * y == z * z),
    ("x*y*z = 24", lambda x, y, z: x * y * z == 24),
    # roots 1, 2, 3 where x = y, fewer or none elsewhere
    ("z^3 - 6*z^2 + 11*z - 6 = x - y",
     lambda x, y, z: z ** 3 - 6 * z ** 2 + 11 * z - 6 == x - y),
    # the factor z^2 carries only the root 0
    ("z^2*y = x*z^3", lambda x, y, z: z * z * y == x * z ** 3),
    ("1/2*x*y - 1/3*z^2 = 0", lambda x, y, z: 3 * x * y == 2 * z * z),
    ("y^2 = 4*x", lambda x, y: y * y == 4 * x),
    ("x^2 = 4", lambda x: x * x == 4),
    ("(y - x)*(y - x) = 0", lambda x, y: x == y),
    ("x*y - z^2 = 0; x + y - 2*z = 0", lambda x, y, z: x * y == z * z and x + y == 2 * z),
    ("x^2 = y*z; y + z = 2*w", lambda x, y, z, w: x * x == y * z and y + z == 2 * w),
    # z absent from the first row, separated in the second
    ("y = x^2; z = x^3", lambda x, y, z: y == x * x and z == x ** 3),
    ("x^2 + y^2 = 2*z^2", lambda x, y, z: x * x + y * y == 2 * z * z),
    # z^2 - 5z takes each of -4 and -6 twice, so a lookup gives two z;
    # written with x first, since variables come in order of appearance
    ("x - y = z^2 - 5*z", lambda x, y, z: z * z - 5 * z == x - y),
    ("x - y = z^2 - 5*z; z = x", lambda x, y, z: z * z - 5 * z == x - y and z == x),
    ("x + y^300 = z^300", lambda x, y, z: x + y ** 300 == z ** 300),
)


@pytest.mark.parametrize("text,holds", POLY_CASES)
def test_polynomial_enumeration_matches_scan(text, holds, monkeypatch):
    # variables come in order of first appearance; `holds` takes them by
    # name.  TABLE_BYTES = 600 cuts y into blocks of a few values at N = 7
    # and 15 and drops the lookup map at N = 15; at 1, y runs one at a time
    cls = classify(parse_equation_text(text))
    k = len(cls.variables)
    for table_bytes in (ramsey.TABLE_BYTES, 600, 1):
        monkeypatch.setattr(ramsey, "TABLE_BYTES", table_bytes)
        for N in (1, 7, 15) if k < 4 else (1, 7):
            want = scan(lambda *s: holds(**dict(zip(cls.variables, s))), k, N)
            assert enumerate_solutions(cls, N) == want, (text, N, table_bytes)


def test_separated_polynomials_are_looked_up(monkeypatch):
    # the powers of y are tabulated once per call, and only for the
    # exponent that occurs; z is looked up, never solved by `_roots`
    tabulated = []
    powers = ramsey._powers
    monkeypatch.setattr(ramsey, "_powers",
                        lambda values, exps: tabulated.append(set(exps)) or powers(values, exps))
    monkeypatch.setattr(ramsey, "_roots", None)
    cls = classify(parse_equation_text("x + y^300 = z^300"))
    assert enumerate_solutions(cls, 6) == ()
    assert tabulated == [{300}]
    pythagorean = classify(parse_equation_text("x^2 + y^2 = z^2"))
    assert enumerate_solutions(pythagorean, 20) == scan(lambda x, y, z: x * x + y * y == z * z, 3, 20)


def test_linear_in_z_columns_are_solved_without_roots():
    # x*y*z - 24 is c1 z + c0 under each (x, y): every column is solved by
    # exact division, so none of the 40,000 cells calls `_roots`
    cls = classify(parse_equation_text("x*y*z = 24"))
    with mock.patch.object(ramsey, "_roots", wraps=ramsey._roots) as roots:
        sols = enumerate_solutions(cls, 200)
    assert roots.call_count == 0
    assert sols == tuple((x, y, 24 // (x * y)) for x in range(1, 25) for y in range(1, 25)
                         if 24 % (x * y) == 0)
    # c1 = c0 = 0 admits every z: x*z - y*z = 0 holds on the diagonal x = y
    diagonal = classify(parse_equation_text("(x - y)*z = 0"))
    with mock.patch.object(ramsey, "_roots", wraps=ramsey._roots) as roots:
        assert enumerate_solutions(diagonal, 9) == scan(lambda x, y, z: x == y, 3, 9)
    assert roots.call_count == 0


def divisor_scan_roots(cs, N):
    """Roots in [1, N] by testing every divisor of the lowest nonzero coefficient."""
    low = next(d for d, c in enumerate(cs) if c)
    return [t for t in range(1, min(N, abs(cs[low])) + 1)
            if cs[low] % t == 0 and sum(c * t ** d for d, c in enumerate(cs)) == 0]


def planted_quadratic(k, p, r, s):
    """k (p t - r)(t - s), lowest degree first."""
    return [k * r * s, -k * (r + p * s), k * p]


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
        st.builds(planted_quadratic, st.integers(-6, 6), st.integers(1, 4),
                  st.integers(-40, 90), st.integers(-40, 90)),
    ),
    st.integers(0, 3),
    st.integers(1, 60),
)
@example((6, -5, 1), 1, 10)  # t (t - 2)(t - 3)
@example((-6, 5, -1), 0, 10)  # negative leading coefficient
@example((49, -14, 1), 0, 10)  # double root 7
@example((5, 1, 1), 0, 10)  # negative discriminant
@example((-50, -5, 1), 2, 9)  # roots -5 and 10, both outside [1, 9]
@example((15, -13, 2), 0, 10)  # roots 3/2 and 5
def test_quadratic_roots_match_divisor_scan(abc, low, N):
    c, b, a = abc
    if a == 0 or c == 0:
        return
    cs = [0] * low + [c, b, a]
    assert ramsey._roots(cs, N) == divisor_scan_roots(cs, N)


def test_cell_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_solutions(SCHUR, 10**6)
    # the charge is N^(k-2) outer prefixes, times N values of the
    # second-to-last variable (one where a non-pivot row pins it), times
    # N values of the last (one where an equation holds it): exactly at
    # the budget enumerates, one cell over raises
    ap4 = classify(parse_equation_text("x + z = 2*y; y + w = 2*z"))
    identity = classify(parse_equation_text("x = x"))
    commuted = classify(parse_equation_text("x + y = y + x"))
    for cls, N, cells, count in ((SCHUR, 10, 100, 45), (ap4, 35, 35 ** 2, 409),
                                 (linsys((2, -1)), 7, 7, 3), (identity, 6, 6, 6),
                                 (commuted, 5, 25, 25)):
        with mock.patch.object(ramsey, "DEFAULT_CELL_BUDGET", cells):
            assert len(enumerate_solutions(cls, N)) == count
        with mock.patch.object(ramsey, "DEFAULT_CELL_BUDGET", cells - 1), \
                pytest.raises(BudgetExceeded, match="enumeration needs %d cells" % cells):
            enumerate_solutions(cls, N)


def test_system_without_variables_is_an_error():
    empty = LinearSystem(variables=(), matrix=RatMatrix([[]]), rhs=(Fraction(1),))
    with pytest.raises(ValueError, match="no variables"):
        enumerate_solutions(empty, 5)


# --- column-wise kernels -------------------------------------------------------
# Each kernel runs over whole columns of solutions; the per-solution loops
# they replaced are kept here as references.


def rechecked_by_value(candidates, scaled):
    """The per-candidate re-check: every scaled polynomial valued by `_value`."""
    checks = [[(c, ramsey._sparse(exps)) for c, exps in terms] for terms in scaled]
    return tuple(s for s in candidates if all(ramsey._value(terms, s) == 0 for terms in checks))


@st.composite
def recheck_inputs(draw):
    """(scaled polynomials, candidates): a system from `linear_systems` or
    `poly_systems` (k = 1..4), sometimes with a `0 = 0` row, and candidates
    that mix its solutions with random tuples, zero and negative entries
    included, in a random order."""
    cls, N = draw(st.one_of(linear_systems(), poly_systems().map(lambda t: t[:2])))
    vars_, polys = ramsey._system_polys(cls)
    if draw(st.booleans()):
        polys.append(MultiPoly(vars_, {}))
    k = len(vars_)
    noise = draw(st.lists(st.tuples(*[st.integers(-2, N + 2)] * k), max_size=30))
    candidates = draw(st.permutations(list(enumerate_solutions(cls, N)) + noise))
    return [ramsey._scaled_terms(p) for p in polys], tuple(candidates)


@settings(max_examples=200, deadline=None)
@given(recheck_inputs())
@example(([ramsey._scaled_terms(MultiPoly(("x",), {(1,): 1, (0,): -2}))], ((2,), (1,), (2,))))
@example(([[]], ((1, 2), (3, 4))))
@example(([[(1, (1, 1))]], ()))
def test_recheck_matches_value(inputs):
    scaled, candidates = inputs
    rows, cols = ramsey._rechecked(candidates, scaled)
    assert rows == rechecked_by_value(candidates, scaled)
    # the kept columns are cut from the candidates' columns, not transposed again
    assert cols == list(zip(*rows))


def test_recheck_drops_a_false_candidate(monkeypatch):
    # a tampered closed form that also proposes (1, 1, 1), which is no
    # solution of x + y = z: the exact re-check drops it
    real = ramsey._linear_candidates
    proposed = []

    def tampered(*args):
        proposed.append((1, 1, 1))
        yield (1, 1, 1)
        yield from real(*args)

    monkeypatch.setattr(ramsey, "_linear_candidates", tampered)
    assert enumerate_solutions(SCHUR, 6) == linear_scan(SCHUR, 6)
    assert proposed == [(1, 1, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[st.integers(-3, 3)] * k), max_size=20), st.integers(1, k))))
def test_filter_injectivity_counts_distinct_values(solutions_and_r):
    solutions, r = solutions_and_r
    assert filter_injectivity(solutions, r) == tuple(s for s in solutions if len(set(s)) >= r)


def verify_by_solution(coloring, solutions):
    """The per-solution check verify_coloring replaced."""
    offenders = []
    for sol in solutions:
        if any(v < 1 or v > len(coloring) for v in sol):
            raise ValueError("solution %r escapes the colored range" % (sol,))
        if len({coloring[v - 1] for v in sol}) == 1:
            offenders.append(tuple(sol))
    return not offenders, tuple(offenders)


@st.composite
def colorings_and_solutions(draw):
    """(coloring, solutions): up to 8 colored integers in up to 3 colors,
    and solutions of one arity 0..4, as tuples or lists, whose values may
    fall just outside [1, N]."""
    coloring = draw(st.lists(st.integers(0, 2), max_size=8))
    k = draw(st.integers(0, 4))
    values = st.integers(-1, len(coloring) + 1) if draw(st.booleans()) else st.integers(
        1, max(len(coloring), 1))
    sol = st.lists(values, min_size=k, max_size=k)
    solutions = draw(st.lists(st.one_of(sol, sol.map(tuple)), max_size=12))
    return tuple(coloring) if draw(st.booleans()) else coloring, solutions


@settings(max_examples=300, deadline=None)
@given(colorings_and_solutions())
@example(((0, 1), [(1, 2, 3)]))
@example(((0, 0, 1), [(1, 2), (0, 1), (4, 1)]))
@example(((0, 1, 0), [(1,), (2,)]))
def test_verify_coloring_matches_per_solution_check(inputs):
    coloring, solutions = inputs
    try:
        want = verify_by_solution(coloring, solutions)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            verify_coloring(coloring, solutions)
        assert str(got.value) == str(e)
    else:
        assert verify_coloring(coloring, solutions) == want


def test_verify_coloring_on_empty_and_mixed_input():
    assert verify_coloring((), ()) == (True, ())
    assert verify_coloring((0, 1), []) == (True, ())
    assert verify_coloring((0, 1), [(), ()]) == (True, ())  # no value, no color
    # zip would stop at the shortest solution and skip the value 3
    with pytest.raises(ValueError, match=r"mixed arity: \[2, 3\]"):
        verify_coloring((0, 0), [(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError, match="mixed arity"):
        verify_coloring((0, 1), [(1, 2), ()])


# --- injectivity filter -----------------------------------------------------------


def test_filter_injectivity():
    sols = ((1, 1, 2), (1, 2, 3), (2, 2, 2))
    assert filter_injectivity(sols, 1) == sols
    assert filter_injectivity(sols, 2) == ((1, 1, 2), (1, 2, 3))
    assert filter_injectivity(sols, 3) == ((1, 2, 3),)
    with pytest.raises(ValueError):
        filter_injectivity(sols, 0)
    with pytest.raises(ValueError):
        filter_injectivity(sols, 4)


# --- coloring verification ----------------------------------------------------------


def test_verify_coloring_reports_all_offenders():
    sols = enumerate_solutions(SCHUR, 5)
    ok, offenders = verify_coloring((0, 0, 0, 0, 0), sols)
    assert not ok
    assert set(offenders) == set(sols)
    ok2, offenders2 = verify_coloring((0, 1, 1, 0), enumerate_solutions(SCHUR, 4))
    assert ok2 and offenders2 == ()


def test_verify_coloring_coverage_gap():
    with pytest.raises(ValueError):
        verify_coloring((0, 1), ((1, 2, 3),))  # value 3 not colored


# --- search ---------------------------------------------------------------------------


def test_schur_boundary():
    r4 = search_avoiding_coloring(SCHUR, 4, 2)
    assert r4.status == "AVOIDING"
    assert r4.coloring == (0, 1, 1, 0)  # lexicographically least canonical
    ok, _ = verify_coloring(r4.coloring, enumerate_solutions(SCHUR, 4))
    assert ok
    r5 = search_avoiding_coloring(SCHUR, 5, 2)
    assert r5.status == "FORCED"
    assert r5.coloring is None


def test_schur_boundary_against_brute_force():
    for N, want in ((4, True), (5, False)):
        sols = enumerate_solutions(SCHUR, N)
        brute = any(
            all(len({bits >> (x - 1) & 1 for x in s}) > 1 for s in sols)
            for bits in range(1 << N)
        )
        got = search_avoiding_coloring(SCHUR, N, 2).status
        assert brute == want == (got == "AVOIDING")


def test_three_colors_push_schur_past_five():
    r = search_avoiding_coloring(SCHUR, 13, 3)
    assert r.status == "AVOIDING"
    ok, _ = verify_coloring(r.coloring, enumerate_solutions(SCHUR, 13))
    assert ok
    assert search_avoiding_coloring(SCHUR, 14, 3).status == "FORCED"


def test_van_der_waerden_three_progressions():
    # x + y = 2z with injectivity 2 is exactly the nonconstant 3-AP relation
    ap = linsys((1, 1, -2))
    r8 = search_avoiding_coloring(ap, 8, 2, min_injectivity=2)
    assert r8.status == "AVOIDING"
    assert search_avoiding_coloring(ap, 9, 2, min_injectivity=2).status == "FORCED"


def test_double_sum_boundary():
    # 2x + 2y = z: 2-forced from N = 34 on, avoidable at 33
    ls = linsys((2, 2, -1))
    assert search_avoiding_coloring(ls, 33, 2).status == "AVOIDING"
    assert search_avoiding_coloring(ls, 34, 2).status == "FORCED"


def test_quadruple_boundary():
    # x + y = 4z: brute-force-verified 2-color boundary at 9/10
    ls = linsys((1, 1, -4))
    r9 = search_avoiding_coloring(ls, 9, 2)
    assert r9.status == "AVOIDING"
    assert r9.coloring == (0, 1, 1, 0, 0, 0, 1, 1, 0)
    assert search_avoiding_coloring(ls, 10, 2).status == "FORCED"


def triggers_by_loop(supports, N):
    """The trigger table as the search built it before `_triggers`."""
    triggers = [[] for _ in range(N + 1)]
    for support in set(supports):
        t = support.bit_length() - 1
        e = (support ^ 1 << t).bit_length() - 1
        triggers[e].append((support ^ 1 << t ^ 1 << e, t))
    return triggers


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 80).flatmap(lambda N: st.tuples(st.just(N), st.lists(
    st.sets(st.integers(1, N), min_size=2, max_size=4), max_size=40))))
def test_trigger_table_matches_loop(N_and_supports):
    N, sets = N_and_supports
    supports = [sum(1 << v for v in values) for values in sets]
    triggers, domains = ramsey._triggers(supports, N)
    assert triggers == triggers_by_loop(supports, N)
    # an element's domain: every value below it in a support where it is second-largest
    assert domains == [sum({1 << v for values in sets if sorted(values)[-2] == e
                            for v in values if v < e})
                       for e in range(N + 1)]


def test_dfs_node_counts_pinned():
    # van der Waerden W(3;3) = 27 and W(4;2) = 35: the exhaustive search
    # tries exactly these many colors
    ap3 = classify(parse_equation_text("x + z = 2*y"))
    r = search_avoiding_coloring(ap3, 27, 3, min_injectivity=2)
    assert (r.status, r.nodes, r.solution_count) == ("FORCED", 30284, 338)
    ap4 = classify(parse_equation_text("x + z = 2*y; y + w = 2*z"))
    r = search_avoiding_coloring(ap4, 35, 2, min_injectivity=2)
    assert (r.status, r.nodes, r.solution_count) == ("FORCED", 4844, 374)


def test_four_color_schur_at_44():
    # S(4) = 44: a 4-coloring of [1, 44] avoids x + y = z, none of [1, 45] does
    r = search_avoiding_coloring(SCHUR, 44, 4)
    assert (r.status, r.nodes, r.solution_count) == ("AVOIDING", 1074932, 946)
    ok, _ = verify_coloring(r.coloring, enumerate_solutions(SCHUR, 44))
    assert ok


def search_by_trail(cls, N, colors, min_injectivity=1, max_nodes=None):
    """(status, coloring, nodes, solution_count) of `search_avoiding_coloring`
    by the search loop it ran before its ban words: the colors forbidden
    at each element as one int, restored from a per-element trail of
    (element, old forbidden colors) pairs."""
    solutions = filter_injectivity(enumerate_solutions(cls, N), min_injectivity)
    supports = [sum(1 << v for v in set(s)) for s in solutions]
    if 1 in map(int.bit_count, supports):
        return "FORCED", None, 0, len(solutions)
    nodes_max = ramsey.DEFAULT_NODE_BUDGET if max_nodes is None else max_nodes
    triggers = triggers_by_loop(supports, N)
    masks = [0] * min(colors, N)
    every = (1 << len(masks)) - 1
    forbidden = [0] * (N + 1)
    color = [0] * (N + 1)
    used = [0] * (N + 2)
    tried = [0] * (N + 2)
    trail = [[] for _ in range(N + 1)]
    nodes = 0
    e = 1
    while 0 < e <= N:
        log = trail[e]
        while log:
            t, old = log.pop()
            forbidden[t] = old
        c, top = tried[e], min(used[e] + 1, colors)
        while c < top and forbidden[e] >> c & 1:
            c += 1
        if c == top:
            e -= 1
            masks[color[e]] &= ~(1 << e)
            continue
        tried[e] = c + 1
        nodes += 1
        if nodes > nodes_max:
            return "UNKNOWN", None, nodes, len(solutions)
        mask, bit = masks[c], 1 << c
        for rest, t in triggers[e]:
            if mask & rest == rest:
                old = forbidden[t]
                if not old & bit:
                    log.append((t, old))
                    forbidden[t] = old = old | bit
                    if old == every:
                        break
        else:
            color[e] = c
            masks[c] = mask | 1 << e
            used[e + 1] = max(used[e], c + 1)
            tried[e + 1] = 0
            e += 1
    if e > N:
        return "AVOIDING", tuple(color[1:]), nodes, len(solutions)
    return "FORCED", None, nodes, len(solutions)


@st.composite
def dfs_searches(draw):
    """(equation, N, colors, min_injectivity): one linear equation in 2..4
    variables with coefficients in [-4, 4], N <= 30 and 2..4 colors; the
    right-hand side is zero or planted at a point of the grid."""
    k = draw(st.integers(2, 4))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    N = draw(st.integers(1, 30))
    planted = st.lists(st.integers(1, N), min_size=k, max_size=k)
    point = draw(st.one_of(st.none(), planted))
    rhs = 0 if point is None else sum(c * v for c, v in zip(coeffs, point))
    return linsys(coeffs, rhs), N, draw(st.integers(2, 4)), draw(st.sampled_from((1, 2)))


def search_outcome(cls, N, colors, min_injectivity, max_nodes):
    if max_nodes is None:
        max_nodes = ramsey.DEFAULT_NODE_BUDGET
    with mock.patch.object(ramsey, "DEFAULT_NODE_BUDGET", max_nodes):
        r = search_avoiding_coloring(cls, N, colors, min_injectivity=min_injectivity)
    return r.status, r.coloring, r.nodes, r.solution_count


# a cap on the nodes of one example; a search past it ends UNKNOWN on both sides
TRAIL_NODES = 20_000


@settings(max_examples=150, deadline=None)
@given(dfs_searches())
@example((linsys((1, 1, -1)), 30, 4, 1))
@example((linsys((1, 1, -1)), 14, 3, 1))
def test_ban_words_match_the_trail_search(search):
    assert search_outcome(*search, TRAIL_NODES) == search_by_trail(*search, TRAIL_NODES)


@settings(max_examples=100, deadline=None)
@given(dfs_searches())
@example((linsys((1, 1, -2)), 20, 3, 2))
def test_ban_words_match_the_trail_search_without_memo(search):
    # nothing memoized: every hit is taken from the triggers
    with mock.patch.object(ramsey, "MEMO_BYTES", 0):
        assert search_outcome(*search, TRAIL_NODES) == search_by_trail(*search, TRAIL_NODES)


@settings(max_examples=60, deadline=None)
@given(dfs_searches(), st.data())
def test_ban_words_match_the_trail_search_under_a_node_budget(search, data):
    nodes = search_by_trail(*search, TRAIL_NODES)[2]
    budget = data.draw(st.integers(0, max(nodes - 1, 0)))
    got = search_outcome(*search, budget)
    assert got == search_by_trail(*search, budget)
    if nodes:  # a search of one node or more ends UNKNOWN below its node count
        assert got[0] == "UNKNOWN"


def test_ban_words_match_the_trail_search_on_w33():
    # W(3;3) = 27: the whole search, the memo limited to three hits, and a budget
    ap3 = linsys((1, 1, -2))
    want = ("FORCED", None, 30284, 338)
    assert search_by_trail(ap3, 27, 3, 2) == want
    with mock.patch.object(ramsey, "MEMO_BYTES", 3 * (27 // 8 + 128)):
        assert search_outcome(ap3, 27, 3, 2, None) == want
    assert search_outcome(ap3, 27, 3, 2, 15_000) == search_by_trail(ap3, 27, 3, 2, 15_000)


def least_avoiding_by_brute_force(solutions, N, colors):
    """The first canonical r-coloring of [1, N] in lexicographic order with
    no monochromatic solution, by trying every coloring; None if none."""
    for col in itertools.product(range(colors), repeat=N):
        if any(c > max(col[:i], default=-1) + 1 for i, c in enumerate(col)):
            continue  # not canonical: a new color out of order
        if all(len({col[v - 1] for v in s}) > 1 for s in solutions):
            return col
    return None


@pytest.mark.parametrize("text,min_injectivity", [
    ("x + y = z", 1),
    ("x + z = 2*y", 2),
    ("x + y = 3*z", 1),
    ("y = 2*x", 1),
    ("x + 2*y = 3*z", 2),
    ("x + y + z = w", 1),
])
def test_search_matches_brute_force(text, min_injectivity):
    cls = classify(parse_equation_text(text))
    k = len(cls.variables)
    for N in range(1, 9):
        sols = [s for s in itertools.product(range(1, N + 1), repeat=k)
                if len(set(s)) >= min_injectivity
                and all(sum(a * v for a, v in zip(row, s)) == b
                        for row, b in zip(cls.matrix.rows, cls.rhs))]
        for colors in (1, 2, 3):
            want = least_avoiding_by_brute_force(sols, N, colors)
            r = search_avoiding_coloring(cls, N, colors, min_injectivity=min_injectivity)
            assert r.status == ("FORCED" if want is None else "AVOIDING"), (text, N, colors)
            assert r.coloring == want, (text, N, colors)
            assert r.solution_count == len(sols)


def reference_search(solutions, N, colors):
    """(status, coloring, nodes) by the search without forward checking.

    Each support is checked when its largest element is colored, and
    every color tried counts a node; the colorings it finds are the
    lexicographically least canonical ones, as forward checking must
    keep them.
    """
    if any(len(set(s)) == 1 for s in solutions):
        return "FORCED", None, 0
    rests = {}
    for sol in solutions:
        top = max(sol)
        rests.setdefault(top, []).append(sum(1 << v for v in set(sol) if v != top))
    supports = [tuple(set(rests.get(e, ()))) for e in range(N + 1)]
    masks = [0] * min(colors, N)
    color = [0] * (N + 1)
    used = [0] * (N + 2)
    tried = [0] * (N + 2)
    nodes = 0
    e = 1
    while 0 < e <= N:
        c = tried[e]
        if c == min(used[e] + 1, colors):
            e -= 1
            masks[color[e]] &= ~(1 << e)
            continue
        tried[e] = c + 1
        nodes += 1
        mask = masks[c]
        if all(mask & rest != rest for rest in supports[e]):
            color[e] = c
            masks[c] = mask | 1 << e
            used[e + 1] = max(used[e], c + 1)
            tried[e + 1] = 0
            e += 1
    if e > N:
        return "AVOIDING", tuple(color[1:]), nodes
    return "FORCED", None, nodes


def rado_prime(coeffs):
    """The least prime dividing no nonempty subset sum of `coeffs`."""
    sums = [sum(c for c, bit in zip(coeffs, bits) if bit)
            for bits in itertools.product((0, 1), repeat=len(coeffs)) if any(bits)]
    return next(p for p in (2, 3, 5, 7, 11, 13) if all(v % p for v in sums))


def search_workload_instances(family):
    """(system, N, colors, min_injectivity) of one family of the benchmark's
    `search` operations.  The Rado operations draw one member of each of
    the 60 symmetry classes; the members of a class permute and negate the
    same coefficients, so they share their solution supports, and the
    first member stands for the class."""
    if family == "rado":
        classes = {}
        for coeffs in rado_members():
            key = min(tuple(sorted(coeffs)), tuple(sorted(-c for c in coeffs)))
            classes.setdefault(key, coeffs)
        assert len(classes) == 60
        return [(linsys(c), 50, rado_prime(c) - 1, 1) for c in classes.values()]
    if family == "pythagorean":
        cls = classify(parse_equation_text("x^2 + y^2 = z^2"))
        return [(cls, N, 2, 1) for N in range(40, 101)]
    ap3 = classify(parse_equation_text("x + z = 2*y"))
    ap4 = classify(parse_equation_text("x + z = 2*y; y + w = 2*z"))
    return [(SCHUR, 13, 3, 1), (SCHUR, 14, 3, 1), (ap3, 26, 3, 2), (ap3, 27, 3, 2),
            (ap4, 34, 2, 2), (ap4, 35, 2, 2), (linsys((1, 1, -4)), 50, 2, 1),
            (classify(parse_equation_text("y = 2*x")), 1500, 2, 1)]


@pytest.mark.parametrize("family", ["rado", "pythagorean", "known"])
def test_forward_checking_matches_reference_search(family):
    for cls, N, colors, min_injectivity in search_workload_instances(family):
        r = search_avoiding_coloring(cls, N, colors, min_injectivity=min_injectivity)
        sols = filter_injectivity(enumerate_solutions(cls, N), min_injectivity)
        status, coloring, nodes = reference_search(sols, N, colors)
        assert (r.status, r.coloring) == (status, coloring), (cls, N, colors)
        assert r.nodes <= nodes, (cls, N, colors)


@st.composite
def small_searches(draw):
    """(equation, N, colors, min_injectivity): one linear equation in 2..4
    variables with coefficients in [-4, 4], two colors with 3 <= N <= 12
    or three with 3 <= N <= 8; the right-hand side is zero or planted at a point
    of the grid, so that most equations have solutions.  Smaller N are
    covered by test_search_matches_brute_force."""
    k = draw(st.integers(2, 4))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    colors = draw(st.sampled_from((2, 3)))
    N = draw(st.integers(3, 12 if colors == 2 else 8))
    planted = st.lists(st.integers(1, N), min_size=k, max_size=k)
    point = draw(st.one_of(st.none(), planted, planted))
    rhs = 0 if point is None else sum(c * v for c, v in zip(coeffs, point))
    return linsys(coeffs, rhs), N, colors, draw(st.sampled_from((1, 2)))


@settings(max_examples=200, deadline=None)
@given(small_searches())
@example((linsys((1, 1, -1)), 4, 2, 1))
@example((linsys((1, 1, -2)), 8, 2, 2))
@example((linsys((1, 1, -1)), 8, 3, 1))
def test_search_matches_brute_force_on_random_equations(search):
    cls, N, colors, min_injectivity = search
    sols = [s for s in linear_scan(cls, N) if len(set(s)) >= min_injectivity]
    r = search_avoiding_coloring(cls, N, colors, min_injectivity=min_injectivity)
    want = least_avoiding_by_brute_force(sols, N, colors)
    assert (r.status, r.coloring) == ("FORCED" if want is None else "AVOIDING", want)
    assert r.solution_count == len(sols)
    assert r.nodes <= reference_search(sols, N, colors)[2]


def test_injectivity_above_the_arity_is_an_error_at_every_N():
    # x + y = z has no solution in [1, 1] and (1, 1, 2) in [1, 2]; x = 3
    # has none in [1, 2] and one in [1, 5]; 2x = 3 has none at all
    for cls, Ns, threshold in ((SCHUR, (1, 2), 4), (linsys((1,), 3), (2, 5), 2),
                               (linsys((2,), 3), (2, 5), 2)):
        for N in Ns:
            with pytest.raises(ValueError, match="exceeds tuple arity"):
                search_avoiding_coloring(cls, N, 2, min_injectivity=threshold)


def test_injectivity_below_one_is_an_error():
    for threshold in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            search_avoiding_coloring(SCHUR, 5, 2, min_injectivity=threshold)


def test_failed_check_is_never_reported_avoiding(monkeypatch):
    # the search re-verifies through verify_coloring's column check
    monkeypatch.setattr(ramsey, "_verify_columns",
                        lambda coloring, sols, cols: (False, ((1, 1, 2),)))
    with pytest.raises(RuntimeError, match="failed re-verification"):
        search_avoiding_coloring(SCHUR, 4, 2)
    # FORCED needs no coloring check
    assert search_avoiding_coloring(SCHUR, 5, 2).status == "FORCED"


def test_long_search_needs_no_recursion():
    # a recursive search would need a stack frame per element of [1..1500]
    doubling = classify(parse_equation_text("y = 2*x"))
    r = search_avoiding_coloring(doubling, 1500, 2)
    assert (r.status, r.nodes, r.solution_count) == ("AVOIDING", 1500, 750)
    ok, _ = verify_coloring(r.coloring, enumerate_solutions(doubling, 1500))
    assert ok
    assert all(r.coloring[x - 1] != r.coloring[2 * x - 1] for x in range(1, 751))


def test_constant_solutions_force_trivially():
    # (a, a, a) solves x + y = 2z, so with injectivity 1 every coloring
    # loses before the search even starts
    ap = linsys((1, 1, -2))
    r = search_avoiding_coloring(ap, 9, 2, min_injectivity=1)
    assert r.status == "FORCED"
    assert r.nodes == 0


def test_singleton_support_short_circuit():
    # x + x = 2x... single-variable equation 2*x - 2*x = 0 is degenerate;
    # use x = x (always true): every singleton is a solution, any coloring
    # is defeated trivially
    always = classify(parse_equation_text("x - x = 0"))
    r = search_avoiding_coloring(always, 3, 2)
    assert r.status == "FORCED"
    assert "monochromatic under every coloring" in r.note
    assert r.nodes == 0  # decided before any DFS work


def test_search_respects_node_budget():
    with mock.patch.object(ramsey, "DEFAULT_NODE_BUDGET", 3):
        r = search_avoiding_coloring(SCHUR, 30, 2)
    assert r.status == "UNKNOWN"
    assert "exceeded" in r.note
    assert r.coloring is None


def test_support_masks_past_their_cap_end_unknown():
    # y = 2x on [1, 2000]: 1,000 solutions of 250 bytes each
    doubling = linsys((-2, 1))
    with mock.patch.object(ramsey, "SUPPORT_BYTES", 250_000):
        r = search_avoiding_coloring(doubling, 2000, 2)
    assert r.status == "AVOIDING"
    with mock.patch.object(ramsey, "SUPPORT_BYTES", 249_999):
        r = search_avoiding_coloring(doubling, 2000, 2)
    assert (r.status, r.coloring, r.nodes, r.solution_count) == ("UNKNOWN", None, 0, 1000)
    assert r.note == "support masks need about 250000 bytes, over SUPPORT_BYTES = 249999"


def test_forced_stable_under_variable_relabeling():
    # z = x + y written both ways enumerates different tuples but the same
    # forced/avoiding boundary
    alt = classify(parse_equation_text("z - x - y = 0"))
    assert search_avoiding_coloring(alt, 5, 2).status == "FORCED"
    assert search_avoiding_coloring(alt, 4, 2).status == "AVOIDING"
