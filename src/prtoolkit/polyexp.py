"""Partition regularity of polynomial-exponential equations over the integers.

The equations handled here have the shape

    sum_i  P_i(x_1..x_n, y) * a_{i,1}^{x_1} * ... * a_{i,n}^{x_n} = 0

with integer character bases a_{i,j} != 0.  Such an equation always has
the diagonal family x_1 = ... = x_n = y = s, which collapses it to the
single-variable exponential sum

    g(s) = sum_i  a_i^s * A_i(s),     a_i = prod_j a_{i,j},
                                      A_i = P_i(s,..,s).

A constant solution (an integer zero of g) is monochromatic under every
coloring, so it certifies partition regularity outright.  Conversely,
when the character-group hypothesis below holds, the absence of constant
solutions decides non-regularity, because every monochromatic solution
family would otherwise be forced through the diagonal.

The equation class PolyExpEquation, with PolyExpTerm and polyexp_eval,
is defined in `equations` next to the other equation classes and
imported here, so `prtoolkit.polyexp.PolyExpEquation` is the same class.

Hypothesis.  For a partition of the term indices, the group
G = { z in Z^n : a_i^z = a_j^z whenever i, j share a block } must be
trivial for every partition with at least one block of size >= 2
(single-block-free partitions impose no constraint and are skipped).
G is trivial exactly when the matrix of prime-exponent differences
v_p(a_{i,k}) - v_p(a_{j,k}) over all in-block pairs has full rank n:
sign conditions alone cannot rescue triviality, since a finite-index
subgroup of a nontrivial lattice is nontrivial.  A partition's rows are
the union of the rows of the pairs inside its blocks, and the partition
whose one non-singleton block is {i, j} has exactly that pair's rows.
So the hypothesis holds for every partition exactly when it holds for
every such pair partition, which takes C(m, 2) pair checks, not Bell(m).
With one exponent variable (n = 1) a pair's group is trivial exactly
when |a_i| != |a_j|: for z != 0, |a_i|^z = |a_j|^z forces |a_i| = |a_j|,
and when |a_i| = |a_j| every even z lies in G.  That check needs no
factoring, so only an equation with n >= 2 factors its entries and
ranks their valuation rows, and only such an equation can stop the
check with IncompleteFactorization.

Deciding whether g has an integer zero is done with exact arithmetic
only, and on integers: ExpSum scales g once to integer coefficients
(ExpSum.int_terms), and every rule below reads that form, the parity
parts of a sum with bases a and -a included.  The character-group rank
is taken on the integer valuation rows themselves, so Fractions remain
only in ExpSum.eval and polyexp_eval.  A dominance certificate confines
all zeros to a finite window which is then scanned, and an independent
modular certificate (all residues of g nonzero modulo some M coprime to
the bases) can confirm emptiness a second way.  Every residue comes
from one walk, which yields g(s) mod M for s = start, start + 1, ... in
integers: the window filter walks modulo the primes 2^61 - 1 and
2^31 - 1 at once (negative s through the integer sum
g(-k) * (prod |a_i|)^k) and evaluates g exactly only where both
residues are 0, which every true zero satisfies; the certificate search
walks modulo each modulus it tries in turn, and the certificate table
and its re-verification modulo the certificate's modulus.  The dominance
thresholds are found by doubling and bisection, since each defining
inequality is monotone past its starting point.  The inequalities read
their absolute-coefficient polynomials as Horner rows, one step per run
of consecutive exponents, so a sparse t^10000 + 1 costs one power of t.
A probe whose exact sides would exceed _EXACT_BITS bits is settled first
on integer brackets lo * 2^e <= x <= hi * 2^e with short mantissas
(_Bracket), and forms the full powers b^t only when they overlap; the
re-verification rechecks t1, tstar, T, T + 1 and T + 2 on exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, islice, zip_longest
from math import comb, gcd, lcm, prod
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import (
    BudgetExceeded,
    IncompleteFactorization,
    Record,
    UniPoly,
    factor_integer,
    integer_roots,
    least_witness,
    matrix_rank,
)
from .equations import PolyExpEquation, PolyExpTerm, polyexp_eval  # the last two re-exported

DEFAULT_PARTITION_CAP = 12
DEFAULT_MODULUS_CAP = 200

# Budget of the certified window.  The exact comparisons of the dominance
# threshold search build integers of about t * log2|b_1| bits, and the scan
# costs a few microseconds per point, so a window wider than MAX_WINDOW
# points, or a threshold whose comparison needs more than
# MAX_THRESHOLD_BITS bits, is not computed: decide_constant_solution then
# answers UNKNOWN.
MAX_WINDOW = 1 << 20
MAX_THRESHOLD_BITS = 1 << 22

# The threshold search settles a probe on _Brackets with mantissas of
# _MANTISSA_BITS bits when the exact sides of its test would exceed
# _EXACT_BITS bits; below that the exact integers are cheaper.
_MANTISSA_BITS = 64
_EXACT_BITS = 1 << 13

# Residues are carried modulo the product of the primes 2^61 - 1 and
# 2^31 - 1, that is modulo both at once.
_SCAN_MODULUS = ((1 << 61) - 1) * ((1 << 31) - 1)

# Walk steps of modular_certificate_search: the order walks that find each
# period and the residue walks.  A modulus m walks up to m steps per base
# for its period and, when g has a zero modulo m, on to that zero.  A
# residue step costs about 0.8 us for one term of degree 6 and an order
# step a tenth of that (Intel Xeon, Python 3.11).  Up to m = 3000,
# (s^2 - 13)(s^2 - 17)(s^2 - 221) 2^s, which has a zero modulo every m,
# takes 985,979 steps and 0.3 s; the 736 sums of the polyexp benchmark at
# seeds 101 and 202 take at most 28,491 steps up to the default m_max.
_SEARCH_STEPS = 1 << 20

# One term of an exponential sum on integer coefficients: (base, the
# coefficients of its polynomial, lowest degree first).
IntTerm = Tuple[int, Tuple[int, ...]]


# ---------------------------------------------------------------------
# exponential sums in one variable


class ExpSum(Record):
    """Exact exponential sum  g(s) = sum_i a_i^s * A_i(s)  over Z.

    Bases are pairwise distinct nonzero integers and coefficient
    polynomials are nonzero with integer coefficients; construction
    merges duplicate bases, drops canceled terms and clears denominators
    by a common positive factor (which preserves the zero set).

    `terms` holds the pairs (a_i, A_i) with A_i a UniPoly, and
    `int_terms` the same pairs with A_i as its tuple of int coefficients,
    lowest degree first, computed once here.  The decision rules of this
    module read `int_terms`; `terms` serves the reports.  `==` and `hash`
    read `terms` alone, since `int_terms` derives from it.
    """

    terms: Tuple[Tuple[int, UniPoly], ...]
    int_terms: Tuple[Tuple[int, Tuple[int, ...]], ...]
    _key = staticmethod(attrgetter("terms"))

    def __init__(self, terms: Iterable[Tuple[int, Union[UniPoly, Iterable]]]):
        merged: Dict[int, UniPoly] = {}
        order: List[int] = []
        for base, coeff in terms:
            if not isinstance(base, int) or base == 0:
                raise ValueError("bases must be nonzero integers, got %r" % (base,))
            poly = coeff if isinstance(coeff, UniPoly) else UniPoly(coeff)
            if base in merged:
                merged[base] = merged[base] + poly
            else:
                merged[base] = poly
                order.append(base)
        den = lcm(*(c.denominator for p in merged.values() for c in p.coeffs))
        out = [(base, merged[base] if den == 1 else merged[base].scale(den))
               for base in order if not merged[base].is_zero()]
        object.__setattr__(self, "terms", tuple(out))
        object.__setattr__(
            self, "int_terms", tuple((b, tuple(c.numerator for c in p.coeffs)) for b, p in out)
        )

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, s: int) -> Fraction:
        """g(s), exactly; a^s is not computed where A(s) = 0.

        The numerator is an integer sum: g(s) itself for s >= 0, and for
        s = -k < 0 the sum g(-k) * (prod |a_i|)^k of _negation_transform,
        divided by (prod |a_i|)^k in the one Fraction built at the end
        (no power is formed when the numerator is 0).
        """
        if s >= 0:
            return Fraction(_sum_at(_horner(self.int_terms), s))
        num = _sum_at(_horner(_negation_transform(self.int_terms)), -s)
        if not num:
            return Fraction(0)
        return Fraction(num, prod(abs(b) for b, _ in self.int_terms) ** -s)

    def __repr__(self):
        return "ExpSum(%s)" % ", ".join(
            "(%d)^s * [%r]" % (b, p) for b, p in self.terms
        )


def diagonalize(eq: PolyExpEquation) -> ExpSum:
    """Collapse an equation along the diagonal x_1 = ... = y = s.

    Each term contributes base prod_j a_{i,j} with coefficient
    polynomial P_i(s,..,s); terms whose bases coincide merge.
    """
    out = []
    for t in eq.terms:
        base = 1
        for b in t.characters:
            base *= b
        out.append((base, t.poly.diagonal()))
    return ExpSum(out)


# ---------------------------------------------------------------------
# set partitions and Bell numbers

_BELL_CACHE: List[int] = [1]


def bell_number(m: int) -> int:
    """Number of set partitions of [m], by the binomial recurrence.

    B(0) = 1 and B(k+1) = sum_l C(k, l) B(l).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    while len(_BELL_CACHE) <= m:
        k = len(_BELL_CACHE) - 1
        _BELL_CACHE.append(sum(comb(k, l) * _BELL_CACHE[l] for l in range(k + 1)))
    return _BELL_CACHE[m]


def enumerate_partitions(m: int, cap: int = DEFAULT_PARTITION_CAP):
    """Yield all set partitions of {0, .., m-1} as tuples of index tuples.

    Partitions are produced in restricted-growth-string order, so the
    sequence is deterministic; blocks are ordered by their least element.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > cap:
        raise ValueError("partition enumeration cap exceeded: %d > %d" % (m, cap))

    rgs = [0] * m

    def rec(i: int, maxval: int):
        if i == m:
            nblocks = maxval + 1
            blocks: List[List[int]] = [[] for _ in range(nblocks)]
            for idx, b in enumerate(rgs):
                blocks[b].append(idx)
            yield tuple(tuple(b) for b in blocks)
            return
        for c in range(maxval + 2):
            rgs[i] = c
            yield from rec(i + 1, max(maxval, c))

    yield from rec(1, 0)


# ---------------------------------------------------------------------
# character-group triviality


def character_group_trivial(
    characters: Sequence[Tuple[int, ...]],
    partition: Sequence[Sequence[int]],
) -> bool:
    """Whether G = {z : a_i^z = a_j^z for i~j} is the zero subgroup of Z^n.

    For every pair in a common block and every prime p dividing any
    involved entry, the vector of valuation differences
    (v_p(a_{i,k}) - v_p(a_{j,k}))_k is a linear constraint on z; G is
    trivial iff the stacked constraint matrix has rank n.  Signs are
    immaterial: the sign conditions carve out a finite-index subgroup,
    and a finite-index subgroup of a nontrivial lattice is nontrivial.
    With one exponent variable no entry is factored (_pairs_trivial).
    For n >= 2, raises IncompleteFactorization when an entry cannot be
    factored within the default trial-division budget.
    """
    chars = [tuple(c) for c in characters]
    if not chars:
        raise ValueError("need at least one character")
    n = len(chars[0])
    if n < 1 or any(len(c) != n for c in chars):
        raise ValueError("characters must share a positive common length")
    if any(b == 0 for c in chars for b in c):
        raise ValueError("character entries must be nonzero")
    pairs = [pair for block in partition for pair in combinations(block, 2)]
    return _pairs_trivial(chars, pairs, {})


def _pairs_trivial(
    chars: List[Tuple[int, ...]],
    pairs: Iterable[Tuple[int, int]],
    cache: Dict[int, Dict[int, int]],
) -> bool:
    """character_group_trivial on checked characters, given its in-block pairs.

    With one exponent variable (n = 1) the matrix has one column, so its
    rank is 1 exactly when v_p(a_i) != v_p(a_j) for some prime p and
    some pair, that is, by unique factorization, when |a_i| != |a_j|;
    entries +-1 have no rows, and |1| = |-1| agrees.  That case is
    decided by comparing absolute values, without factoring.  `cache`
    maps |entry| to its factorization, so a dict shared across calls
    factors each entry once.
    """
    n = len(chars[0])
    if n == 1:
        return any(abs(chars[i][0]) != abs(chars[j][0]) for i, j in pairs)

    def vals(x: int) -> Dict[int, int]:
        x = abs(x)
        if x not in cache:
            cache[x] = dict(factor_integer(x)[1])
        return cache[x]

    rows: List[List[int]] = []
    for i, j in pairs:
        pair = [(vals(x), vals(y)) for x, y in zip(chars[i], chars[j])]
        primes = sorted({p for u, v in pair for p in (*u, *v)})
        rows += [[u.get(p, 0) - v.get(p, 0) for u, v in pair] for p in primes]
    # no rows (no pair constraints) means G = Z^n, never trivial for n >= 1
    return matrix_rank(rows) == n


def mutually_coprime(characters: Sequence[Tuple[int, ...]]) -> Tuple[bool, bool]:
    """(pairwise-coprime, unit-entry-warning) across all distinct entries.

    Entries of absolute value 1 contribute zero exponent vectors and are
    flagged; the rank-based triviality check remains authoritative.
    """
    entries = [abs(b) for c in characters for b in c]
    unit = any(e == 1 for e in entries)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if gcd(entries[i], entries[j]) != 1:
                return False, unit
    return True, unit


# ---------------------------------------------------------------------
# combinatorial constants


class ABConstants(Record):
    A: int
    B: int


def compute_constants(eq: PolyExpEquation) -> ABConstants:
    """A = sum_l C(n + d_l, n) over terms, B = max(n, A).

    Here n is the number of exponent variables and d_l the degree of
    the l-th polynomial in those variables (a constant polynomial has
    d_l = 0, so constants give A = m and B = max(n, m)).
    """
    n = len(eq.exp_vars)
    A = 0
    for t in eq.terms:
        present = [v for v in eq.exp_vars if v in t.poly.vars]
        d = t.poly.degree_in(present) if present else 0
        d = max(d, 0)
        A += comb(n + d, n)
    return ABConstants(A=A, B=max(n, A))


def solution_count_bound(eq: PolyExpEquation, d: int = 1) -> int:
    """Exact integer bound  Bell(m) * 2^(35 B^3) * d^(6 B^2).

    `d` is the degree of the number field the characters live in (1 for
    the rationals).  The value is exact and can be astronomically large.
    """
    if d < 1:
        raise ValueError("field degree must be at least 1")
    m = len(eq.terms)
    B = compute_constants(eq).B
    return bell_number(m) * 2 ** (35 * B ** 3) * d ** (6 * B ** 2)


# ---------------------------------------------------------------------
# dominance certificates


class BranchCertificate(Record):
    """Tail guarantee for one direction of (a parity class of) g.

    The branch sum is an exponential sum in a local coordinate t >= 0
    (`direction` "plus": t = s or s = 2t / 2t+1; "minus": t = -s up to
    the parity mapping), with the listed signed bases and integer
    coefficient polynomials.  The guarantee is: for every integer
    t > threshold the branch sum is nonzero.

    kind "single": one base only, so zeros are the nonnegative integer
    roots of the lone coefficient polynomial, all <= threshold.

    kind "ratio": with terms sorted by decreasing |base|, threshold T
    satisfies T >= max(t1, tstar, 1) and the exact inequality
        2 * sum_{i>=2} Chat_i(T) |b_i|^T  <  |lead(C_1)| T^{deg C_1} |b_1|^T
    where Chat is the absolute-coefficient companion.  t1 makes
    |C_1(t)| >= |lead| t^deg / 2 for all t >= t1, and tstar makes every
    tail ratio term strictly decreasing from tstar on, so the inequality
    persists for all t >= T.
    """

    parity: str  # "all" | "even" | "odd"
    direction: str  # "plus" | "minus"
    bases: Tuple[int, ...]
    coeffs: Tuple[Tuple[int, ...], ...]
    kind: str  # "single" | "ratio"
    threshold: int
    t1: int
    tstar: int


class DominanceCertificate(Record):
    """Window [-s_minus, s_plus] containing every integer zero of g.

    `zero_parities` lists parity classes on which g vanishes
    identically (each such class is an infinite solution family and is
    excluded from the branch guarantees).
    """

    s_plus: int
    s_minus: int
    zero_parities: Tuple[str, ...]
    branches: Tuple[BranchCertificate, ...]


class WindowTooWide(ValueError):
    """The certified window would exceed MAX_WINDOW or MAX_THRESHOLD_BITS."""


def _horner(terms: Iterable[IntTerm], absolute: bool = False) -> List[tuple]:
    """The Horner rows of a sum of base^s * C(s): per term, (base, c, steps).

    Horner over C's nonzero coefficients, highest exponent first: a starts
    at the leading coefficient c, each step (gap, c_e) makes a = a * s^gap
    + c_e, and a last step (e, 0) follows when the lowest exponent e is > 0.
    A term whose C is zero has no row.  With `absolute` the rows are those
    of sum |base|^s * Chat(s), Chat the absolute-coefficient companion of C.
    """
    plan = []
    for base, coeffs in terms:
        steps, gap = [], 0
        for c in map(abs, reversed(coeffs)) if absolute else reversed(coeffs):
            gap += 1
            if c:
                steps.append((gap, c))
                gap = 0
        if steps:
            if gap:
                steps.append((gap, 0))
            plan.append((abs(base) if absolute else base, steps[0][1], steps[1:]))
    return plan


def _sum_at(rows: Sequence[tuple], t):
    """sum_i b_i^t * C_i(t) over Horner rows (_horner), t >= 0; b^t is skipped where C(t) = 0.

    A gap of 1 costs one multiplication by t and a larger gap one t ** gap,
    so a sparse row such as t^10000 + 1 takes one step.
    """
    total = 0
    for b, a, steps in rows:
        for gap, c in steps:
            a = (a * t if gap == 1 else a * t ** gap) + c
        if a:
            total += a * b ** t
    return total


def _negation_transform(terms: Sequence[IntTerm]) -> List[IntTerm]:
    """Integer terms of  g(-k) * (prod |a_i|)^k  as an exponential sum in k.

    Each base a_i becomes sign(a_i) * prod_{j != i} |a_j| and the
    coefficient becomes A_i(-k), whose odd coefficients are those of A_i
    negated; when the |a_i| are pairwise distinct so are the new absolute
    bases, and all-positive bases stay positive.
    """
    total = prod(abs(b) for b, _ in terms)
    out = []
    for b, coeffs in terms:
        flipped = list(coeffs)
        flipped[1::2] = [-c for c in coeffs[1::2]]
        out.append((total // b if b > 0 else -(total // -b), tuple(flipped)))
    return out


# The rules of a branch certificate.  dominance_bound finds its thresholds
# with them and verify_dominance rechecks them, so each is stated once.


def _ordered(terms: Sequence[IntTerm]) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """A branch's bases and integer coefficients, by decreasing |base|."""
    return tuple(zip(*sorted(terms, key=lambda t: abs(t[0]), reverse=True)))


def _largest_root(coeffs: Sequence[int]) -> int:
    """The least threshold of a "single" branch: its largest root >= 0, or 0."""
    return max([r for r in integer_roots(UniPoly(coeffs)) if r >= 0], default=0)


def _ratio_tests(
    bases: Sequence[int], coeffs: Sequence[Sequence[int]]
) -> Tuple[Callable[[int], bool], Callable[[int], bool], Callable[[int], bool]]:
    """The tests that t1, tstar and T of a "ratio" branch must pass.

    The first makes |C_1(t)| >= |lead| t^deg / 2 and the second makes
    every tail ratio term decrease; both are monotone from 1 on.  The
    third is the dominance inequality of BranchCertificate, monotone from
    max(t1, tstar) on.  The absolute-coefficient companions are Horner
    rows, built once here; the first test reads Chat_1 = |lead| t^deg +
    (the rest), as 2 Chat_1(t) <= 3 |lead| t^deg.  Each test is one
    expression in t, so it runs on a _Bracket as well as on an int.
    """
    d1 = len(coeffs[0]) - 1
    cd = abs(coeffs[0][-1])
    b1 = abs(bases[0])
    b2 = abs(bases[1])
    dmax = max(map(len, coeffs[1:])) - 1
    (_, a1, steps1), *tail = _horner(zip(bases, coeffs), True)
    lead = [(1, a1, steps1)]
    return (
        lambda t: 2 * _sum_at(lead, t) <= 3 * cd * t ** d1,
        lambda t: (t + 1) ** dmax * b2 < t ** dmax * b1,
        lambda t: 2 * _sum_at(tail, t) < cd * t ** d1 * b1 ** t,
    )


class _Overlap(ArithmeticError):
    """A comparison of two _Brackets that overlap."""


class _Bracket:
    """An exact integer bracket  lo * 2^e <= x <= hi * 2^e  of a number x >= 0.

    The ratio tests run on brackets before they form large integers:
    sums, products and powers round lo down and hi up to mantissas of at
    most _MANTISSA_BITS bits, so b^t costs about 2 log2 t small products
    instead of a t log2 b-bit integer.  All operands of the tests are
    nonnegative, so every operation is monotone and the bracket stays
    valid.  A comparison answers exactly when the brackets of its sides
    are disjoint and raises _Overlap when they are not.  An exponent must
    be exact: an int, or a _Bracket made from an int below 2^_MANTISSA_BITS.
    """

    __slots__ = ("lo", "hi", "e")

    def __init__(self, lo: int, hi: Optional[int] = None, e: int = 0):
        hi = lo if hi is None else hi
        s = hi.bit_length() - _MANTISSA_BITS
        if s > 0:
            lo, hi, e = lo >> s, -(-hi >> s), e + s
        self.lo, self.hi, self.e = lo, hi, e

    def __mul__(self, y):
        y = y if type(y) is _Bracket else _Bracket(y)
        return _Bracket(self.lo * y.lo, self.hi * y.hi, self.e + y.e)

    def __add__(self, y):
        y = y if type(y) is _Bracket else _Bracket(y)
        x, y = (self, y) if self.e <= y.e else (y, self)
        d = y.e - x.e  # x in units of 2^y.e, rounded outward
        return _Bracket(y.lo + (x.lo >> d), y.hi - (-x.hi >> d), y.e)

    __rmul__, __radd__ = __mul__, __add__

    def __pow__(self, n: int):
        r = _Bracket(1)
        for bit in bin(n)[2:]:
            r = r * r * self if bit == "1" else r * r
        return r

    def __rpow__(self, b: int):
        return _Bracket(b) ** self.lo

    def __lt__(self, y):
        y = y if type(y) is _Bracket else _Bracket(y)
        m = min(self.e, y.e)
        p, q = self.e - m, y.e - m
        if self.hi << p < y.lo << q:
            return True
        if self.lo << p < y.hi << q:
            raise _Overlap
        return False

    def __le__(self, y):
        return not (y if type(y) is _Bracket else _Bracket(y)) < self


def _settled(holds: Callable[[int], bool], t: int) -> bool:
    """holds(t), decided on _Bracket(t) unless the brackets overlap."""
    try:
        return holds(_Bracket(t))
    except _Overlap:
        return holds(t)


def _branch(terms: Sequence[IntTerm], parity: str, direction: str) -> BranchCertificate:
    bases, coeffs = _ordered(terms)
    if len(bases) == 1:
        return BranchCertificate(
            parity, direction, bases, coeffs, "single", _largest_root(terms[0][1]), 0, 0
        )
    lead, ratio, dominance = _ratio_tests(bases, coeffs)
    bits = abs(bases[0]).bit_length()
    limit = min(MAX_WINDOW, MAX_THRESHOLD_BITS // bits)
    # the sides of a test at t have about t * bits + degree * log2(t) bits,
    # more than _EXACT_BITS from about t = cut on
    degree = max(map(len, coeffs)) - 1
    cut = (_EXACT_BITS - degree * (_EXACT_BITS // bits).bit_length()) // bits
    t1 = _least(lead, 1, limit, cut)
    tstar = _least(ratio, 1, limit, cut)
    T = _least(dominance, max(t1, tstar), limit, cut)
    return BranchCertificate(parity, direction, bases, coeffs, "ratio", T, t1, tstar)


def _branch_holds(br: BranchCertificate, terms: Sequence[IntTerm]) -> bool:
    """Whether br certifies the branch sum of `terms`, rechecked exactly.

    A "ratio" branch passes its tests at t1, at tstar, and at T, T + 1
    and T + 2.
    """
    if (br.bases, br.coeffs) != _ordered(terms):
        return False
    if br.kind == "single":
        return len(terms) == 1 and br.threshold >= _largest_root(terms[0][1])
    if br.kind != "ratio" or len(br.bases) < 2:
        return False
    lead, ratio, dominance = _ratio_tests(br.bases, br.coeffs)
    T = br.threshold
    return (
        1 <= br.t1 <= T
        and 1 <= br.tstar <= T
        and lead(br.t1)
        and ratio(br.tstar)
        and all(dominance(t) for t in (T, T + 1, T + 2))
    )


def _window(branches: Iterable[BranchCertificate]) -> Tuple[int, int]:
    """(s_plus, s_minus): the largest |s| a branch zero reaches on each side."""
    reach = {"plus": 0, "minus": 0}
    for br in branches:
        s = br.threshold
        if br.parity == "even":
            s = 2 * s
        elif br.parity == "odd":
            # s = 2t + 1 for plus (max 2T + 1), s = 1 - 2t for minus (min 1 - 2T)
            s = 2 * s + 1 if br.direction == "plus" else 2 * s - 1
        reach[br.direction] = max(reach[br.direction], s)
    return reach["plus"], reach["minus"]


def _least(holds: Callable[[int], bool], start: int, limit: int, cut: int) -> int:
    """Least t in [start, limit] with holds(t); WindowTooWide if none.

    holds must be monotone from start on (once true, true for every
    larger t), so doubling steps find a true point and bisection then
    finds the least one: the same t as a linear search, in O(log t)
    evaluations.  From t = cut on, where the exact sides grow large,
    each evaluation is _settled on brackets first.
    """
    lo, hi, step = start - 1, start, 1
    while hi > limit or not (holds(hi) if hi < cut else _settled(holds, hi)):
        if hi >= limit:
            raise WindowTooWide(
                "a dominance threshold exceeds %d (MAX_WINDOW = %d, MAX_THRESHOLD_BITS = %d)"
                % (limit, MAX_WINDOW, MAX_THRESHOLD_BITS)
            )
        lo, hi, step = hi, min(hi + step, limit), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid) if mid < cut else _settled(holds, mid):
            hi = mid
        else:
            lo = mid
    return hi


def _branch_pairs(g: ExpSum) -> Tuple[Dict[Tuple[str, str], Sequence[IntTerm]], Tuple[str, ...]]:
    """The branch sums a dominance certificate of g covers, and its zero parities.

    Returns ({(parity, direction): terms}, zero_parities).  When all
    absolute bases are distinct the single part "all" is g itself.
    Otherwise the even part, in t with s = 2t, and the odd part, with
    s = 2t + 1, are treated separately (_parity_part): bases a and -a
    merge into a^2 there, and that is the only way distinct integer bases
    can collide in absolute value.  A part that vanishes is a zero
    parity; any other part has a "plus" branch, its own terms, and a
    "minus" branch, their _negation_transform.
    """
    abs_bases = [abs(b) for b, _ in g.int_terms]
    if len(set(abs_bases)) == len(abs_bases):
        parts = [("all", g.int_terms)]
    else:
        parts = [(parity, _parity_part(g.int_terms, parity == "odd")) for parity in ("even", "odd")]
    sums: Dict[Tuple[str, str], Sequence[IntTerm]] = {}
    for parity, terms in parts:
        if terms:
            sums[(parity, "plus")] = terms
            sums[(parity, "minus")] = _negation_transform(terms)
    if not sums:
        raise ValueError("nonzero exponential sum cannot vanish on all of Z")
    return sums, tuple(parity for parity, terms in parts if not terms)


def _parity_part(terms: Sequence[IntTerm], odd: bool) -> List[IntTerm]:
    """The integer terms of g(2t), or of g(2t + 1) when `odd`, as a sum in t.

    b^s * sum_k c_k s^k becomes (b^2)^t times sum_k c_k 2^k t^k, or times
    b * sum_j (sum_{k>=j} c_k C(k, j)) 2^j t^j.  Terms with a common new
    base merge, in order of first appearance, and canceled ones drop out.
    """
    merged: Dict[int, List[int]] = {}
    for b, coeffs in terms:
        if odd:
            shifted = [b * sum(c * comb(k, j) for k, c in enumerate(coeffs[j:], j)) << j
                       for j in range(len(coeffs))]
        else:
            shifted = [c << k for k, c in enumerate(coeffs)]
        total = [x + y for x, y in zip_longest(merged.get(b * b, ()), shifted, fillvalue=0)]
        while total and not total[-1]:
            total.pop()
        merged[b * b] = total
    return [(base, tuple(total)) for base, total in merged.items() if total]


def dominance_bound(g: ExpSum) -> DominanceCertificate:
    """Certificate confining every integer zero of g to a finite window.

    Raises ValueError on the identically zero sum (no finite window
    exists; every integer is a zero), and WindowTooWide (a ValueError)
    when the window of a sum of two or more terms would exceed
    MAX_WINDOW points or a threshold search would compare integers
    beyond MAX_THRESHOLD_BITS bits.  A one-term sum's window is spanned
    by the integer roots of its coefficient polynomial, which are its
    zeros, so it is never scanned and has no width cap.  The certificate
    is re-verified by `verify_dominance` before it is returned.
    """
    if g.is_zero():
        raise ValueError("the zero sum vanishes everywhere; no finite window")
    sums, zero_parities = _branch_pairs(g)
    branches = tuple(_branch(terms, parity, direction) for (parity, direction), terms in sums.items())
    s_plus, s_minus = _window(branches)
    if len(g.terms) > 1 and s_plus + s_minus + 1 > MAX_WINDOW:
        raise WindowTooWide(
            "the certified window [%d, %d] exceeds MAX_WINDOW = %d points"
            % (-s_minus, s_plus, MAX_WINDOW)
        )
    cert = DominanceCertificate(s_plus, s_minus, zero_parities, branches)
    if not verify_dominance(g, cert):
        raise RuntimeError("internal error: dominance certificate failed re-verification")
    return cert


def verify_dominance(g: ExpSum, cert: DominanceCertificate) -> bool:
    """Re-verify a dominance certificate from scratch, exactly.

    Reconstructs the branch sums from g, matches them one to one against
    the certificate's branches, rechecks each with _branch_holds, and
    checks that the window reaches as far as the thresholds.  Pure
    function: no state, no floats.
    """
    try:
        sums, zero_parities = _branch_pairs(g)
    except ValueError:
        return False
    if zero_parities != cert.zero_parities:
        return False
    if sorted((br.parity, br.direction) for br in cert.branches) != sorted(sums):
        return False
    if not all(_branch_holds(br, sums[(br.parity, br.direction)]) for br in cert.branches):
        return False
    s_plus, s_minus = _window(cert.branches)
    return cert.s_plus >= s_plus and cert.s_minus >= s_minus


# ---------------------------------------------------------------------
# modular certificates


class ModularCertificate(Record):
    """Proof that g(s) != 0 for every integer s, via residues.

    M is coprime to every base, so s -> g(s) mod M is defined on all of
    Z and periodic with period `period` (the lcm of the base orders,
    joined with M itself when some coefficient polynomial is
    non-constant).  All `residues` over one full period are nonzero, so
    g has no integer zero at all.
    """

    modulus: int
    period: int
    residues: Tuple[int, ...]


def _modular_period(
    g: ExpSum, m: int, cap: Optional[int] = None, steps: Optional[Iterator[int]] = None
) -> Optional[int]:
    """Period of s -> g(s) mod m, or None once it is known to exceed `cap`.

    The period is the lcm of the bases' multiplicative orders modulo m,
    joined with m itself when some coefficient polynomial is
    non-constant.  An order is counted to cap at most, or to m without a
    cap: a unit's order modulo m is below m, so a base whose powers get
    that far without reaching 1 is not invertible.  Given `steps`, the
    counter of modular_certificate_search, the order walks of m draw their
    steps from it at once, and one past _SEARCH_STEPS raises
    BudgetExceeded.
    """
    period, walked = 1, 0
    bound = m if cap is None else cap
    for base, coeffs in g.int_terms:
        k, t = 1, base % m
        while t != 1 and k <= bound:
            k, t = k + 1, t * base % m
        if t != 1 and cap is None:
            raise ValueError("base %d is not invertible modulo %d" % (base, m))
        walked += k
        period = lcm(period, k, m if len(coeffs) > 1 else 1)
        if cap is not None and period > cap:
            period = None
            break
    if steps is not None and next(islice(steps, walked - 1, None)) > _SEARCH_STEPS:
        raise _out_of_steps(("with modulus %d still open" if cap is None
                             else "filtering modulus %d by its period") % m)
    return period


def _out_of_steps(where: str) -> BudgetExceeded:
    return BudgetExceeded("the modular search spent its step budget of %d walk steps %s"
                          % (_SEARCH_STEPS, where))


def _walk(plan: List[tuple], M: int, start: int) -> Iterator[int]:
    """Yield an integer congruent to g(s) mod M for s = start, start + 1, ...

    g is the sum that `plan` (from _horner) describes, and start >= 0.
    Base powers are carried modulo M.  Horner multiplies by s for a gap
    of 1, and by s^gap mod M, then reduces, for a larger gap: no s^e with
    e > 1 is formed exactly, and small values stay small for the caller.
    """
    powers = [pow(base, start, M) for base, _, _ in plan]
    for s in count(start):
        v = 0
        for i, (base, a, steps) in enumerate(plan):
            for gap, c in steps:
                a = (a * s if gap == 1 else a * pow(s, gap, M) % M) + c
            v += powers[i] * a
            powers[i] = powers[i] * base % M
        yield v


def modular_certificate_search(
    g: ExpSum, m_max: int = DEFAULT_MODULUS_CAP, max_period: Optional[int] = None
) -> Optional[ModularCertificate]:
    """Smallest modulus M <= m_max certifying that g never vanishes.

    Only moduli coprime to every base are usable (otherwise g(s) mod M
    is undefined for negative s).  Returns None when no modulus works;
    absence proves nothing.  A certificate found is re-verified by
    `verify_modular` before it is returned.

    The usable moduli are tried in ascending order, each on its own: g
    is walked modulo m from s = 0 until its first zero residue or the
    end of its period, and the first modulus that gets through its
    period is the answer.

    decide_constant_solution runs this search before its window scan
    and passes the window width W as `max_period`: only periods <= W
    are tried, since a longer one costs more to check than the scan it
    would spare.  A sum with a zero then pays for a failed search, but a
    short one: every kept modulus has period <= W, so it shows a zero
    within W steps.  Such a modulus divides b^k - 1 for some k <= W,
    for every base b, so the moduli above min |b|^W + 1 over the bases
    with |b| >= 2 are not tried.  The order walks that find each
    period, and the residue walks, are charged against _SEARCH_STEPS,
    and BudgetExceeded is raised when they run out.
    """
    if g.is_zero():
        return None
    product = prod(base for base, _ in g.int_terms)
    if max_period is not None:
        if any(len(c) > 1 for _, c in g.int_terms):
            m_max = min(m_max, max_period)  # the period is a multiple of m
        # min |b|^W + 1 (see above), formed only for W below m_max's bit
        # length: above it 2^W > m_max, and W may reach 2^20
        least = min((abs(b) for b, _ in g.int_terms if abs(b) >= 2), default=None)
        if least is not None and max_period < m_max.bit_length():
            m_max = min(m_max, least ** max_period + 1)
    steps = count(1)
    plan = _horner(g.int_terms)
    for m in range(2, m_max + 1):
        if gcd(product, m) != 1:
            continue
        period = _modular_period(g, m, max_period, steps)
        if period is None:
            continue
        residues = []
        for v in islice(_walk(plan, m, 0), period):
            if next(steps) > _SEARCH_STEPS:
                raise _out_of_steps("with modulus %d still open" % m)
            v %= m
            if not v:
                break
            residues.append(v)
        else:
            cert = ModularCertificate(m, period, tuple(residues))
            if not verify_modular(g, cert):
                raise RuntimeError("internal error: modular certificate failed re-verification")
            return cert
    return None


def verify_modular(g: ExpSum, cert: ModularCertificate) -> bool:
    """Recheck coprimality, the period, all residues, plus one extra period."""
    m, period = cert.modulus, cert.period
    if m < 2 or any(gcd(base, m) != 1 for base, _ in g.terms) or period != _modular_period(g, m):
        return False
    values = [v % m for v in islice(_walk(_horner(g.int_terms), m, 0), 2 * period)]
    first, second = values[:period], values[period:]
    return tuple(first) == cert.residues and 0 not in first and second == first


# ---------------------------------------------------------------------
# constant-solution decision


class ConstantSolutionResult(Record):
    """Outcome of the integer-zero search for a diagonal sum g.

    status FOUND: `witness` is the zero of least |s| (nonnegative wins
    ties); `solutions_in_window` lists every zero inside the certified
    window and `families` names parity classes consisting entirely of
    zeros ("all", "even", "odd").  status NONE: g has no integer zero.
    For a sum of two or more terms, either `modular` holds a verified
    certificate whose period is at most the window width W, and the
    window was not scanned, or `modular` is None and the dominance
    window was scanned exhaustively and is empty.  A one-term sum
    a^s * A(s) is never scanned: A has no integer root, and `modular`,
    when there is one, is a second proof.  `note` says which.  status
    UNKNOWN: only a user-supplied window was scanned, or the certified
    window exceeds MAX_WINDOW and none was; nothing outside a scanned
    window is claimed.
    """

    status: str
    witness: Optional[int] = None
    solutions_in_window: Tuple[int, ...] = ()
    families: Tuple[str, ...] = ()
    window: Optional[Tuple[int, int]] = None
    dominance: Optional[DominanceCertificate] = None
    modular: Optional[ModularCertificate] = None
    note: str = ""


def _zeros_between(g: ExpSum, lo: int, hi: int) -> List[int]:
    """Every integer zero of g in [lo, hi], ascending.

    A residue filter finds the candidates: s >= 0 on g's own terms, and
    s = -k < 0 on the terms of g(-k) * (prod |a_i|)^k, which are integers
    too.  A zero of g has both residues 0, so none is missed, and each
    candidate is confirmed by exact evaluation.
    """
    def hits(terms, start, stop):
        walk = _walk(_horner(terms), _SCAN_MODULUS, start)
        return [k for k, v in zip(range(start, stop + 1), walk) if v % _SCAN_MODULUS == 0]

    candidates = []
    if lo < 0:
        negated = _negation_transform(g.int_terms)
        candidates += [-k for k in reversed(hits(negated, max(1, -hi), -lo))]
    if hi >= 0:
        candidates += hits(g.int_terms, max(0, lo), hi)
    return [s for s in candidates if g.eval(s) == 0]


def decide_constant_solution(
    g: ExpSum,
    user_bound: Optional[int] = None,
    m_max: int = DEFAULT_MODULUS_CAP,
) -> ConstantSolutionResult:
    """Decide whether g(s) = 0 for some integer s, with certificates.

    Without `user_bound` the decision is complete: a dominance
    certificate confines zeros to a finite window of width W.  For a
    sum of two or more terms with no parity class of zeros, the least
    modular certificate of period at most W is searched for first
    (modular_certificate_search with max_period=W); a verified one
    decides NONE and the window is not scanned.  Otherwise, or when the
    search spends its step budget, the window is scanned with a residue
    filter (g(s) modulo 2^61 - 1 and 2^31 - 1, in integers) and every
    candidate confirmed by exact evaluation.  A one-term sum a^s * A(s)
    is not scanned: its zeros are the integer roots of A, each confirmed
    by exact evaluation, and a NONE then gets the certificate as a
    second proof.  The result is the same in either order, apart from
    the note.  With `user_bound` only [-user_bound, user_bound] is
    scanned, the same way, and an empty scan yields UNKNOWN; a bound
    whose window exceeds MAX_WINDOW points raises ValueError.  A window
    beyond MAX_WINDOW points (or MAX_THRESHOLD_BITS) is not scanned:
    UNKNOWN, with a note naming the cap.
    """
    if g.is_zero():
        return ConstantSolutionResult(
            "FOUND", witness=0, families=("all",),
            note="all terms canceled: every integer is a solution",
        )
    if user_bound is not None:
        if user_bound < 0:
            raise ValueError("user bound must be nonnegative")
        if 2 * user_bound + 1 > MAX_WINDOW:
            raise ValueError("user bound %d spans more than MAX_WINDOW = %d points"
                             % (user_bound, MAX_WINDOW))
        window = (-user_bound, user_bound)
        zeros = _zeros_between(g, *window)
        if zeros:
            return ConstantSolutionResult(
                "FOUND", least_witness(zeros), tuple(zeros), window=window,
                note="witness found by bounded scan",
            )
        return ConstantSolutionResult(
            "UNKNOWN", window=window,
            note="no solution within the user bound; nothing outside it is claimed",
        )

    try:
        cert = dominance_bound(g)
    except WindowTooWide as e:
        return ConstantSolutionResult("UNKNOWN", note="no window scanned: %s" % e)
    window = (-cert.s_minus, cert.s_plus)
    families = cert.zero_parities
    search_first = len(g.terms) > 1 and not families
    modular = _certificate_within(g, m_max, window) if search_first else None
    if modular is not None:
        return ConstantSolutionResult(
            "NONE", None, (), (), window, cert, modular,
            "modular certificate proves no integer zero exists; window not scanned",
        )
    if len(g.terms) == 1:
        zeros = [s for s in integer_roots(g.terms[0][1]) if g.eval(s) == 0]
    else:
        zeros = _zeros_between(g, *window)
    if zeros or families:
        family_reps = [0 if f in ("all", "even") else 1 for f in families]
        return ConstantSolutionResult(
            "FOUND", least_witness(list(zeros) + family_reps), tuple(zeros), families, window, cert,
        )
    if not search_first:  # a one-term sum: the certificate is a second proof
        modular = _certificate_within(g, m_max, window)
    return ConstantSolutionResult("NONE", None, (), (), window, cert, modular, (
        "window scanned exhaustively; no integer zero exists" if search_first else
        "the coefficient polynomial has no integer root; window not scanned"))


def _certificate_within(
    g: ExpSum, m_max: int, window: Tuple[int, int]
) -> Optional[ModularCertificate]:
    """The least modular certificate of g with period at most the window
    width, or None when there is none or the step budget runs out (the
    window scan then decides)."""
    try:
        return modular_certificate_search(g, m_max, max_period=window[1] - window[0] + 1)
    except BudgetExceeded:
        return None


# ---------------------------------------------------------------------
# the partition-regularity decision


class HypothesisReport(Record):
    """Character-group hypothesis audit for a polyexp equation.

    `trivial_for_all` covers every partition of the term set having at
    least one block of size >= 2 (all-singleton partitions impose no
    pair constraints and are skipped).  It is decided pair by pair: the
    partition whose one non-singleton block is {i, j} has exactly that
    pair's constraint rows, and every other partition has a union of
    such rows, so G is trivial for all partitions iff it is for all
    pair partitions.  `checked_partitions` is the number of partitions
    this covers, Bell(m) - 1, and `failing_partition` the first failing
    pair, written as its partition (blocks ordered by least element).
    With one exponent variable a pair {i, j} fails exactly when
    |a_i| = |a_j|, a comparison that needs no factoring.
    `degenerate_possible` flags whether the pure polynomial system
    {P_k = 0 for all k} might contribute solution families outside the
    exponential analysis; it is reported, not decided.
    """

    checked_partitions: int
    trivial_for_all: bool
    failing_partition: Optional[Tuple[Tuple[int, ...], ...]]
    coprime: bool
    unit_entry_warning: bool
    degenerate_possible: bool


class PolyExpVerdict(Record):
    status: str  # "PR_CONSTANT" | "NOT_PR" | "UNKNOWN"
    result: Optional[ConstantSolutionResult]
    hypothesis: Optional[HypothesisReport]
    diagonal: Optional[ExpSum]
    notes: Tuple[str, ...]


def check_hypothesis(eq: PolyExpEquation) -> HypothesisReport:
    """Audit the character-group hypothesis with one check per pair.

    Pairs {i, j} are taken in lexicographic order, each as the single
    block ((i, j),), up to the first pair whose group is nontrivial; only
    that pair is written out as its full partition.  HypothesisReport
    says why that is exact.  The characters are not checked again per
    pair: PolyExpEquation checked them when the equation was built.
    With one exponent variable each check compares |a_i| with |a_j| and
    factors nothing; with two or more it ranks valuation rows, and raises
    IncompleteFactorization when an entry cannot be factored within the
    default trial-division budget.
    """
    chars = [t.characters for t in eq.terms]
    m = len(chars)
    failing = None
    cache: Dict[int, Dict[int, int]] = {}
    for i, j in combinations(range(m), 2):
        if not _pairs_trivial(chars, ((i, j),), cache):
            failing = tuple(sorted([(i, j)] + [(k,) for k in range(m) if k not in (i, j)]))
            break
    coprime, unit = mutually_coprime(chars)
    safe = any(t.poly.degree() == 0 for t in eq.terms)
    return HypothesisReport(bell_number(m) - 1, failing is None, failing, coprime, unit, not safe)


def decide_polyexp_pr(
    eq: PolyExpEquation,
    user_bound: Optional[int] = None,
    m_max: int = DEFAULT_MODULUS_CAP,
) -> PolyExpVerdict:
    """Decide partition regularity over the integers via the diagonal.

    A FOUND constant solution certifies regularity unconditionally, even
    when an incomplete factorization stops the hypothesis check, which
    only an equation with two or more exponent variables can do: in one
    variable the check compares |a_i| with |a_j| and factors nothing.  An
    empty certified window decides non-regularity provided the
    character-group hypothesis holds; when it fails or is not checked,
    no negative claim is made and the verdict is UNKNOWN.  A stopped
    check or constant-solution search gets a note, and a stopped search
    is UNKNOWN.  In one variable a common integer root of the P_k is a
    zero of the diagonal g, which the constant-solution decision has
    ruled in or out, so only an equation in two or more variables gets
    the note that {P_k = 0} is not analyzed.
    """
    notes: List[str] = []
    hypothesis: Optional[HypothesisReport] = None
    try:
        hypothesis = check_hypothesis(eq)
    except IncompleteFactorization as e:
        notes.append("hypothesis check aborted: %s" % e)
    if hypothesis is not None and hypothesis.unit_entry_warning:
        notes.append("characters contain unit entries (zero exponent vectors)")
    if hypothesis is not None and hypothesis.degenerate_possible and len(eq.variables) > 1:
        notes.append(
            "pure polynomial system {P_k = 0} not analyzed; it may carry "
            "solution families of its own"
        )

    g = diagonalize(eq)
    try:
        result = decide_constant_solution(g, user_bound=user_bound, m_max=m_max)
    except IncompleteFactorization as e:
        notes.append("constant-solution search aborted: %s" % e)
        return PolyExpVerdict("UNKNOWN", None, hypothesis, g, tuple(notes))
    if result.status == "FOUND":
        status = "PR_CONSTANT"
    elif result.status == "NONE" and hypothesis is not None:
        if hypothesis.trivial_for_all:
            status = "NOT_PR"
        else:
            status = "UNKNOWN"
            notes.append(
                "no constant solution, but the character-group hypothesis "
                "fails on partition %r; no regularity claim either way"
                # blocks of 1-based term numbers, as in the JSON report
                % ([[i + 1 for i in block] for block in hypothesis.failing_partition],)
            )
    else:
        status = "UNKNOWN"
    return PolyExpVerdict(status, result, hypothesis, g, tuple(notes))
