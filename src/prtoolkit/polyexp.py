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
every such pair partition, which takes C(m, 2) rank checks, not Bell(m).

Deciding whether g has an integer zero is done with exact arithmetic
only, and on integers: ExpSum scales g once to integer coefficients
(ExpSum.int_terms), and every rule below reads that form.  Fractions
remain only in ExpSum.eval's result and in the parity parts of a sum
with bases a and -a, which are Taylor-shifted as UniPolys and scaled
back to integers by ExpSum.  A dominance certificate confines all zeros
to a finite window which is then scanned, and an independent modular
certificate (all residues of g nonzero modulo some M coprime to the
bases) can confirm emptiness a second way.  Every residue comes from
one walk, which yields g(s) mod M for s = start, start + 1, ... in
integers: the window filter walks modulo the primes 2^61 - 1 and
2^31 - 1 at once (negative s through the integer sum
g(-k) * (prod |a_i|)^k) and evaluates g exactly only where both
residues are 0, which every true zero satisfies; the joint modular scan
walks modulo the lcm of the live moduli; the certificate table and its
re-verification walk modulo the certificate's modulus.  The dominance
thresholds are found by doubling and bisection, since each defining
inequality is monotone past its starting point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from math import comb, gcd, lcm, prod
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import (
    DEFAULT_FACTOR_BUDGET,
    IncompleteFactorization,
    MultiPoly,
    RatMatrix,
    UniPoly,
    factor_integer,
    integer_roots,
    least_witness,
)

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

# Residues are carried modulo the product of the primes 2^61 - 1 and
# 2^31 - 1, that is modulo both at once.
_SCAN_MODULUS = ((1 << 61) - 1) * ((1 << 31) - 1)

# Bit bound on the lcm of one block of moduli in the joint residue scan
# of modular_certificate_search (the lcm of 2..200 has 288 bits), so the
# cost of one step stays bounded for large m_max.
_JOINT_BITS = 2048

# One term of an exponential sum on integer coefficients: (base, the
# coefficients of its polynomial, lowest degree first).
IntTerm = Tuple[int, Tuple[int, ...]]


# ---------------------------------------------------------------------
# equation structure


@dataclass(frozen=True)
class PolyExpTerm:
    """One additive term: poly * product of characters."""

    poly: MultiPoly
    characters: Tuple[int, ...]


@dataclass(frozen=True)
class PolyExpEquation:
    """A polynomial-exponential equation, normalized to `sum = 0` form.

    `variables` lists every variable in declaration order; `exp_vars`
    are the ones appearing in exponent position (character vectors are
    aligned with this tuple); `param_var` is the distinguished variable
    appearing only polynomially, if any.
    """

    variables: Tuple[str, ...]
    exp_vars: Tuple[str, ...]
    param_var: Optional[str]
    terms: Tuple[PolyExpTerm, ...]

    def __post_init__(self):
        if not self.exp_vars:
            raise ValueError("a polyexp equation needs at least one exponent variable")
        if not self.terms:
            raise ValueError("a polyexp equation needs at least one term")
        seen = set()
        for t in self.terms:
            if len(t.characters) != len(self.exp_vars):
                raise ValueError("character vector length must match exp_vars")
            if any((not isinstance(b, int)) or b == 0 for b in t.characters):
                raise ValueError("character entries must be nonzero integers")
            if t.poly.is_zero():
                raise ValueError("term polynomial must be nonzero")
            if t.characters in seen:
                raise ValueError(
                    "duplicate character vector %r; merge the terms" % (t.characters,)
                )
            seen.add(t.characters)


def polyexp_eval(eq: PolyExpEquation, values: Sequence[Union[int, Fraction]]) -> Fraction:
    """Evaluate the equation's left-hand side at integer variable values."""
    if len(values) != len(eq.variables):
        raise ValueError("need one value per variable")
    vmap = dict(zip(eq.variables, values))
    total = Fraction(0)
    for t in eq.terms:
        part = t.poly.eval([vmap[v] for v in t.poly.vars])
        for b, v in zip(t.characters, eq.exp_vars):
            part *= Fraction(b) ** int(vmap[v])
        total += part
    return total


# ---------------------------------------------------------------------
# exponential sums in one variable


class ExpSum:
    """Exact exponential sum  g(s) = sum_i a_i^s * A_i(s)  over Z.

    Bases are pairwise distinct nonzero integers and coefficient
    polynomials are nonzero with integer coefficients; construction
    merges duplicate bases, drops canceled terms and clears denominators
    by a common positive factor (which preserves the zero set).

    `terms` holds the pairs (a_i, A_i) with A_i a UniPoly, and
    `int_terms` the same pairs with A_i as its tuple of int coefficients,
    lowest degree first, computed once here.  The decision rules of this
    module read `int_terms`; `terms` serves the reports and the Taylor
    shifts of _branch_pairs.
    """

    __slots__ = ("terms", "int_terms")

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
        den = 1
        for base in order:
            for c in merged[base].coeffs:
                den = lcm(den, c.denominator)
        out = [(base, merged[base] if den == 1 else merged[base].scale(den))
               for base in order if not merged[base].is_zero()]
        object.__setattr__(self, "terms", tuple(out))
        object.__setattr__(
            self, "int_terms", tuple((b, tuple(c.numerator for c in p.coeffs)) for b, p in out)
        )

    def __setattr__(self, name, value):
        raise AttributeError("ExpSum is immutable")

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
            return Fraction(_int_sum(self.int_terms, s))
        num = _int_sum(_negation_transform(self.int_terms), -s)
        if not num:
            return Fraction(0)
        return Fraction(num, prod(abs(b) for b, _ in self.int_terms) ** -s)

    def __eq__(self, other):
        if not isinstance(other, ExpSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

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
    budget: int = DEFAULT_FACTOR_BUDGET,
    *,
    _cache: Optional[Dict[int, Dict[int, int]]] = None,
) -> bool:
    """Whether G = {z : a_i^z = a_j^z for i~j} is the zero subgroup of Z^n.

    For every pair in a common block and every prime p dividing any
    involved entry, the vector of valuation differences
    (v_p(a_{i,k}) - v_p(a_{j,k}))_k is a linear constraint on z; G is
    trivial iff the stacked constraint matrix has rank n.  Signs are
    immaterial: the sign conditions carve out a finite-index subgroup,
    and a finite-index subgroup of a nontrivial lattice is nontrivial.

    Raises IncompleteFactorization when an entry cannot be factored
    within the budget.  `_cache` maps |entry| to its factorization; one
    dict shared across calls factors each entry once.
    """
    chars = [tuple(c) for c in characters]
    if not chars:
        raise ValueError("need at least one character")
    n = len(chars[0])
    if n < 1 or any(len(c) != n for c in chars):
        raise ValueError("characters must share a positive common length")
    if any(b == 0 for c in chars for b in c):
        raise ValueError("character entries must be nonzero")

    cache = {} if _cache is None else _cache

    def vals(x: int) -> Dict[int, int]:
        x = abs(x)
        if x not in cache:
            cache[x] = dict(factor_integer(x, budget)[1])
        return cache[x]

    rows: List[List[int]] = []
    for block in partition:
        block = list(block)
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                i, j = block[a], block[b]
                primes = set()
                for k in range(n):
                    primes.update(vals(chars[i][k]))
                    primes.update(vals(chars[j][k]))
                for p in sorted(primes):
                    rows.append(
                        [
                            vals(chars[i][k]).get(p, 0) - vals(chars[j][k]).get(p, 0)
                            for k in range(n)
                        ]
                    )
    if not rows:
        return False  # no pair constraints: G = Z^n, never trivial for n >= 1
    return RatMatrix(rows).rank() == n


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


@dataclass(frozen=True)
class ABConstants:
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


@dataclass(frozen=True)
class BranchCertificate:
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


@dataclass(frozen=True)
class DominanceCertificate:
    """Window [-s_minus, s_plus] containing every integer zero of g.

    `zero_parities` lists parity classes on which g vanishes
    identically (each such class is an infinite solution family and is
    excluded from the branch guarantees).
    """

    s_plus: int
    s_minus: int
    branches: Tuple[BranchCertificate, ...]
    zero_parities: Tuple[str, ...]


class WindowTooWide(ValueError):
    """The certified window would exceed MAX_WINDOW or MAX_THRESHOLD_BITS."""


def _abs_eval(coeffs: Sequence[int], t: int) -> int:
    """sum |c_e| * t^e over the nonzero coefficients only."""
    return sum(abs(c) * t ** e for e, c in enumerate(coeffs) if c)


def _int_sum(terms: Sequence[IntTerm], t: int) -> int:
    """sum_i b_i^t * C_i(t) over integer terms, t >= 0; b^t is skipped where C(t) = 0."""
    total = 0
    for b, coeffs in terms:
        c = sum(x * t ** e for e, x in enumerate(coeffs) if x)
        if c:
            total += b ** t * c
    return total


def _negation_transform(terms: Sequence[IntTerm]) -> List[IntTerm]:
    """Integer terms of  g(-k) * (prod |a_i|)^k  as an exponential sum in k.

    Each base a_i becomes sign(a_i) * prod_{j != i} |a_j| and the
    coefficient becomes A_i(-k), whose odd coefficients are those of A_i
    negated; when the |a_i| are pairwise distinct so are the new absolute
    bases, and all-positive bases stay positive.
    """
    total = prod(abs(b) for b, _ in terms)
    return [
        ((total // abs(b)) * (1 if b > 0 else -1),
         tuple(-c if e % 2 else c for e, c in enumerate(coeffs)))
        for b, coeffs in terms
    ]


# The rules of a branch certificate.  dominance_bound finds its thresholds
# with them and verify_dominance rechecks them, so each is stated once.


def _ordered(terms: Sequence[IntTerm]) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]:
    """A branch's bases and integer coefficients, by decreasing |base|."""
    ordered = sorted(terms, key=lambda t: abs(t[0]), reverse=True)
    return tuple(b for b, _ in ordered), tuple(c for _, c in ordered)


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
    max(t1, tstar) on.
    """
    c1 = coeffs[0]
    d1 = len(c1) - 1
    cd = abs(c1[-1])
    b1 = abs(bases[0])
    b2 = abs(bases[1])
    dmax = max(len(c) - 1 for c in coeffs[1:])
    tail = [(abs(b), c) for b, c in zip(bases[1:], coeffs[1:])]
    return (
        lambda t: 2 * _abs_eval(c1[:-1], t) <= cd * t ** d1,
        lambda t: (t + 1) ** dmax * b2 < t ** dmax * b1,
        lambda t: 2 * sum(_abs_eval(c, t) * b ** t for b, c in tail) < cd * t ** d1 * b1 ** t,
    )


def _branch(terms: Sequence[IntTerm], parity: str, direction: str) -> BranchCertificate:
    bases, coeffs = _ordered(terms)
    if len(bases) == 1:
        return BranchCertificate(
            parity, direction, bases, coeffs, "single", _largest_root(terms[0][1]), 0, 0
        )
    lead, ratio, dominance = _ratio_tests(bases, coeffs)
    limit = min(MAX_WINDOW, MAX_THRESHOLD_BITS // abs(bases[0]).bit_length())
    t1 = _least(lead, 1, limit)
    tstar = _least(ratio, 1, limit)
    T = _least(dominance, max(t1, tstar), limit)
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


def _least(holds: Callable[[int], bool], start: int, limit: int) -> int:
    """Least t in [start, limit] with holds(t); WindowTooWide if none.

    holds must be monotone from start on (once true, true for every
    larger t), so doubling steps find a true point and bisection then
    finds the least one: the same t as a linear search, in O(log t)
    evaluations.
    """
    lo, hi, step = start - 1, start, 1
    while hi > limit or not holds(hi):
        if hi >= limit:
            raise WindowTooWide(
                "a dominance threshold exceeds %d (MAX_WINDOW = %d, MAX_THRESHOLD_BITS = %d)"
                % (limit, MAX_WINDOW, MAX_THRESHOLD_BITS)
            )
        lo, hi, step = hi, min(hi + step, limit), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _branch_pairs(g: ExpSum) -> Tuple[Dict[Tuple[str, str], Sequence[IntTerm]], Tuple[str, ...]]:
    """The branch sums a dominance certificate of g covers, and its zero parities.

    Returns ({(parity, direction): terms}, zero_parities).  When all
    absolute bases are distinct the single part "all" is g itself.
    Otherwise the even part, in t with s = 2t, and the odd part, with
    s = 2t + 1, are treated separately: bases a and -a merge into a^2
    there, and that is the only way distinct integer bases can collide
    in absolute value; each part is an ExpSum, so it merges them, and its
    integer terms are read.  A part that vanishes is a zero parity; any
    other part has a "plus" branch, its own terms, and a "minus" branch,
    their _negation_transform.
    """
    abs_bases = [abs(b) for b, _ in g.int_terms]
    if len(set(abs_bases)) == len(abs_bases):
        parts = [("all", g.int_terms)]
    else:
        parts = [
            ("even", ExpSum((b * b, p.compose_linear(2, 0)) for b, p in g.terms).int_terms),
            ("odd", ExpSum((b * b, p.compose_linear(2, 1).scale(b)) for b, p in g.terms).int_terms),
        ]
    sums: Dict[Tuple[str, str], Sequence[IntTerm]] = {}
    for parity, terms in parts:
        if terms:
            sums[(parity, "plus")] = terms
            sums[(parity, "minus")] = _negation_transform(terms)
    if not sums:
        raise ValueError("nonzero exponential sum cannot vanish on all of Z")
    return sums, tuple(parity for parity, terms in parts if not terms)


def dominance_bound(g: ExpSum) -> DominanceCertificate:
    """Certificate confining every integer zero of g to a finite window.

    Raises ValueError on the identically zero sum (no finite window
    exists; every integer is a zero), and WindowTooWide (a ValueError)
    when the window of a sum of two or more terms would exceed
    MAX_WINDOW points or a threshold search would compare integers
    beyond MAX_THRESHOLD_BITS bits.  A one-term sum's window is spanned
    by the integer roots of its coefficient polynomial, which are its
    zeros, so it is never scanned and has no width cap.
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
    return DominanceCertificate(s_plus, s_minus, branches, zero_parities)


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


@dataclass(frozen=True)
class ModularCertificate:
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


def _modular_period(g: ExpSum, m: int, cap: Optional[int] = None) -> Optional[int]:
    """Period of s -> g(s) mod m, or None once it is known to exceed `cap`.

    The period is the lcm of the bases' multiplicative orders modulo m,
    joined with m itself when some coefficient polynomial is
    non-constant.  An order is counted to cap at most, or to m without a
    cap: a unit's order modulo m is below m, so a base whose powers get
    that far without reaching 1 is not invertible.
    """
    period = 1
    bound = m if cap is None else cap
    for base, coeffs in g.int_terms:
        k, t = 1, base % m
        while t != 1 and k <= bound:
            k, t = k + 1, t * base % m
        if t != 1 and cap is None:
            raise ValueError("base %d is not invertible modulo %d" % (base, m))
        period = lcm(period, k, m if len(coeffs) > 1 else 1)
        if cap is not None and period > cap:
            return None
    return period


def _horner(terms: Sequence[IntTerm]) -> List[tuple]:
    """Per integer term of a sum of base^s * C(s), the (base, c, steps) that _walk reads.

    Horner over C's nonzero coefficients, highest exponent first: a starts
    at the leading coefficient c, each step (gap, c_e) makes a = a * s^gap
    + c_e, and a last step (e, 0) follows when the lowest exponent e is > 0.
    """
    plan = []
    for base, coeffs in terms:
        exps = [e for e, c in enumerate(coeffs) if c][::-1]
        steps = [(e - f, coeffs[f]) for e, f in zip(exps, exps[1:])]
        if exps[-1]:
            steps.append((exps[-1], 0))
        plan.append((base, coeffs[exps[0]], steps))
    return plan


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
    absence proves nothing.

    One scan over s = 0, 1, 2, ... serves every usable modulus at once:
    it carries g(s) modulo Q, the lcm of the moduli still alive, and a
    modulus dies at the first s where it divides gcd(g(s) mod Q, Q).
    Since g mod m is periodic, a modulus that gets through its whole
    period without a zero never dies, so the scan returns the least
    live modulus as soon as s reaches its period: every smaller modulus
    has already shown a zero.  That is the modulus a search over m in
    ascending order would return, with the same residue table.  The
    moduli are scanned in ascending blocks whose lcm stays within
    _JOINT_BITS bits; the first block with a survivor holds the answer.

    decide_constant_solution passes its window width W as `max_period`:
    only periods <= W are tried, since a longer one costs more to check
    than the window scan it duplicates.  `certify` runs the full search.
    """
    if g.is_zero():
        return None
    product = prod(base for base, _ in g.int_terms)
    if max_period is not None and any(len(c) > 1 for _, c in g.int_terms):
        m_max = min(m_max, max_period)  # the period is a multiple of m
    moduli = (
        m for m in range(2, m_max + 1)
        if gcd(product, m) == 1
        and (max_period is None or _modular_period(g, m, max_period) is not None)
    )
    plan = _horner(g.int_terms)
    for block in _blocks(moduli):
        found = _least_surviving(g, plan, block)
        if found is not None:
            m, period = found
            residues = tuple(v % m for v in islice(_walk(plan, m, 0), period))
            return ModularCertificate(modulus=m, period=period, residues=residues)
    return None


def _blocks(moduli: Iterable[int]) -> Iterator[List[int]]:
    """Consecutive runs of `moduli`, each with an lcm of at most _JOINT_BITS bits.

    A block is yielded as soon as it is full, so the search that stops at
    the first block with a survivor never reads the moduli after it.
    """
    block: List[int] = []
    Q = 1
    for m in moduli:
        Q = lcm(Q, m)
        if Q.bit_length() > _JOINT_BITS:
            yield block
            block, Q = [], m
        block.append(m)
    if block:
        yield block


def _least_surviving(g: ExpSum, plan: List[tuple], moduli: List[int]) -> Optional[Tuple[int, int]]:
    """(least m in `moduli` with no zero of g mod m over its period, that period).

    `moduli` ascend and are coprime to every base; None when every one
    of them has a zero.  The values come from one walk modulo the lcm Q
    of the live moduli (`plan` is g's _horner plan), restarted at the
    next s modulo the new Q whenever Q is rebuilt.
    """
    live = list(moduli)
    Q = lcm(*live)
    least, period = live[0], _modular_period(g, live[0])
    rebuild_at = len(live) // 2
    s = 0
    while True:
        for v in _walk(plan, Q, s):
            G = gcd(v, Q)
            s += 1
            if G >= live[0]:
                cut = bisect_right(live, G)
                kept = [m for m in live[:cut] if G % m]
                if len(kept) < cut:
                    live = kept + live[cut:]
                    if not live:
                        return None
                    if live[0] != least:
                        least, period = live[0], _modular_period(g, live[0])
                    if len(live) <= rebuild_at and s < period:
                        break
            if s >= period:
                return least, period
        Q = lcm(*live)
        rebuild_at = len(live) // 2


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


@dataclass(frozen=True)
class ConstantSolutionResult:
    """Outcome of the integer-zero search for a diagonal sum g.

    status FOUND: `witness` is the zero of least |s| (nonnegative wins
    ties); `solutions_in_window` lists every zero inside the certified
    window and `families` names parity classes consisting entirely of
    zeros ("all", "even", "odd").  status NONE: the dominance window was
    scanned exhaustively and is empty, and `modular`, when present, is
    an independent second proof whose period is at most the window
    width W (`decide` tries no longer one; `certify` does).  status
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
    certificate confines zeros to a finite window, which is scanned with
    a residue filter (g(s) modulo 2^61 - 1 and 2^31 - 1, in integers)
    and every candidate confirmed by exact evaluation.  A one-term sum
    a^s * A(s) is not scanned: its zeros are the integer roots of A,
    each confirmed by exact evaluation.  With
    `user_bound` only [-user_bound, user_bound] is scanned, the same
    way, and an empty scan yields UNKNOWN.  A window beyond MAX_WINDOW
    points (or MAX_THRESHOLD_BITS) is not scanned: UNKNOWN, with a note
    naming the cap.  A NONE gets the least modular certificate of period
    at most the window width W; `certify` searches every period.
    """
    if g.is_zero():
        return ConstantSolutionResult(
            "FOUND", witness=0, families=("all",),
            note="all terms canceled: every integer is a solution",
        )
    if user_bound is not None:
        if user_bound < 0:
            raise ValueError("user bound must be nonnegative")
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
    if not verify_dominance(g, cert):
        raise RuntimeError("internal error: dominance certificate failed re-verification")
    window = (-cert.s_minus, cert.s_plus)
    if len(g.terms) == 1:
        zeros = [s for s in integer_roots(g.terms[0][1]) if g.eval(s) == 0]
    else:
        zeros = _zeros_between(g, *window)
    families = cert.zero_parities
    if zeros or families:
        family_reps = [0 if f in ("all", "even") else 1 for f in families]
        return ConstantSolutionResult(
            "FOUND", least_witness(list(zeros) + family_reps), tuple(zeros), families,
            window=window, dominance=cert,
        )
    modular = modular_certificate_search(g, m_max, max_period=window[1] - window[0] + 1)
    if modular is not None and not verify_modular(g, modular):
        raise RuntimeError("internal error: modular certificate failed re-verification")
    return ConstantSolutionResult(
        "NONE", window=window, dominance=cert, modular=modular,
        note="window scanned exhaustively; no integer zero exists",
    )


# ---------------------------------------------------------------------
# the partition-regularity decision


@dataclass(frozen=True)
class HypothesisReport:
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


@dataclass(frozen=True)
class PolyExpVerdict:
    status: str  # "PR_CONSTANT" | "NOT_PR" | "UNKNOWN"
    result: Optional[ConstantSolutionResult]
    hypothesis: Optional[HypothesisReport]
    diagonal: Optional[ExpSum]
    notes: Tuple[str, ...]


def check_hypothesis(
    eq: PolyExpEquation,
    budget: int = DEFAULT_FACTOR_BUDGET,
) -> HypothesisReport:
    """Audit the character-group hypothesis with one rank check per pair.

    Pairs {i, j} are taken in lexicographic order, each as the partition
    whose only non-singleton block is {i, j}, up to the first pair whose
    group is nontrivial; HypothesisReport says why that is exact.
    Raises IncompleteFactorization when an entry cannot be factored
    within the budget.
    """
    chars = [t.characters for t in eq.terms]
    m = len(chars)
    failing = None
    cache: Dict[int, Dict[int, int]] = {}
    for i, j in combinations(range(m), 2):
        partition = tuple(sorted([(i, j)] + [(k,) for k in range(m) if k not in (i, j)]))
        if not character_group_trivial(chars, partition, budget, _cache=cache):
            failing = partition
            break
    coprime, unit = mutually_coprime(chars)
    safe = any(t.poly.degree() == 0 for t in eq.terms)
    return HypothesisReport(
        checked_partitions=bell_number(m) - 1,
        trivial_for_all=failing is None,
        failing_partition=failing,
        coprime=coprime,
        unit_entry_warning=unit,
        degenerate_possible=not safe,
    )


def decide_polyexp_pr(
    eq: PolyExpEquation,
    user_bound: Optional[int] = None,
    m_max: int = DEFAULT_MODULUS_CAP,
) -> PolyExpVerdict:
    """Decide partition regularity over the integers via the diagonal.

    A FOUND constant solution certifies regularity unconditionally.
    An empty certified window decides non-regularity provided the
    character-group hypothesis holds; when the hypothesis fails, no
    negative claim is made and the verdict is UNKNOWN.
    """
    notes: List[str] = []
    try:
        hypothesis = check_hypothesis(eq)
    except IncompleteFactorization as e:
        return PolyExpVerdict(
            status="UNKNOWN",
            result=None,
            hypothesis=None,
            diagonal=None,
            notes=("hypothesis check aborted: %s" % e,),
        )
    if hypothesis.unit_entry_warning:
        notes.append("characters contain unit entries (zero exponent vectors)")
    if hypothesis.degenerate_possible:
        notes.append(
            "pure polynomial system {P_k = 0} not analyzed; it may carry "
            "solution families of its own"
        )

    g = diagonalize(eq)
    result = decide_constant_solution(g, user_bound=user_bound, m_max=m_max)
    if result.status == "FOUND":
        status = "PR_CONSTANT"
    elif result.status == "NONE":
        if hypothesis.trivial_for_all:
            status = "NOT_PR"
        else:
            status = "UNKNOWN"
            notes.append(
                "no constant solution, but the character-group hypothesis "
                "fails on partition %r; no regularity claim either way"
                % (hypothesis.failing_partition,)
            )
    else:
        status = "UNKNOWN"
    return PolyExpVerdict(status, result, hypothesis, g, tuple(notes))
