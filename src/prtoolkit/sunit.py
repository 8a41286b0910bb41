"""Three-term equations over finitely generated subgroups of Q*.

A subgroup G of the nonzero rationals given by generators is, modulo
the torsion {1, -1}, free abelian; its rank is the rank of the integer
matrix whose rows are the prime exponent vectors of the generators
(signs contribute only torsion).  The classical finiteness theorem for
unit equations bounds the number of solutions of a x + b y = 1 with
x, y in a rank-r group by 2^(8 (r + 2)); running the unknowns over G
itself, i.e. over the rank-2r group G x G, gives the form 2^(16 (r+1)).
Both bounds are exact integers here.

For a three-variable equation a x + b y + c z = 0 with x, y, z ranging
over G, partition regularity with respect to finite colorings of G
holds exactly when a + b + c = 0: then every constant triple
x = y = z = g is a solution and trivially monochromatic.  Otherwise
take a prime p that divides no numerator or denominator of a generator
or coefficient, nor the numerator of a + b + c; all but finitely many
primes qualify.
Every element of G is then a unit modulo p, so coloring g by g mod p
uses p - 1 colors.  In a monochromatic solution x, y, z would all be
congruent to one r != 0, and a x + b y + c z to (a + b + c) r != 0
(mod p): no solution is monochromatic.

Coefficients and generators are restricted to exact rationals;
enumeration is truncated by an exponent box rather than numeric height,
which keeps it exact and finite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import DEFAULT_FACTOR_BUDGET, IncompleteFactorization, Record, factor_integer, matrix_rank

Rational = Union[int, Fraction]

DEFAULT_ENUM_CELLS = 5_000_000


class GroupSpec(Record):
    """A finitely generated multiplicative subgroup of Q*.

    `exponents` has one row per generator, giving its exponent over the
    sorted prime basis `primes`; `signs` holds 1 for negative
    generators.  Every generator recomposes exactly as
    (-1)^sign * prod primes^row.  `rank` is the rank of the exponent
    matrix: the free rank of the group.
    """

    generators: Tuple[Fraction, ...]
    primes: Tuple[int, ...]
    exponents: Tuple[Tuple[int, ...], ...]
    signs: Tuple[int, ...]
    rank: int


def _exponent_map(q: Fraction, budget: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    num, den = abs(q.numerator), q.denominator
    if num != 1:
        for p, e in factor_integer(num, budget)[1]:
            out[p] = out.get(p, 0) + e
    if den != 1:
        for p, e in factor_integer(den, budget)[1]:
            out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e != 0}


def make_group(
    generators: Sequence[Rational], budget: int = DEFAULT_FACTOR_BUDGET
) -> GroupSpec:
    """Derive the exponent lattice, signs and rank from the generators."""
    gens = tuple(Fraction(g) for g in generators)
    if not gens:
        raise ValueError("need at least one generator")
    if any(g == 0 for g in gens):
        raise ValueError("generators must be nonzero")
    maps = [_exponent_map(g, budget) for g in gens]
    primes = tuple(sorted({p for m in maps for p in m}))
    rows = tuple(tuple(m.get(p, 0) for p in primes) for m in maps)
    return GroupSpec(
        generators=gens,
        primes=primes,
        exponents=rows,
        signs=tuple(0 if g > 0 else 1 for g in gens),
        rank=matrix_rank(rows),
    )


def _as_group(group: Union[GroupSpec, Sequence[Rational]], budget: int) -> GroupSpec:
    return group if isinstance(group, GroupSpec) else make_group(group, budget)


def subgroup_rank(
    generators: Union[GroupSpec, Sequence[Rational]],
    budget: int = DEFAULT_FACTOR_BUDGET,
) -> int:
    """Rank of the free part of the generated group: {2,3} -> 2, {-1} -> 0."""
    return _as_group(generators, budget).rank


def sunit_solution_bound(r: int) -> int:
    """Exact bound 2^(16 (r + 1)) on solutions of x + y = 1 over a rank-r group.

    This is the two-term bound applied to the rank-2r product group."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return 2 ** (16 * (r + 1))


def two_term_unit_bound(r: int) -> int:
    """Exact bound 2^(8 (r + 2)) for a x + b y = 1 over a rank-r group."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return 2 ** (8 * (r + 2))


def enumerate_group_elements(
    group: Union[GroupSpec, Sequence[Rational]],
    exp_bound: int,
    budget: int = DEFAULT_FACTOR_BUDGET,
    max_cells: int = DEFAULT_ENUM_CELLS,
) -> List[Fraction]:
    """All products g_1^{e_1} .. g_k^{e_k} with |e_i| <= exp_bound, sorted.

    A finite, deduplicated window into the group; completeness holds
    only relative to the exponent box.  An element is held as its sign
    bit and its exponent vector over `primes`, which determine it by
    unique factorization.  The box is built one generator at a time,
    and both each generator's powers and each partial box are sets, so
    -1 contributes two steps, not 2 exp_bound + 1, and dependent
    generators such as 2 and 4 collapse early.  The elements are sorted
    by an exact integer key, the value times the common denominator
    prod p^max(-e_p), and one Fraction is built per distinct element.
    """
    if exp_bound < 0:
        raise ValueError("exponent bound must be nonnegative")
    spec = _as_group(group, budget)
    if (2 * exp_bound + 1) ** len(spec.generators) > max_cells:
        raise ValueError("enumeration box too large")
    box = {(0, (0,) * len(spec.primes))}
    for sign, row in zip(spec.signs, spec.exponents):
        steps = {(e & sign, tuple(e * x for x in row))
                 for e in range(-exp_bound, exp_bound + 1)}
        box = {(s ^ t, tuple(map(add, v, w))) for s, v in box for t, w in steps}
    # shift[p] = max(-e_p) over the box, which holds 1 and so is >= 0:
    # value * prod p^shift is an integer
    shift = [-min(col) for col in zip(*(v for _, v in box))]
    keys = sorted([(1 - 2 * s) * prod(map(pow, spec.primes, map(add, v, shift)))
                   for s, v in box])
    common = prod(map(pow, spec.primes, shift))
    return [Fraction(key, common) for key in keys]


def count_unit_equation_solutions(
    a: Rational,
    b: Rational,
    group: Union[GroupSpec, Sequence[Rational]],
    exp_bound: int,
    budget: int = DEFAULT_FACTOR_BUDGET,
) -> Tuple[int, Tuple[Tuple[Fraction, Fraction], ...]]:
    """Pairs (x, y) in the exponent box with a x + b y = 1, exactly.

    Each x = n / d in the box determines y = (1 - a x) / b exactly,
    formed on integers as a reduced (numerator, denominator) pair and
    looked up among the box elements' pairs, so the scan is linear in
    the box.  Pairs come out in ascending order of x.  A count above the
    bound 2^(16 (r + 1)) (the two-term bound for the product group of
    rank 2r, which covers pairs from a rank-r group) is an internal
    error.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("coefficients must be nonzero")
    spec = _as_group(group, budget)
    members = {(x.numerator, x.denominator): x
               for x in enumerate_group_elements(spec, exp_bound)}
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    if bn < 0:  # so that y's denominator ad bn d is positive
        bn, bd = -bn, -bd
    sols = []
    for (n, d), x in members.items():
        # y = (1 - an n / (ad d)) * bd / bn
        num, den = bd * (ad * d - an * n), ad * bn * d
        g = gcd(num, den)
        y = members.get((num // g, den // g))
        if y is not None:
            sols.append((x, y))
    bound = sunit_solution_bound(spec.rank)
    if len(sols) > bound:
        raise RuntimeError("internal error: %d solutions exceed the finiteness bound %d"
                           % (len(sols), bound))
    return len(sols), tuple(sols)


class SUnitVerdict(Record):
    """Partition-regularity verdict for a x + b y + c z = 0 over a group.

    PR_CONSTANT iff the coefficient sum vanishes; then every constant
    triple is a solution.  NOT_PR otherwise: the residue coloring of
    the module docstring leaves no solution monochromatic.  `bound` =
    2^(16 (rank + 1)) is reported for context only; `rank` and `bound`
    are None without a group, or when it could not be factored.
    """

    status: str  # "PR_CONSTANT" | "NOT_PR"
    coefficient_sum: Fraction
    rank: Optional[int]
    bound: Optional[int]
    note: str = ""


def decide_sunit_3var(
    a: Rational,
    b: Rational,
    c: Rational,
    group: Union[GroupSpec, Sequence[Rational], None] = None,
    budget: int = DEFAULT_FACTOR_BUDGET,
) -> SUnitVerdict:
    """Decide a x + b y + c z = 0 for x, y, z ranging over the group.

    The criterion a + b + c = 0 is scale-invariant and independent of
    the particular group; the group, when given, only furnishes the
    rank and the finiteness bound reported for context.  When a
    generator cannot be factored within the budget, both are None and
    the note says so; the verdict stands.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if 0 in (a, b, c):
        raise ValueError("all three coefficients must be nonzero")
    s = a + b + c
    if s == 0:
        status = "PR_CONSTANT"
        note = "x = y = z = g solves the equation for every group element g"
    else:
        status = "NOT_PR"
        note = ("coefficient sum is nonzero: no constant solutions, and only "
                "finitely many solution shapes exist")
    rank = None
    bound = None
    if group is not None:
        try:
            rank = _as_group(group, budget).rank
        except IncompleteFactorization as e:
            note += "; rank and bound not computed: %s" % e
        else:
            bound = sunit_solution_bound(rank)
    return SUnitVerdict(status=status, coefficient_sum=s, rank=rank, bound=bound, note=note)
