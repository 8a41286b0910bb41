"""Finite coloring search: the experimental side of partition regularity.

Partition-regularity claims about {1, .., N} are finitely checkable:
enumerate all solutions of the system inside [1, N], then search the
space of r-colorings for one avoiding monochromatic solutions.  An
avoiding coloring refutes forced monochromatism at this N; exhaustion
proves that every r-coloring of [1, N] contains a monochromatic
solution.  Both outcomes are machine-checkable: the search rechecks
its avoiding coloring with the column check of `verify_coloring`
against every solution it enumerated before reporting it.

The exact re-check of the enumerated candidates, the support bitmasks
of the search and `verify_coloring` run column by column.  The
candidates are transposed once, with zip(*candidates), for the
re-check; the search cuts the solutions' columns from those by
`compress`, with each selector that keeps rows, for its support masks
and the re-verification of the coloring found.  Whole columns go
through `map`, `compress`, `min` and `max`, so the loops run in C
rather than once per solution in Python.

Enumeration of polynomial systems is exact integer arithmetic on
polynomials scaled once to integer coefficients.  A linear system of
k >= 2 variables runs its first k-2 over the grid and solves the last
two in closed form: one pivot row gives the second-to-last as a
residue class inside an interval and the last by one exact division,
and the other rows, with the last eliminated, pin the second-to-last
or kill the prefix.  Other systems also run only the first k-2 over
the grid, and each prefix turns every polynomial into one in the last
two, y and z, tabulated over y = 1..N from powers of y tabulated once
per call.  One without z keeps the y where it vanishes; one whose
terms with z hold no other variable, A(z) + B = 0, looks B up in a map
from -A(z) to z built once per call; any other gives at each y integer
coefficients in z, solved by one exact division when linear (for the
whole column of y at once), by one integer square root when
quadratic, and by testing the divisors of the constant term
otherwise.  No rational arithmetic and no factoring run per prefix.

The search assigns colors to 1, 2, .., N in order, breaks color
symmetry by allowing at most one brand-new color per step, and checks
forward (Haralick and Elliott 1980): each solution support is checked
once, when its second-largest element is colored; if the rest of it
then has one color, that color is forbidden at its largest element,
and a branch is cut as soon as an uncolored element has lost every
color.  A cut branch has no avoiding completion, so the first coloring
found is the lexicographically least canonical avoiding coloring.
State lives in arrays indexed by element, not on the call stack, so N
is not limited by Python's recursion limit.

Each color has two bitmasks over [1, N]: its class, and its ban word,
the elements at which it would complete a monochromatic support.
Coloring e with c ORs into c's ban word the hits of e, the largest
elements of the supports checked at e whose rest lies in c's class,
and a wipe-out is an AND of the fresh bans with every ban word.  The
hits depend only on c's class inside e's domain, the union of those
rests, so an element with three or more such supports looks them up
in a memo of bounded size.  Backtracking past e takes its hits again
and clears the bans that were fresh, so the undo record of e is only
the part of its hits that was banned already: usually 0, and never a
whole ban word, which would make the memory quadratic in N.

Budgets guard both enumeration (grid cells) and search (assignment
nodes); the PRTOOLKIT_BUDGET environment variable overrides the node
default, with a tenth of it used for cells.
"""

from __future__ import annotations

import math
import os
from itertools import compress, product, repeat
from operator import add, and_, eq, itemgetter, lshift, mul, not_, or_
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import BudgetExceeded, MultiPoly, Record, _clear_denominators
from .equations import (
    GeneralPolySystem,
    LinearSystem,
    PolyExpEquation,
    TwoVarPolySystem,
    linear_polys,
    polyexp_eval,
)

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_CELL_BUDGET = 10_000_000
# about the most memory one table of `_back_substituted` may take
TABLE_BYTES = 1 << 23
# about the most memory the coloring search's memo of hits may take
MEMO_BYTES = 1 << 23

Coloring = Tuple[int, ...]
# an integer coefficient times prod(point[j]**e) over its (j, e) pairs
Term = Tuple[int, Tuple[Tuple[int, int], ...]]


def _budgets(node_budget: Optional[int], cell_budget: Optional[int]) -> Tuple[int, int]:
    env = os.environ.get("PRTOOLKIT_BUDGET")
    base = int(env) if env else DEFAULT_NODE_BUDGET
    nodes = node_budget if node_budget is not None else base
    cells = cell_budget if cell_budget is not None else (
        base // 10 if env else DEFAULT_CELL_BUDGET
    )
    return nodes, cells


def _system_polys(cls) -> Tuple[Tuple[str, ...], List[MultiPoly]]:
    """Every supported class as (variables, polynomial equations = 0)."""
    if isinstance(cls, LinearSystem):
        return cls.variables, linear_polys(cls)
    if isinstance(cls, (TwoVarPolySystem, GeneralPolySystem)):
        return cls.variables, [p.with_vars(cls.variables) for p in cls.polys]
    raise TypeError("unsupported class for polynomial enumeration: %r" % (cls,))


def _scaled_terms(poly: MultiPoly) -> List[Tuple[int, Tuple[int, ...]]]:
    """Terms of `poly` times the lcm of its coefficient denominators."""
    return list(zip(_clear_denominators(poly.terms.values()), poly.terms))


def _sparse(exps: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    return tuple((j, e) for j, e in enumerate(exps) if e)


def _value(terms: Sequence[Term], point: Sequence[int]) -> int:
    """Sum of c * prod(point[j]**e) over the (c, ((j, e), ..)) terms."""
    total = 0
    for c, powers in terms:
        for j, e in powers:
            c *= point[j] ** e
        total += c
    return total


def _entry_bytes(e: int, N: int) -> int:
    """Rough size of one table entry: an integer up to N**e and its slot."""
    return 64 + e * N.bit_length() // 8


def _powers(values: Sequence[int], exps) -> dict:
    return {e: [v ** e for v in values] for e in exps}


def _column(groups, prefix: Sequence[int], rows, n: int) -> List[int]:
    """n values: each (e, terms) group, valued at the prefix, times rows[e].

    The groups come in ascending e, and e = 0, a constant, needs no row.
    """
    const, col = 0, None
    for e, terms in groups:
        a = _value(terms, prefix)
        if not e:
            const = a
        elif a:
            col = ([const + a * v for v in rows[e]] if col is None
                   else [s + a * v for s, v in zip(col, rows[e])])
    return [const] * n if col is None else col


def _horner(cs: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _roots(cs: Sequence[int], N: int) -> Optional[List[int]]:
    """Roots in [1, N] of sum cs[d] t^d, ascending; None if every cs[d] is 0.

    A nonzero constant or a lone monomial c t^d has none.  After
    dividing out t^low, a linear remainder gives its root by one exact
    division and a quadratic one its roots by one integer square root of
    the discriminant; otherwise every integer root divides the nonzero
    constant term, so the divisors up to N are tried by Horner evaluation.
    """
    support = [d for d, c in enumerate(cs) if c]
    if not support:
        return None
    low, top = support[0], support[-1]
    if low == top:
        return []
    c0 = cs[low]
    if top == low + 1:
        return _linear_roots(c0, cs[top], N)
    if top == low + 2:
        a, b = cs[top], cs[low + 1]
        disc = b * b - 4 * a * c0
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return []
        qrs = (divmod(-b - s, 2 * a), divmod(-b + s, 2 * a))
        return sorted({q for q, r in qrs if r == 0 and 1 <= q <= N})
    rest = cs[low:top + 1]
    return [t for t in range(1, min(N, abs(c0)) + 1)
            if c0 % t == 0 and _horner(rest, t) == 0]


def _linear_roots(c0: int, c1: int, N: int) -> Optional[List[int]]:
    """`_roots([c0, c1], N)`: [-c0 / c1] where that is an integer in [1, N]."""
    if not c1:
        return None if not c0 else []
    q, r = divmod(-c0, c1)
    return [q] if r == 0 and 1 <= q <= N else []


def enumerate_solutions(
    cls,
    N: int,
    cell_budget: Optional[int] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """All solutions of the system with every variable in [1, N].

    Each polynomial, linear rows included, is scaled once to integer
    coefficients.  Both polynomial paths solve the last two variables
    for every prefix of the first k-2: linear systems of two or more
    variables in closed form (see `_linear_candidates`), other systems
    by tabulating the second-to-last and solving for the last (see
    `_back_substituted`).  Every candidate tuple is re-checked by
    evaluating each scaled polynomial exactly, over whole columns of
    candidates at once (see `_rechecked`).  Exponential equations
    are scanned directly.  Output is in lexicographic order.  A system
    with no variables raises ValueError.  The cell budget is charged
    before the walk: N^(k-2) outer prefixes (one for k = 1), times the
    values of the second-to-last variable (one where a non-pivot linear
    row pins it or k = 1, else N), times those of the last (one where an
    equation holds it, else N); a direct scan is charged N^k.
    """
    return _enumerated(cls, N, cell_budget)[0]


# solutions as rows, and the same solutions as columns: list(zip(*rows))
_RowsCols = Tuple[Tuple[Tuple[int, ...], ...], List[Tuple[int, ...]]]


def _enumerated(cls, N: int, cell_budget: Optional[int]) -> _RowsCols:
    """`enumerate_solutions`, with the solutions also as columns."""
    if N < 1:
        raise ValueError("N must be at least 1")
    _, cells_max = _budgets(None, cell_budget)

    if isinstance(cls, PolyExpEquation):
        k = len(cls.variables)
        if N ** k > cells_max:
            raise BudgetExceeded("direct scan needs %d cells" % (N ** k))
        rows = tuple(
            vals
            for vals in product(range(1, N + 1), repeat=k)
            if polyexp_eval(cls, vals) == 0
        )
        return rows, list(zip(*rows))

    vars_, polys = _system_polys(cls)
    k = len(vars_)
    if k == 0:
        raise ValueError("the system has no variables")
    scaled = [_scaled_terms(poly) for poly in polys]
    linear = isinstance(cls, LinearSystem) and k >= 2
    pivot, rows = _eliminated(scaled, k) if linear else (None, [])
    ys = 1 if k == 1 or any(row[k - 2] for row in rows) else N
    zs = 1 if any(exps[-1] for terms in scaled for _, exps in terms) else N
    cells = N ** max(k - 2, 0) * ys * zs
    if cells > cells_max:
        raise BudgetExceeded("enumeration needs %d cells" % cells)
    candidates = _linear_candidates(pivot, rows, k, N) if linear else _back_substituted(scaled, k, N)
    return _rechecked(tuple(candidates), scaled)


def _rechecked(candidates: Tuple[Tuple[int, ...], ...], scaled) -> _RowsCols:
    """The candidates at which every polynomial of `scaled` is 0, in their
    order, as rows and as columns.

    Each polynomial, a list of (c, exps) terms, is valued over whole
    columns of the candidates: a term is one chain of `map` (`pow`,
    then `mul` by the other factors), the terms are summed by `map(add)`
    and the zero rows picked by `_kept`, so no Python loop runs per
    candidate.
    """
    if not candidates:
        return (), []
    cols = list(zip(*candidates))
    zero = repeat(True)
    for terms in scaled:
        total = repeat(0, len(candidates))
        for c, exps in terms:
            col = repeat(c)
            for j, e in enumerate(exps):
                if e:
                    col = map(mul, col, cols[j] if e == 1 else map(pow, cols[j], repeat(e)))
            # a list, not a chain of one map per term: a chain deep enough
            # (tens of thousands of terms) overflows the C stack
            total = list(map(add, total, col))
        zero = list(map(and_, zero, map(not_, total)))
    return _kept(candidates, cols, zero)


def _kept(rows: Tuple[Tuple[int, ...], ...], cols: List[Tuple[int, ...]],
          selector: Sequence[bool]) -> _RowsCols:
    """The rows where `selector` is true, and their columns, cut from
    `cols` by the same selector: list(zip(*kept rows)), with no transposition."""
    rows = tuple(compress(rows, selector))
    return rows, [tuple(compress(col, selector)) for col in cols] if rows else []


def _back_substituted(scaled, k: int, N: int) -> Iterator[Tuple[int, ...]]:
    """Candidate tuples, in lexicographic order, by tabulating y and solving for z.

    Call the last variable z and the second-to-last y (for k = 1, y is
    a dummy that takes only the value 1).  Each polynomial's terms are
    grouped by the exponent of z, and each group under a prefix of the
    first k-2 variables is a polynomial in y, tabulated over y from the
    powers y**e, which are tabulated once per call for the exponents e
    that occur.  Once per call, each polynomial is sorted by how it is
    solved for z:

    - absent: z does not occur, and y is kept where the column is 0.
    - separated: every term with z has no other variable, so it reads
      A(z) + B = 0.  A map from -A(z) to the ascending z in [1, N] that
      give it is built once, and B's column is looked up in it.
    - mixed: at each (prefix, y) the groups' columns give the integer
      coefficients of a polynomial in z, whose roots (see `_roots`) are
      the candidates.  One of degree 1 in z, c1 z + c0, is solved for
      the whole column at once by exact division.

    Where a table would exceed about TABLE_BYTES, y runs in blocks whose
    powers are tabulated as they come, and a separated polynomial is
    solved as a mixed one; so it is for k = 1, where the map would serve
    a single y.  The candidates of a (prefix, y) are the z that every
    polynomial admits.
    """
    Y = N if k > 1 else 1
    # (map or None, top exponent of z, [(z exponent, [(y exponent, terms)])])
    polys = []
    yexps = set()
    for terms in scaled:
        groups = {0: {}}  # z exponent -> y exponent -> terms in the prefix
        for c, exps in terms:
            ey = exps[-2] if k > 1 else 0
            yexps.add(ey)
            by_y = groups.setdefault(exps[-1], {})
            by_y.setdefault(ey, []).append((c, _sparse(exps[:-2])))
        top = max(groups)
        table = None
        # separated: no term with z holds y or a prefix variable
        if top and k > 1 and N * _entry_bytes(top, N) <= TABLE_BYTES and all(
                list(g) == [0] and not any(p for _, p in g[0])
                for d, g in groups.items() if d):
            table = {}
            for z in range(1, N + 1):
                a = sum(c * z ** d for d, g in groups.items() if d for c, _ in g[0])
                table.setdefault(-a, []).append(z)
            groups = {0: groups[0]}
        polys.append((table, top, [(d, sorted(g.items())) for d, g in groups.items()]))
    yexps.discard(0)

    columns = 1 + len(yexps) + sum(len(groups) for _, _, groups in polys)
    step = max(1, TABLE_BYTES // (columns * _entry_bytes(max(yexps, default=0), Y)))
    rows = _powers(range(1, Y + 1), yexps) if step >= Y else None
    for prefix in product(range(1, N + 1), repeat=max(k - 2, 0)):
        for lo in range(1, Y + 1, step):
            ys = range(lo, min(lo + step, Y + 1))
            yield from _solve_last(prefix, ys, rows or _powers(ys, yexps), polys, k, N)


def _solve_last(prefix, ys, rows, polys, k: int,
                N: int) -> Iterator[Tuple[int, ...]]:
    """The candidates prefix + (y, z) for y in ys; rows[e] lists y**e along ys."""
    alive = range(len(ys))
    zero = [0] * len(ys)
    found, mixed = [], []
    for table, top, groups in polys:
        cols = [zero] * (top + 1)
        for d, g in groups:
            cols[d] = _column(g, prefix, rows, len(ys))
        if not top:
            alive = [i for i in alive if not cols[0][i]]
        elif table is not None:
            hits = list(map(table.get, cols[0]))
            alive = [i for i in alive if hits[i]]
            found.append(hits)
        elif top == 1:
            hits = list(map(_linear_roots, cols[0], cols[1], repeat(N)))
            alive = [i for i in alive if hits[i] != []]  # None: every z
            found.append(hits)
        else:
            mixed.append(cols)
        if not alive:
            return
    for i in alive:
        zs = None
        for hits in found:
            if hits[i] is not None:
                zs = hits[i] if zs is None else [z for z in zs if z in hits[i]]
        for cols in mixed:
            if zs is not None and not zs:
                break
            cs = [col[i] for col in cols]
            zs = _roots(cs, N) if zs is None else [z for z in zs if _horner(cs, z) == 0]
        for z in range(1, N + 1) if zs is None else zs:
            yield (prefix + (ys[i], z))[-k:]  # k = 1 drops the dummy y


def _eliminated(scaled, k: int) -> Tuple[Optional[List[int]], List[List[int]]]:
    """(pivot or None, the other nonzero rows) of a linear system, k >= 2.

    Each row becomes an integer vector (prefix coefficients, b, a, c),
    read under a prefix of the first k-2 variables as b t + a u + c = 0
    in the last two, t and u.  The first row with a != 0 is the pivot
    (a0, b0, c0), signed so that a0 > 0; a0 times every other row minus
    a times the pivot eliminates u, leaving e t + d = 0.
    """
    rows = []
    for terms in scaled:
        row = [0] * (k + 1)
        for c, exps in terms:
            row[next((j for j, e in enumerate(exps) if e), k)] = c
        rows.append(row)
    pivot = next((row for row in rows if row[k - 1]), None)
    if pivot is not None:
        rows.remove(pivot)  # an equal row before it would have been the pivot
        if pivot[k - 1] < 0:
            pivot = [-x for x in pivot]
        rows = [[pivot[k - 1] * x - row[k - 1] * y for x, y in zip(row, pivot)] for row in rows]
    return pivot, [row for row in rows if any(row)]


def _linear_candidates(pivot, rows, k: int, N: int) -> Iterator[Tuple[int, ...]]:
    """Candidate tuples, in lexicographic order, of a linear system, k >= 2,
    from its `_eliminated` rows.

    Each row e t + d = 0 other than the pivot pins t by one exact
    division, kills the prefix, or says nothing.  The pivot then admits
    the t of one residue class mod a0 / gcd(b0, a0), where u is an
    integer, inside one interval, where 1 <= u <= N, and gives u by one
    exact division.  Without a pivot u runs over [1, N].
    """
    if pivot is not None:
        a0, b0 = pivot[k - 1], pivot[k - 2]
        g = math.gcd(b0, a0)
        m = a0 // g
        inverse = pow(b0 // g, -1, m)

    for prefix in product(range(1, N + 1), repeat=k - 2):
        lo, hi = 1, N
        for row in rows:
            d = row[k] + sum(map(mul, row, prefix))
            if row[k - 2]:
                t, r = divmod(-d, row[k - 2])
                if r:
                    break
                lo, hi = max(lo, t), min(hi, t)
            elif d:
                break
        else:
            if pivot is None:
                for t in range(lo, hi + 1):
                    for u in range(1, N + 1):
                        yield prefix + (t, u)
                continue
            c0 = pivot[k] + sum(map(mul, pivot, prefix))
            if c0 % g:
                continue  # a0 u = -(b0 t + c0) has no integer u
            # a0 <= -(b0 t + c0) <= N a0, bounding t when b0 != 0
            if b0 > 0:
                lo, hi = max(lo, -((N * a0 + c0) // b0)), min(hi, -(a0 + c0) // b0)
            elif b0 < 0:
                lo, hi = max(lo, -((a0 + c0) // b0)), min(hi, (N * a0 + c0) // -b0)
            elif not a0 <= -c0 <= N * a0:
                continue
            t0 = -c0 // g * inverse
            for t in range(lo + (t0 - lo) % m, hi + 1, m):
                yield prefix + (t, -(b0 * t + c0) // a0)


def filter_injectivity(
    solutions: Sequence[Tuple[int, ...]], r: int
) -> Tuple[Tuple[int, ...], ...]:
    """Keep solutions taking at least r distinct values.

    r = 2 drops exactly the constant solutions; r equal to the arity
    keeps only fully injective tuples.  The distinct values are counted
    by `set` mapped over the solutions, not by a support bitmask, which
    would take max(solution) bits for each solution.
    """
    if r < 1:
        raise ValueError("injectivity threshold must be at least 1")
    if solutions and r > len(solutions[0]):
        raise ValueError("injectivity threshold exceeds tuple arity")
    return tuple(compress(solutions, map(r.__le__, map(len, map(set, solutions)))))


def verify_coloring(
    coloring: Sequence[int], solutions: Sequence[Tuple[int, ...]]
) -> Tuple[bool, Tuple[Tuple[int, ...], ...]]:
    """(no solution monochromatic, all offending solutions, as tuples in input order).

    `coloring[i]` is the color of the integer i + 1; a solution value
    outside the colored range is a ValueError naming the first such
    solution, and so are solutions of mixed arity.  The check runs over
    columns: each column's min and max are checked against the range
    before any color is looked up (a value below 1 would otherwise wrap
    to the end of `coloring`), then each column is mapped through the
    coloring, and a solution is monochromatic where all adjacent columns
    agree.  A solution of arity 1 always is, an empty one never.
    """
    solutions = tuple(solutions)
    arities = set(map(len, solutions))
    if len(arities) > 1:  # zip would drop the values past the shortest
        raise ValueError("solutions of mixed arity: %s" % sorted(arities))
    return _verify_columns(coloring, solutions, list(zip(*solutions)))


def _verify_columns(coloring: Sequence[int], solutions: Tuple[Tuple[int, ...], ...],
                    cols: List[Tuple[int, ...]]) -> Tuple[bool, Tuple[Tuple[int, ...], ...]]:
    """`verify_coloring` on solutions of one arity, given as rows and as columns."""
    n = len(coloring)
    if any(min(col) < 1 or max(col) > n for col in cols):
        sol = next(s for s in solutions if min(s) < 1 or max(s) > n)
        raise ValueError("solution %r escapes the colored range" % (sol,))
    table = (None, *coloring)
    # itemgetter of two or more indices gives a tuple: the leading 0 makes two
    colored = [itemgetter(0, *col)(table)[1:] for col in cols]
    # all adjacent colors agree: the colors but the last equal those but the first
    mono = (map(eq, zip(*colored[:-1]), zip(*colored[1:])) if len(cols) > 1
            else repeat(bool(cols)))
    offenders = tuple(map(tuple, compress(solutions, mono)))
    return not offenders, offenders


def _triggers(supports: Sequence[int],
              N: int) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
    """(triggers, domains): triggers[e] holds each distinct support whose
    second-largest element is e, as (the rest below e as a bitmask, its
    largest element t), and domains[e] is the union of those rests.

    Every support holds two or more elements.  The support without t is
    formed once and serves both to find e and to clear it.  The shifts
    and xors on masks of N bits cost more than the loop around them, so
    whole-list `map` chains of the same steps are no faster.
    """
    triggers: List[List[Tuple[int, int]]] = [[] for _ in range(N + 1)]
    domains = [0] * (N + 1)
    for support in set(supports):
        t = support.bit_length() - 1
        below = support ^ 1 << t
        e = below.bit_length() - 1
        rest = below ^ 1 << e
        triggers[e].append((rest, t))
        domains[e] |= rest
    return triggers, domains


def _hits(trig: Sequence[Tuple[int, int]], mask: int) -> int:
    """The largest elements t of the (rest, t) triggers whose rest lies
    in `mask`, as a bitmask."""
    hit = 0
    for rest, t in trig:
        if mask & rest == rest:
            hit |= 1 << t
    return hit


class SearchResult(Record):
    """Outcome of the exhaustive avoiding-coloring search.

    status "AVOIDING": `coloring` is the lexicographically least
    canonical coloring of [1, N] with no monochromatic solution.
    status "FORCED": the search space was exhausted, so every coloring
    with this many colors contains a monochromatic solution; `nodes`
    documents the exhaustion.  status "UNKNOWN": a budget ran out
    before either outcome; never a silent wrong FORCED.  `nodes` counts
    the colors tried at an element, those that cut their branch
    included; colors already forbidden there are skipped without one.
    """

    status: str  # "AVOIDING" | "FORCED" | "UNKNOWN"
    coloring: Optional[Coloring]
    N: int
    colors: int
    nodes: int
    solution_count: int
    note: str = ""


def search_avoiding_coloring(
    cls,
    N: int,
    colors: int,
    min_injectivity: int = 1,
    node_budget: Optional[int] = None,
    cell_budget: Optional[int] = None,
) -> SearchResult:
    """Search all r-colorings of [1, N] for one avoiding the system.

    `min_injectivity` = 2 ignores constant solutions (which force
    trivially); a threshold below 1 or above the number of variables is
    a ValueError, whatever N.  Budget exhaustion yields an UNKNOWN outcome
    with the partial node count.
    """
    if colors < 1:
        raise ValueError("need at least one color")
    if min_injectivity < 1:
        raise ValueError("injectivity threshold must be at least 1")
    if min_injectivity > len(cls.variables):
        raise ValueError("injectivity threshold exceeds tuple arity")
    nodes_max, _ = _budgets(node_budget, cell_budget)
    try:
        solutions, cols = _enumerated(cls, N, cell_budget)
    except BudgetExceeded as e:
        return SearchResult(
            status="UNKNOWN", coloring=None, N=N, colors=colors, nodes=0,
            solution_count=0, note=str(e),
        )

    # each solution's support, its set of values, as a bitmask OR-ed over
    # the columns: its size is the number of distinct values, and a
    # support of one element makes a constant solution
    supports = [0] * len(solutions)
    for col in cols:
        supports = list(map(or_, supports, map(lshift, repeat(1), col)))
    sizes = list(map(int.bit_count, supports))
    if min_injectivity > 1:  # keep what filter_injectivity keeps, columns cut alike
        keep = list(map(min_injectivity.__le__, sizes))
        solutions, cols = _kept(solutions, cols, keep)
        supports = list(compress(supports, keep))
    elif 1 in sizes:
        return SearchResult(
            status="FORCED",
            coloring=None,
            N=N,
            colors=colors,
            nodes=0,
            solution_count=len(solutions),
            note="constant solution %r is monochromatic under every coloring"
            % (solutions[sizes.index(1)],),
        )

    # masks[c]: the elements colored c; banned[c]: the elements at which
    # c would complete a monochromatic support
    triggers, domains = _triggers(supports, N)
    masks = [0] * min(colors, N)
    banned = [0] * len(masks)
    # the hits of elements with three or more triggers, keyed by
    # (mask & domains[e]) * (N + 1) + e, while there is room
    memo = {}
    room = MEMO_BYTES // (N // 8 + 128)
    # color[e] is the color of e; used[e] the number of colors among
    # 1..e-1; tried[e] the number of colors already tried for e; kept[e]
    # the hits of e that were banned for color[e] before e took it
    color = [0] * (N + 1)
    used = [0] * (N + 2)
    tried = [0] * (N + 2)
    kept = [0] * (N + 1)
    nodes = 0

    e = 1
    while 0 < e <= N:
        c, top = tried[e], used[e] + 1
        if top > colors:
            top = colors
        while c < top:
            if banned[c] >> e & 1:
                c += 1  # c would complete a support at e: no node
                continue
            nodes += 1
            if nodes > nodes_max:
                return SearchResult(
                    status="UNKNOWN", coloring=None, N=N, colors=colors, nodes=nodes,
                    solution_count=len(solutions),
                    note="coloring search exceeded %d nodes" % nodes_max,
                )
            mask, trig = masks[c], triggers[e]
            key = (mask & domains[e]) * (N + 1) + e if len(trig) > 2 else None
            hit = memo.get(key)
            if hit is None:
                hit = _hits(trig, mask)
                if key is not None and len(memo) < room:
                    memo[key] = hit
            if hit:
                old = banned[c]
                kept[e] = both = hit & old
                if both != hit:
                    fresh = hit ^ both
                    banned[c] = old | fresh
                    for ban in banned:  # fresh & every color's bans
                        fresh &= ban
                        if not fresh:
                            break
                    else:
                        banned[c] = old  # an element lost its last color: cut
                        c += 1
                        continue
            break
        else:
            e -= 1  # every color failed: backtrack, lifting the bans e added
            c = color[e]
            mask = masks[c] = masks[c] & ~(1 << e)
            trig = triggers[e]
            hit = memo.get((mask & domains[e]) * (N + 1) + e if len(trig) > 2 else None)
            if hit is None:
                hit = _hits(trig, mask)
            if hit:
                banned[c] ^= hit ^ kept[e]
            continue
        tried[e] = c + 1
        color[e] = c
        masks[c] = mask | 1 << e
        e += 1
        used[e] = used[e - 1] if c < used[e - 1] else c + 1
        tried[e] = 0

    if e > N:
        coloring = tuple(color[1:])
        ok, offenders = _verify_columns(coloring, solutions, cols)
        if not ok:
            raise RuntimeError(
                "internal error: avoiding coloring failed re-verification: %r"
                % (offenders[:3],))
        return SearchResult(
            status="AVOIDING",
            coloring=coloring,
            N=N,
            colors=colors,
            nodes=nodes,
            solution_count=len(solutions),
        )
    return SearchResult(
        status="FORCED",
        coloring=None,
        N=N,
        colors=colors,
        nodes=nodes,
        solution_count=len(solutions),
        note="search space exhausted",
    )


def canonical_coloring(kind: str, N: int, r: int = 2) -> Coloring:
    """Classical colorings for experiments, as explicit tables.

    "parity": n mod 2.  "mod": n mod r (residue classes).  "dyadic":
    floor(log2 n) mod r (blocks [2^k, 2^(k+1))), which for r = 2 avoids
    y = 2 x at every N.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if kind == "parity":
        return tuple(n % 2 for n in range(1, N + 1))
    if kind == "mod":
        if r < 2:
            raise ValueError("mod coloring needs r >= 2")
        return tuple(n % r for n in range(1, N + 1))
    if kind == "dyadic":
        if r < 2:
            raise ValueError("dyadic coloring needs r >= 2")
        return tuple((n.bit_length() - 1) % r for n in range(1, N + 1))
    raise ValueError("unknown coloring kind %r" % (kind,))
