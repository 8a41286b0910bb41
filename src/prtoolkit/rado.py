"""Partition regularity of linear systems over the positive integers.

For an integer matrix A, the homogeneous system A x = 0 is partition
regular over {1, 2, ...} exactly when A satisfies the columns
condition: the columns can be split into ordered blocks I_0, .., I_r
such that the block-0 columns sum to zero and each later block's sum
lies in the rational span of all earlier columns.

For A x = b with b != 0 the criterion combines two routes: either some
positive integer a gives a constant solution x = (a, .., a), or A
satisfies the columns condition and a constant solution exists over the
integers.  Over ground set Z the situation collapses: A x = b is
partition regular over Z iff it has a constant integer solution (for
every q, coloring by residue classes mod q forces a monochromatic
solution, whose common color class pins a * rowsum_i = b_i mod q for
all q simultaneously; conversely a constant solution is monochromatic
under any coloring, and homogeneous systems always admit a = 0).
The constant solutions are the common integer roots of the row
diagonals rowsum_i * a - b_i, found by `algebra.constant_solutions`,
the function that also decides the polynomial systems.

Certificates use 1-based column indices and one normal form, the
greedy pass of `columns_condition`: each block is the smallest fitting
set of the remaining columns, lexicographically least among those,
and a later block takes all remaining columns when they fit.  For a
single equation this is (J, rest) with J the smallest, then
lexicographically least, zero-sum subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence, Set, Tuple, Union

from .algebra import RatMatrix, UniPoly, constant_solutions, least_witness, matrix_rank
from .equations import LinearSystem

Partition = Tuple[Tuple[int, ...], ...]

DEFAULT_COLUMN_CAP = 12


def columns_condition(
    matrix: RatMatrix, cap: int = DEFAULT_COLUMN_CAP
) -> Optional[Partition]:
    """Greedy ordered partition witnessing the columns condition, else None.

    The first block is the smallest set of columns that sums to zero
    and holds a nonzero column (all of them when every column is zero).
    Each later block is all the remaining columns when their sum lies
    in the span of the columns used so far, else the smallest remaining
    set whose sum does.  Ties go to the lexicographically least set.
    If no block fits, the condition fails.

    No step needs undoing.  Suppose I_1, .., I_r witness the condition
    and U is the union of any valid prefix of blocks.  Then the nonempty
    sets I_t - U, taken in order, complete the partition: sum(I_t - U)
    = sum(I_t) - sum(I_t & U) lies in span(U | I_1 | .. | I_{t-1}).  A
    first block exists too: the witness blocks up to the first that
    holds a nonzero column all sum to zero.  So while a witness exists
    some block fits at every step, and the pass fails only when none
    does.

    Each block search tries subsets of the remaining columns by size,
    summing each candidate afresh, so it is exponential in the number
    of columns; it refuses to run past `cap` columns.  A single row with
    no zero-sum subset of its nonzero entries is refused first, from its
    table of reachable subset sums, when that table is the smaller.
    """
    n = matrix.n
    if n > cap:
        raise ValueError(
            "columns condition search over %d columns exceeds the cap %d; "
            "pass a larger cap to proceed" % (n, cap)
        )
    # rows scaled to integers keep every linear relation between columns.
    # Each used column r_j with a nonzero entry in row p then maps every
    # column v to r_j[p] v - v[p] r_j, a linear map whose kernel is
    # span(r_j), so a set of columns fits iff its columns here sum to
    # zero.  Dividing by the previous pivot is exact (Bareiss) and keeps
    # the entries small.
    rows = []
    for row in matrix.rows:
        den = lcm(*(x.denominator for x in row))
        rows.append([int(x * den) for x in row])
    rest = list(range(n))
    blocks: List[Tuple[int, ...]] = []
    prev = 1
    while rest:
        block = _next_block(rows, rest, first=not blocks)
        if block is None:
            return None
        blocks.append(block)
        rest = [j for j in rest if j not in block]
        for j in block:
            pivot = next((row for row in rows if row[j]), None)
            if pivot is None:
                continue
            a, f = pivot[j], list(pivot)
            for row in rows:
                b = row[j]
                row[:] = [(a * x - f[k] * b) // prev for k, x in enumerate(row)]
            prev = a
    return tuple(tuple(j + 1 for j in block) for block in blocks)


def _fits(rows: List[List[int]], block: Sequence[int]) -> bool:
    return all(sum(map(row.__getitem__, block)) == 0 for row in rows)


def _next_block(rows: List[List[int]], rest: List[int], first: bool) -> Optional[Tuple[int, ...]]:
    """The greedy block of `columns_condition` among the columns `rest`."""
    if first:
        nonzero = {j for j in rest if any(row[j] for row in rows)}
        if not nonzero:
            return tuple(rest)
        if len(rows) == 1 and _zero_sum_ruled_out([rows[0][j] for j in nonzero]):
            return None
    elif _fits(rows, rest):
        return tuple(rest)
    for size in range(1, len(rest) + 1):
        for block in combinations(rest, size):
            if _fits(rows, block) and (not first or not nonzero.isdisjoint(block)):
                return block
    return None


def _zero_sum_ruled_out(values: List[int]) -> bool:
    """Whether no nonempty subset of the nonzero `values` sums to 0, by a table.

    The table is the set of reachable nonempty subset sums, built one
    value at a time.  Every sum lies within +-sum|v|, so it never holds
    more than min(2^n, 2 sum|v| + 1) entries.  When 2 sum|v| + 1 exceeds
    2^n it would be no smaller than the subset walk of _next_block, so
    none is built and the answer is False, as it is once 0 is reached.
    """
    if 2 * sum(map(abs, values)) + 1 > 1 << len(values):
        return False
    sums: Set[int] = set()
    for v in values:
        sums |= {v} | {x + v for x in sums}
        if 0 in sums:
            return False
    return True


def verify_columns_condition(matrix: RatMatrix, partition: Sequence[Sequence[int]]) -> bool:
    """Exact check that an ordered partition witnesses the columns condition.

    Blocks carry 1-based column indices; they must be nonempty,
    disjoint and cover every column.
    """
    flat = [j for block in partition for j in block]
    if not (all(partition) and all(isinstance(j, int) for j in flat)
            and sorted(flat) == list(range(1, matrix.n + 1))):
        return False
    earlier: List[Tuple[Fraction, ...]] = []
    for block in partition:
        vec = [sum(row[j - 1] for j in block) for row in matrix.rows]
        # no columns span a nonzero vector, so the first block sums to zero
        if any(vec) and matrix_rank(earlier + [vec]) != matrix_rank(earlier):
            return False
        earlier.extend(matrix.column(j - 1) for j in block)
    return True


@dataclass(frozen=True)
class LinearVerdict:
    """Partition-regularity verdict for a linear system.

    status "PR_CONSTANT" carries `witness`: the constant a with
    A (a,..,a) = b in the ground set, or "all" when every a works.
    status "PR_COLUMNS" carries `partition`, the greedy ordered
    partition of `columns_condition`, which passes the checker; for
    nonhomogeneous systems the criterion additionally needs a constant
    integer solution, recorded in `integer_constant`.  status "NOT_PR"
    carries neither.  A homogeneous "PR_CONSTANT" verdict over N keeps
    its partition too.
    """

    status: str  # "PR_CONSTANT" | "PR_COLUMNS" | "NOT_PR"
    witness: Union[str, int, None]
    partition: Optional[Partition]
    integer_constant: Optional[int]
    domain: str
    homogeneous: bool
    note: str = ""


def decide_linear(
    system: LinearSystem, domain: str = "N", cap: int = DEFAULT_COLUMN_CAP
) -> LinearVerdict:
    """Decide partition regularity of A x = b over ground set N or Z.

    Over N: homogeneous systems are PR iff the columns condition holds
    (with a constant-witness upgrade when every row sums to zero);
    nonhomogeneous systems are PR iff a constant solution exists in N,
    or the columns condition holds together with a constant solution in
    Z.  Over Z the whole question reduces to constant solutions.
    """
    A = system.matrix
    homogeneous = all(v == 0 for v in system.rhs)
    # row i at x = (a, .., a) reads rowsum_i * a - b_i = 0
    diagonals = [UniPoly((-b_i, sum(row))) for row, b_i in zip(A.rows, system.rhs)]

    def constant(ground: str) -> Union[str, int, None]:
        found = constant_solutions(diagonals, ground)
        return found if found == "all" else least_witness(found)

    const = constant(domain)  # a ValueError for a domain other than N and Z
    if domain == "Z":
        if const is not None:
            return LinearVerdict(
                "PR_CONSTANT", const, None, None, "Z", homogeneous,
                note="over Z a constant integer solution decides regularity",
            )
        return LinearVerdict(
            "NOT_PR", None, None, None, "Z", homogeneous,
            note="no constant integer solution; residue colorings mod q "
            "obstruct regularity over Z",
        )

    if const is not None and not homogeneous:
        return LinearVerdict("PR_CONSTANT", const, None, None, "N", False)
    # a single equation is never capped: one zero-sum subset search,
    # for its first block, decides it
    partition = columns_condition(A, cap if A.m > 1 else A.n)
    if partition is None:
        return LinearVerdict(
            "NOT_PR", None, None, None, "N", homogeneous,
            note="columns condition fails" if homogeneous
            else "neither a positive constant solution nor the columns condition",
        )
    if homogeneous:
        # over N the only constant left is "all": every row sums to zero
        status = "PR_CONSTANT" if const == "all" else "PR_COLUMNS"
        return LinearVerdict(status, const, partition, None, "N", True)
    const_z = constant("Z")
    if const_z is None:
        return LinearVerdict(
            "NOT_PR", None, None, None, "N", False,
            note="columns condition holds but no constant integer solution exists",
        )
    return LinearVerdict(
        "PR_COLUMNS", None, partition, const_z, "N", False,
        note="columns condition plus a constant integer solution",
    )


def rado_single(
    coeffs: Sequence[Union[int, Fraction]],
    b: Union[int, Fraction] = 0,
    domain: str = "N",
) -> LinearVerdict:
    """Single-equation decision: c_1 x_1 + .. + c_n x_n = b, all c_j nonzero.

    PR over N iff a constant solution exists in N, or some nonempty
    subset J of the coefficients sums to zero and a constant solution
    exists in Z; the reported partition is (J, rest) with J smallest,
    then lexicographically least.
    """
    row = [Fraction(c) for c in coeffs]
    if not row:
        raise ValueError("need at least one coefficient")
    if any(c == 0 for c in row):
        raise ValueError("zero coefficient present")
    system = LinearSystem(
        variables=tuple("x%d" % (i + 1) for i in range(len(row))),
        matrix=RatMatrix([row]),
        rhs=(Fraction(b),),
    )
    return decide_linear(system, domain=domain)
