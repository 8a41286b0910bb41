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

Certificates use 1-based column indices and are chosen
deterministically: fewest blocks first, then lexicographic by block
content.  Single equations instead report the zero-sum subset that is
smallest, then lexicographically least, which is the traditional
normal form there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple, Union

from .algebra import RatMatrix, UniPoly, constant_solutions, least_witness, matrix_rank
from .equations import LinearSystem

Partition = Tuple[Tuple[int, ...], ...]

DEFAULT_COLUMN_CAP = 12


def _bits(mask: int) -> List[int]:
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def columns_condition(
    matrix: RatMatrix, cap: int = DEFAULT_COLUMN_CAP
) -> Optional[Partition]:
    """First ordered partition witnessing the columns condition, else None.

    Search order: number of blocks ascending, then lexicographic on the
    (sorted) block tuples, so the returned certificate is canonical.
    The search is exponential in the number of columns and refuses to
    run past `cap` columns; raise the cap explicitly for wider systems.
    """
    n = matrix.n
    m = matrix.m
    if n > cap:
        raise ValueError(
            "columns condition search over %d columns exceeds the cap %d; "
            "pass a larger cap to proceed" % (n, cap)
        )
    cols = [matrix.column(j) for j in range(n)]
    full = (1 << n) - 1
    zero = tuple(Fraction(0) for _ in range(m))

    sums: List[Optional[Tuple[Fraction, ...]]] = [None] * (1 << n)
    sums[0] = zero
    for mask in range(1, 1 << n):
        low = mask & -mask
        j = low.bit_length() - 1
        prev = sums[mask ^ low]
        sums[mask] = tuple(a + b for a, b in zip(prev, cols[j]))

    rank_cache = {0: 0}

    def rank_of(mask: int) -> int:
        if mask not in rank_cache:
            rank_cache[mask] = matrix_rank([cols[j] for j in _bits(mask)])
        return rank_cache[mask]

    span_cache = {}

    def in_span(used: int, cand: int) -> bool:
        vec = sums[cand]
        if vec == zero:
            return True
        key = (used, cand)
        if key not in span_cache:
            if used == 0:
                span_cache[key] = False
            else:
                rows = [cols[j] for j in _bits(used)] + [list(vec)]
                span_cache[key] = matrix_rank(rows) == rank_of(used)
        return span_cache[key]

    def candidates(rem: int) -> List[int]:
        subs = []
        sub = rem
        while sub:
            subs.append(sub)
            sub = (sub - 1) & rem
        subs.sort(key=lambda s: tuple(_bits(s)))
        return subs

    for k in range(1, n + 1):
        dead = set()

        def dfs(used: int, blocks_left: int, acc: List[int]) -> Optional[List[int]]:
            if used == full:
                return list(acc) if blocks_left == 0 else None
            if blocks_left == 0:
                return None
            state = (used, blocks_left)
            if state in dead:
                return None
            rem = full ^ used
            if blocks_left == 1:
                cands = [rem]
            else:
                cands = [
                    c
                    for c in candidates(rem)
                    if bin(rem ^ c).count("1") >= blocks_left - 1
                ]
            for cand in cands:
                ok = sums[cand] == zero if used == 0 else in_span(used, cand)
                if ok:
                    acc.append(cand)
                    found = dfs(used | cand, blocks_left - 1, acc)
                    if found is not None:
                        return found
                    acc.pop()
            dead.add(state)
            return None

        found = dfs(0, k, [])
        if found is not None:
            return tuple(tuple(j + 1 for j in _bits(mask)) for mask in found)
    return None


def verify_columns_condition(matrix: RatMatrix, partition: Sequence[Sequence[int]]) -> bool:
    """Exact check that an ordered partition witnesses the columns condition.

    Blocks carry 1-based column indices; they must be nonempty,
    disjoint and cover every column.
    """
    n = matrix.n
    seen = set()
    for block in partition:
        if not block:
            return False
        for j in block:
            if not isinstance(j, int) or j < 1 or j > n or j in seen:
                return False
            seen.add(j)
    if len(seen) != n:
        return False
    cols = [matrix.column(j) for j in range(n)]
    earlier: List[Sequence[Fraction]] = []
    for t, block in enumerate(partition):
        vec = [Fraction(0)] * matrix.m
        for j in block:
            for i in range(matrix.m):
                vec[i] += cols[j - 1][i]
        if t == 0:
            if any(v != 0 for v in vec):
                return False
        else:
            if any(v != 0 for v in vec):
                if matrix_rank(earlier + [vec]) != matrix_rank(earlier):
                    return False
        for j in block:
            earlier.append(cols[j - 1])
    return True


@dataclass(frozen=True)
class LinearVerdict:
    """Partition-regularity verdict for a linear system.

    status "PR_CONSTANT" carries `witness`: the constant a with
    A (a,..,a) = b in the ground set, or "all" when every a works.
    status "PR_COLUMNS" carries `partition`, an ordered-partition
    certificate passing the checker; for nonhomogeneous systems the
    criterion additionally needs a constant integer solution, recorded
    in `integer_constant`.  status "NOT_PR" carries neither.
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

    if homogeneous:
        partition = _partition_certificate(A, cap)
        if partition is None:
            return LinearVerdict(
                "NOT_PR", None, None, None, "N", True,
                note="columns condition fails",
            )
        if const == "all":
            return LinearVerdict("PR_CONSTANT", "all", partition, None, "N", True)
        return LinearVerdict("PR_COLUMNS", None, partition, None, "N", True)

    if const is not None:
        return LinearVerdict("PR_CONSTANT", const, None, None, "N", False)
    partition = _partition_certificate(A, cap)
    if partition is not None:
        const_z = constant("Z")
        if const_z is not None:
            return LinearVerdict(
                "PR_COLUMNS", None, partition, const_z, "N", False,
                note="columns condition plus a constant integer solution",
            )
        return LinearVerdict(
            "NOT_PR", None, None, None, "N", False,
            note="columns condition holds but no constant integer solution exists",
        )
    return LinearVerdict(
        "NOT_PR", None, None, None, "N", False,
        note="neither a positive constant solution nor the columns condition",
    )


def _partition_certificate(A: RatMatrix, cap: int) -> Optional[Partition]:
    """Columns-condition certificate; single equations use the J normal form."""
    if A.m == 1:
        return _single_equation_partition(list(A.rows[0]))
    return columns_condition(A, cap)


def _single_equation_partition(coeffs: Sequence[Fraction]) -> Optional[Partition]:
    n = len(coeffs)
    best = None
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            if sum(coeffs[j] for j in combo) == 0:
                if any(coeffs[j] != 0 for j in combo) or size == n:
                    best = combo
                    break
        if best is not None:
            break
    if best is None:
        return None
    rest = tuple(j + 1 for j in range(n) if j not in best)
    first = tuple(j + 1 for j in best)
    return (first,) if not rest else (first, rest)


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
