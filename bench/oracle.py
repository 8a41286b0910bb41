"""Independent checks for the benchmark's outputs.

Nothing here imports prtoolkit.  Every check is a short brute force or a
closed form that reaches the answer by another route than the program:

- single linear equations: Rado's subset-sum rule, plus the
  constant-solution rule for non-homogeneous equations and for ground
  set Z;
- linear systems: a search over ordered column partitions, and a
  re-check of any partition the program reports;
- two-variable polynomials: the diagonal roots the generator planted,
  and `math.isqrt` for `x^2 - c`;
- three-term equations over a group: the coefficient sum, and the rank
  of the generators' prime-exponent vectors;
- polyexponential equations: the diagonal sum evaluated at the witness,
  a scan of [-64, 64], the character hypothesis checked pair by pair,
  and a recomputation of any modular certificate;
- colorings: a brute-force enumeration of solutions; FORCED verdicts
  against known values (S(3) = 13, W(3;3) = 27, W(4;2) = 35, x + y = 4z
  2-forced from N = 10, Pythagorean triples 2-colorable below 7825,
  Rado's p - 1 colors always avoiding);
- S-unit counts: recounted by solving for y and looking it up in the
  exponent box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt, prod
from typing import Dict, List, Optional, Sequence, Tuple

SCAN = 64


def least_by_abs(values):
    """Least |v|, the nonnegative one first: the program's witness order."""
    return min(values, key=lambda v: (abs(v), v < 0))


# ---------------------------------------------------------------------
# exact linear algebra and factoring of small integers


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def valuations(n: int) -> Dict[int, int]:
    """Prime exponents of |n| by trial division; meant for small n."""
    n = abs(n)
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


# ---------------------------------------------------------------------
# linear equations and systems


def subset_sums(coeffs: Sequence[int]) -> List[int]:
    n = len(coeffs)
    return [sum(coeffs[i] for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def linear_expectation(coeffs: Sequence[int], b: int, domain: str) -> Tuple[str, object]:
    """(status, witness) for c . x = b by Rado's rule; witness is 'all', an int or None.

    Over Z a constant integer solution decides.  Over N the equation is
    PR iff a constant solution lies in N, or some nonempty subset of the
    coefficients sums to 0 and a constant solution lies in Z.
    """
    s = sum(coeffs)
    if domain == "Z":
        if s == 0:
            return ("PR_CONSTANT", "all") if b == 0 else ("NOT_PR", None)
        return ("PR_CONSTANT", b // s) if b % s == 0 else ("NOT_PR", None)
    zero_subset = 0 in subset_sums(coeffs)
    if b == 0:
        if s == 0:
            return "PR_CONSTANT", "all"
        return ("PR_COLUMNS", None) if zero_subset else ("NOT_PR", None)
    if s != 0 and b % s == 0:
        if b // s >= 1:
            return "PR_CONSTANT", b // s
        if zero_subset:
            return "PR_COLUMNS", None
    return "NOT_PR", None


def diagonal_witnesses(coeffs: Sequence[int], b: int, domain: str):
    """Constant solutions x = .. = w of c . x = b: 'all' or a sorted tuple."""
    s = sum(coeffs)
    if s == 0:
        return "all" if b == 0 else ()
    if b % s:
        return ()
    w = b // s
    return (w,) if domain == "Z" or w >= 1 else ()


def _column_sum(matrix, cols) -> List[int]:
    return [sum(row[j] for j in cols) for row in matrix]


def _in_span(vec, columns) -> bool:
    if not any(vec):
        return True
    return bool(columns) and rank(columns + [vec]) == rank(columns)


def columns_condition_holds(matrix: Sequence[Sequence[int]]) -> bool:
    """Whether some ordered column partition meets the columns condition.

    Memoized search over the set of columns already placed: block 0 must
    sum to zero, every later block's sum must lie in the span of the
    columns placed before it.
    """
    n = len(matrix[0])
    full = (1 << n) - 1
    dead = set()

    def extend(used: int) -> bool:
        if used == full:
            return True
        if used in dead:
            return False
        placed = [[row[j] for row in matrix] for j in range(n) if used >> j & 1]
        rest = full ^ used
        sub = rest
        while sub:
            vec = _column_sum(matrix, [j for j in range(n) if sub >> j & 1])
            ok = not any(vec) if used == 0 else _in_span(vec, placed)
            if ok and extend(used | sub):
                return True
            sub = (sub - 1) & rest
        dead.add(used)
        return False

    return extend(0)


def partition_valid(matrix: Sequence[Sequence[int]], partition) -> bool:
    """Re-check a reported ordered partition (1-based column indices)."""
    n = len(matrix[0])
    flat = [j for block in partition for j in block]
    if any(not block for block in partition) or sorted(flat) != list(range(1, n + 1)):
        return False
    placed: List[List[int]] = []
    for t, block in enumerate(partition):
        vec = _column_sum(matrix, [j - 1 for j in block])
        if t == 0 and any(vec):
            return False
        if t > 0 and not _in_span(vec, placed):
            return False
        placed.extend([row[j - 1] for row in matrix] for j in block)
    return True


# ---------------------------------------------------------------------
# two-variable polynomials and groups


def planted_witnesses(roots: Sequence[int], domain: str) -> Tuple[int, ...]:
    return tuple(sorted({r for r in roots if domain == "Z" or r >= 1}))


def square_roots(c: int, domain: str) -> Tuple[int, ...]:
    """Integer roots of w^2 - c."""
    r = isqrt(c) if c >= 0 else -1
    if r < 0 or r * r != c:
        return ()
    return planted_witnesses({r, -r}, domain)


def group_rank(generators: Sequence[Fraction]) -> int:
    maps = []
    for g in generators:
        g = Fraction(g)
        v = dict(valuations(g.numerator))
        for p, e in valuations(g.denominator).items():
            v[p] = v.get(p, 0) - e
        maps.append(v)
    primes = sorted({p for v in maps for p, e in v.items() if e})
    if not primes:
        return 0
    return rank([[v.get(p, 0) for p in primes] for v in maps])


# ---------------------------------------------------------------------
# polyexponential equations


def merge_terms(terms):
    """Merge (characters, {exponents: coeff}) terms with equal characters."""
    merged: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {}
    for chars, poly in terms:
        bucket = merged.setdefault(tuple(chars), {})
        for exps, c in poly.items():
            bucket[exps] = bucket.get(exps, 0) + c
    out = []
    for chars, poly in merged.items():
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            out.append((chars, poly))
    return out


def diagonal(terms) -> Dict[int, List[int]]:
    """The sum along x_1 = .. = s: base -> coefficients of A(s), lowest first."""
    out: Dict[int, List[int]] = {}
    for chars, poly in terms:
        coeffs = out.setdefault(prod(chars), [])
        for exps, c in poly.items():
            d = sum(exps)
            coeffs.extend([0] * (d + 1 - len(coeffs)))
            coeffs[d] += c
    for cs in out.values():
        while cs and cs[-1] == 0:
            cs.pop()
    return {b: cs for b, cs in out.items() if cs}


def diag_eval(diag: Dict[int, List[int]], s: int) -> Fraction:
    total = Fraction(0)
    for base, coeffs in diag.items():
        a = sum(c * s ** k for k, c in enumerate(coeffs))
        total += a * (Fraction(base) ** s)
    return total


def diag_zeros(diag, lo: int = -SCAN, hi: int = SCAN) -> List[int]:
    return [s for s in range(lo, hi + 1) if diag_eval(diag, s) == 0]


def hypothesis_holds(characters: Sequence[Tuple[int, ...]]) -> bool:
    """The character-group hypothesis, checked one pair of terms at a time.

    Any partition with a block of size >= 2 contains a pair, and its
    constraint rows include that pair's rows, so the group is trivial
    for every partition iff it is trivial for every pair: the rows
    v_p(a_ik) - v_p(a_jk), one per prime, have full rank n.
    """
    for u, v in combinations(characters, 2):
        n = len(u)
        vu = [valuations(x) for x in u]
        vv = [valuations(x) for x in v]
        primes = sorted({p for d in vu + vv for p in d})
        rows = [[vu[k].get(p, 0) - vv[k].get(p, 0) for k in range(n)] for p in primes]
        if not rows or rank(rows) < n:
            return False
    return True


def modular_certificate_valid(diag, modulus: int, period: int, residues) -> bool:
    """g(s) mod M is nonzero on one period, and the period really is one."""
    if modulus < 2 or period < 1 or len(residues) != period:
        return False
    if any(gcd(b, modulus) != 1 or pow(b, period, modulus) != 1 for b in diag):
        return False
    if any(len(cs) > 1 for cs in diag.values()) and period % modulus:
        return False
    for s in range(period):
        r = sum(sum(c * s ** k for k, c in enumerate(cs)) * pow(b, s, modulus)
                for b, cs in diag.items()) % modulus
        if r == 0 or r != residues[s]:
            return False
    return True


def polyexp_verdict_problem(diag, hypothesis: bool, status: str, witness, zeros) -> Optional[Tuple[str, str]]:
    """None when a verdict agrees with the checks, else (kind, reason).

    kind "error" marks an UNKNOWN where the checks decide; "wrong" marks
    a verdict or witness that contradicts them.
    """
    if not diag or zeros:
        want = 0 if not diag else least_by_abs(zeros)
        if status == "UNKNOWN":
            return "error", "UNKNOWN, but %s is a constant solution" % want
        if status != "PR_CONSTANT" or witness != want:
            return "wrong", "%s witness %s, least constant solution is %s" % (status, witness, want)
        return None
    if status == "PR_CONSTANT":
        if witness is None or abs(witness) <= SCAN or diag_eval(diag, witness) != 0:
            return "wrong", "witness %s is not a zero of the diagonal sum" % witness
        return None
    if status == "NOT_PR" and not hypothesis:
        return "wrong", "NOT_PR although the character hypothesis fails"
    if status == "UNKNOWN" and hypothesis:
        return "error", "UNKNOWN although the character hypothesis holds"
    if status not in ("NOT_PR", "UNKNOWN"):
        return "wrong", "unexpected status %s" % status
    return None


# ---------------------------------------------------------------------
# colorings


def linear_solutions(coeffs: Sequence[int], N: int) -> List[Tuple[int, ...]]:
    """All x in [1..N]^k with c . x = 0: loop the head, solve for the last."""
    *head, last = coeffs
    sols = []
    for prefix in product(range(1, N + 1), repeat=len(head)):
        rest = -sum(a * x for a, x in zip(head, prefix))
        if rest % last == 0 and 1 <= rest // last <= N:
            sols.append(prefix + (rest // last,))
    return sols


def progressions(length: int, N: int) -> List[Tuple[int, ...]]:
    """Non-constant arithmetic progressions in [1..N], both directions."""
    out = []
    for a in range(1, N + 1):
        for d in range(-N, N + 1):
            if d and 1 <= a + (length - 1) * d <= N:
                out.append(tuple(a + i * d for i in range(length)))
    return out


def pythagorean_triples(N: int) -> List[Tuple[int, int, int]]:
    out = []
    for x in range(1, N + 1):
        for y in range(1, N + 1):
            z = isqrt(x * x + y * y)
            if z <= N and z * z == x * x + y * y:
                out.append((x, y, z))
    return out


def coloring_problem(coloring, N: int, colors: int, solutions) -> Optional[str]:
    """None when `coloring` of [1..N] uses <= colors colors and no solution is monochromatic."""
    if coloring is None or len(coloring) != N:
        return "coloring missing or of the wrong length"
    if any(not isinstance(c, int) or not 0 <= c < colors for c in coloring):
        return "coloring uses colors outside [0, %d)" % colors
    for sol in solutions:
        if len({coloring[v - 1] for v in sol}) == 1:
            return "solution %r is monochromatic" % (sol,)
    return None


def rado_prime(coeffs: Sequence[int]) -> int:
    """Least prime dividing no nonempty subset sum (Rado's coloring base)."""
    sums = subset_sums(coeffs)
    q = 2
    while not (is_prime(q) and all(s % q for s in sums)):
        q += 1
    return q


def rado_coloring(p: int, N: int) -> Tuple[int, ...]:
    """Color x by its last nonzero base-p digit: p - 1 colors."""
    def digit(x):
        while x % p == 0:
            x //= p
        return x % p - 1
    return tuple(digit(x) for x in range(1, N + 1))


# Least N at which every coloring with the given number of colors has a
# monochromatic solution (None: never, for the instances benchmarked).
FORCED_FROM = {
    ("schur", 3): 14,  # S(3) = 13
    ("ap3", 3): 27,  # W(3;3) = 27
    ("ap4", 2): 35,  # W(4;2) = 35
    ("x+y=4z", 2): 10,
    ("pythagorean", 2): 7825,  # Heule, Kullmann and Marek, arXiv:1605.00723
    ("y=2x", 2): None,  # the dyadic coloring avoids it at every N
}


def expected_search_status(family: str, colors: int, N: int) -> str:
    first = FORCED_FROM[(family, colors)]
    return "FORCED" if first is not None and N >= first else "AVOIDING"


# ---------------------------------------------------------------------
# S-unit counts


def box_elements(generators: Sequence[Fraction], exp_bound: int) -> set:
    out = set()
    for exps in product(range(-exp_bound, exp_bound + 1), repeat=len(generators)):
        val = Fraction(1)
        for g, e in zip(generators, exps):
            val *= Fraction(g) ** e
        out.add(val)
    return out


def unit_solutions(a: int, b: int, generators, exp_bound: int) -> List[Tuple[Fraction, Fraction]]:
    """Pairs (x, y) in the box with a x + b y = 1: y is solved for, then looked up."""
    box = box_elements(generators, exp_bound)
    return sorted((x, (1 - a * x) / b) for x in box if (1 - a * x) / b in box)
