"""Exact arithmetic substrate: rationals, sparse polynomials, matrices, factoring.

Everything in this module is exact.  Rationals are `fractions.Fraction`
(always in lowest terms with positive denominator), integers are Python
ints of arbitrary precision.  No floating point is used anywhere, so
results are reproducible bit for bit.

Multivariate polynomials are sparse dictionaries mapping exponent tuples
to nonzero rational coefficients; univariate polynomials are dense
coefficient tuples.  Matrix rank and rado.columns_condition share one
fraction-free (Bareiss) step on integer rows.  Its pivot rule: pivoting
out column j removes the topmost row with a nonzero entry there and
clears column j from the other rows.  matrix_rank pivots the columns out
left to right, so certificates built on it are reproducible.

All classes here are immutable after construction and safe to share
across threads.  `Record` is the one base of every immutable class in
the package: the value classes here (MultiPoly, UniPoly, RatMatrix) and
polyexp's ExpSum, the AST nodes, equation classes, certificates and
verdicts.  It alone refuses assignment and deletion and defines
equality, hashing, pickling and copying.  It reads the fields from the
class annotations and generates no code, so an entry point imports
neither `dataclasses` nor the `inspect`, `ast` and `dis` modules that
come with it.  Importing `prtoolkit.equations` and
`prtoolkit.polyexp` with no bytecode cache (the `setup_s` of the
benchmark's `polyexp` workload) takes 0.034 s instead of the 0.058 s it
took with frozen dataclasses: medians of 10 runs each on a shared
2-core host with Python 3.11.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Rat = Union[int, Fraction]

DEFAULT_FACTOR_BUDGET = 10 ** 6


# raised by ramsey and polyexp; defined here so that cli catches it without importing them
class BudgetExceeded(Exception):
    """Raised when enumeration or search would exceed its budget."""


class IncompleteFactorization(Exception):
    """Raised when trial division exhausts its budget with a cofactor left.

    The offending cofactor is stored in `.cofactor`.  Callers that cannot
    proceed without a complete factorization should surface an UNKNOWN
    verdict rather than guess.
    """

    def __init__(self, n: int, cofactor: int, budget: int):
        super().__init__(
            "factorization of %d incomplete: cofactor %d exceeds budget^2 = %d"
            % (n, cofactor, budget * budget)
        )
        self.n = n
        self.cofactor = cofactor
        self.budget = budget


def factor_integer(n: int, budget: int = DEFAULT_FACTOR_BUDGET) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """Factor a nonzero integer by trial division.

    Returns `(sign, factors)` where sign is +1 or -1 and factors is a
    sorted tuple of (prime, exponent) pairs with `n == sign * prod(p**e)`.
    Trial division runs through 2, 3 and then 6k+-1 candidates up to
    `budget`.  If a cofactor above budget**2 survives, the factorization
    is genuinely incomplete and IncompleteFactorization is raised; a
    surviving cofactor at most budget**2 has no divisor below its square
    root and is therefore prime.

    Examples
    --------
    >>> factor_integer(-143)
    (-1, ((11, 1), (13, 1)))
    >>> factor_integer(1)
    (1, ())
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: List[Tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    # 6k+-1 wheel; stop once p exceeds either the budget or isqrt(m).
    while p <= budget and p * p <= m:
        for q in (p, p + 2):
            if q > budget:
                break
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        p += 6
    if m > 1:
        if m <= budget * budget:
            factors.append((m, 1))  # no divisor <= sqrt(m), hence prime
        else:
            raise IncompleteFactorization(n, m, budget)
    return sign, tuple(sorted(factors))


def divisors_from_factors(factors: Sequence[Tuple[int, int]]) -> List[int]:
    """All positive divisors from a (prime, exponent) list, ascending."""
    divs = [1]
    for p, e in factors:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


_set = object.__setattr__


class Record:
    """Base of the immutable classes: values, AST nodes, equation classes, certificates, verdicts.

    A subclass declares its fields as class annotations, in order, with
    optional defaults; `__init_subclass__` reads them once.  Records
    take positional and keyword arguments, call a subclass's
    `__post_init__` after the fields are set, compare and hash by their
    field values (only with a record of the same class), print as
    `Name(field=value, ...)` and refuse assignment and deletion with
    AttributeError; pickle and copy restore the fields without calling
    `__init__`.  A class whose fields derive from one another may set its
    own `_key`, the function of a record that `==` and `hash` compare.
    A value class that normalizes its arguments (MultiPoly, UniPoly,
    RatMatrix, ExpSum) has its own `__init__`, which sets the fields
    with `object.__setattr__`, and its own repr.  No code is
    generated, so defining a record costs no `exec` at import.  A
    keyword call costs about twice a positional one, since the keywords
    reach `__init__` as a dict to bind by name, so the hot paths of
    `polyexp` pass their records' fields by position.
    """

    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, object] = {}
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__dict__.get("__annotations__", ()) if f not in cls._fields]
        fields = cls._fields + tuple(own)
        cls._fields = cls.__match_args__ = fields
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        if "_key" not in cls.__dict__:
            # the tuple of field values, a plain 1-tuple for a single field
            get = attrgetter(*fields)
            cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        if self.__post_init__ is not None:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from positional, keyword and default arguments."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given" % (name, len(fields), len(args)))
        for key in kwargs:
            if key not in fields:
                raise TypeError("%s() got an unexpected keyword argument %r" % (name, key))
            if key in fields[:len(args)]:
                raise TypeError("%s() got multiple values for argument %r" % (name, key))
        values = self._defaults | kwargs
        values.update(zip(fields, args))
        if len(values) < len(fields):
            missing = ", ".join(repr(f) for f in fields if f not in values)
            raise TypeError("%s() missing arguments: %s" % (name, missing))
        return tuple(map(values.__getitem__, fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of an immutable %s" % (name, type(self).__qualname__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of an immutable %s" % (name, type(self).__qualname__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields),
        )


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % type(x).__name__)


class MultiPoly(Record):
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (one nonnegative int per variable in
    `vars`) to nonzero Fraction coefficients.  Zero coefficients are
    dropped on construction, so the zero polynomial has no terms and
    degree() == -1.  `terms` is a dict, so the hash reads the terms in
    their canonical order.

    >>> p = MultiPoly(("x", "y"), {(1, 1): 1, (0, 0): 2})   # x*y + 2
    >>> p.degree()
    2
    >>> p.eval((3, 4))
    Fraction(14, 1)
    """

    vars: Tuple[str, ...]
    terms: Dict[Tuple[int, ...], Fraction]

    def __init__(self, variables: Sequence[str], terms: Dict[Tuple[int, ...], Rat]):
        vs = tuple(variables)
        clean: Dict[Tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError(
                    "exponent tuple %r does not match variables %r" % (exps, vs)
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative integers: %r" % (exps,))
            c = _as_fraction(coeff)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
                if clean[exps] == 0:
                    del clean[exps]
        _set(self, "vars", vs)
        _set(self, "terms", clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], c: Rat) -> "MultiPoly":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: c})

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, names: Sequence[str]) -> int:
        """Max combined degree over the given variables; -1 if zero."""
        if not self.terms:
            return -1
        idx = [self.vars.index(v) for v in names]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def sorted_terms(self) -> List[Tuple[Tuple[int, ...], Fraction]]:
        """Terms in canonical graded-lexicographic order, highest first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    def eval(self, point: Sequence[Rat]) -> Fraction:
        if len(point) != len(self.vars):
            raise ValueError("point arity %d != %d" % (len(point), len(self.vars)))
        pt = [_as_fraction(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(pt, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def diagonal(self) -> "UniPoly":
        """Substitute every variable by a single variable w.

        The term c * x1^e1 * ... * xk^ek becomes c * w^(e1+...+ek).
        A degree with one term keeps its coefficient; the coefficients of
        a degree with more are summed as ints, and only a genuine fraction
        makes the sum a Fraction.
        """
        coeffs: Dict[int, Rat] = {}
        for exps, c in self.terms.items():
            d = sum(exps)
            if d in coeffs:
                a = coeffs[d]
                c = (a.numerator if a.denominator == 1 else a) + (c.numerator if c.denominator == 1 else c)
            coeffs[d] = c
        if not coeffs:
            return UniPoly(())
        out = [Fraction(0)] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            out[d] = c
        return UniPoly(out)

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a superset/reordering of the variable tuple."""
        vs = tuple(variables)
        pos = []
        for v in self.vars:
            if v not in vs:
                raise ValueError("variable %r missing from %r" % (v, vs))
            pos.append(vs.index(v))
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            out = [0] * len(vs)
            for p, e in zip(pos, exps):
                out[p] = e
            terms[tuple(out)] = coeff
        return MultiPoly(vs, terms)

    # -- arithmetic ---------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("variable mismatch: %r vs %r" % (self.vars, other.vars))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(self.vars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_same_vars(other)
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, terms)

    def scale(self, c: Rat) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly(self.vars, {e: c * v for e, v in self.terms.items()})

    def __hash__(self):
        return hash((self.vars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "MultiPoly(%r, 0)" % (self.vars,)
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                ("%s^%d" % (v, e) if e > 1 else v)
                for v, e in zip(self.vars, exps)
                if e
            )
            if mono:
                bits.append("%s*%s" % (coeff, mono) if coeff != 1 else mono)
            else:
                bits.append(str(coeff))
        return "MultiPoly(%r, %s)" % (self.vars, " + ".join(bits))


class UniPoly(Record):
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored low degree first; the leading coefficient is
    nonzero unless the polynomial is zero (empty tuple, degree -1).
    """

    coeffs: Tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Rat]):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        _set(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Rat) -> Fraction:
        x = _as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c: Rat) -> "UniPoly":
        c = _as_fraction(c)
        return UniPoly([c * v for v in self.coeffs])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        bits = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append("%s*w" % c if c != 1 else "w")
            else:
                bits.append("%s*w^%d" % (c, e) if c != 1 else "w^%d" % e)
        return "UniPoly(%s)" % " + ".join(bits)


class RatMatrix(Record):
    """Immutable rational matrix with exact fraction-free rank."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    m: int
    n: int

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        rws = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if rws:
            width = len(rws[0])
            if any(len(r) != width for r in rws):
                raise ValueError("ragged rows")
        else:
            width = 0
        _set(self, "rows", rws)
        _set(self, "m", len(rws))
        _set(self, "n", width)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def rank(self) -> int:
        """Rank by the fraction-free elimination of matrix_rank."""
        return matrix_rank(self.rows)

    def __repr__(self) -> str:
        return "RatMatrix(%r)" % (
            [[str(x) for x in row] for row in self.rows],
        )


# -- functions over the classes above ------------------------------------


def _clear_denominators(values: Iterable[Rat]) -> List[int]:
    """`values` times the lcm of their denominators, as ints.

    A row so scaled keeps every linear relation between columns, and a
    polynomial so scaled keeps its roots.
    """
    vals = list(values)
    den = lcm(*(x.denominator for x in vals))
    return [x.numerator * (den // x.denominator) for x in vals]


def _pivot_out(rows: List[List[int]], j: int, prev: int) -> int:
    """One Bareiss step on the int `rows`, in place: the pivot, or 0 if none.

    The topmost row with an entry p != 0 in column j is removed, and every
    other row r becomes (p r - r[j] pivot) / prev, zero in column j.  With
    prev the previous pivot (1 at first) the division is exact (Bareiss).
    """
    i = next((i for i, row in enumerate(rows) if row[j]), None)
    if i is None:
        return 0
    pivot = rows.pop(i)
    p = pivot[j]
    for row in rows:
        f = row[j]
        row[:] = [(p * x - f * y) // prev for x, y in zip(row, pivot)]
    return p


def matrix_rank(mat) -> int:
    """Rank of a RatMatrix or of a sequence of int or Fraction rows.

    Each row is scaled to integers on its own, and the columns are pivoted
    out left to right; each pivot removes one row.
    """
    rows = [_clear_denominators(r) for r in (mat.rows if isinstance(mat, RatMatrix) else mat)]
    m, width = len(rows), len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    prev = 1
    for j in range(width):
        prev = _pivot_out(rows, j, prev) or prev
    return m - len(rows)


def integer_roots(p: UniPoly, budget: int = DEFAULT_FACTOR_BUDGET) -> List[int]:
    """All integer roots of a nonzero rational polynomial, ascending.

    Denominators are cleared, powers of w stripped (recording 0 as a root
    when present), candidate roots are read off the divisors of the
    constant term, and every candidate is verified by exact evaluation.
    A stripped body c0 + cn*w^n needs no factoring: its only candidates
    are the exact integer n-th roots of -c0/cn.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every integer as a root")
    ints = _clear_denominators(p.coeffs)
    k = 0
    while ints[k] == 0:
        k += 1
    roots = set()
    if k > 0:
        roots.add(0)
    body = ints[k:]
    if len(body) > 1:
        if not any(body[1:-1]):
            # c0 + cn*w^n = 0 forces |w|^n = |c0/cn|: an exact n-th root or none
            c0, cn = abs(body[0]), abs(body[-1])
            w = _iroot(c0 // cn, len(body) - 1)
            candidates = [w, -w] if cn * w ** (len(body) - 1) == c0 else []
        else:
            _, factors = factor_integer(body[0], budget)
            candidates = [c for d in divisors_from_factors(factors) for c in (d, -d)]
        for cand in candidates:
            total = 0
            for c in reversed(body):
                total = total * cand + c
            if total == 0:
                roots.add(cand)
    return sorted(roots)


def least_witness(candidates: Iterable[int]) -> Optional[int]:
    """The candidate of least absolute value, the nonnegative one on a tie."""
    return min(candidates, key=lambda w: (abs(w), w < 0), default=None)


def constant_solutions(
    diagonals: Iterable[UniPoly], domain: str = "N"
) -> Union[str, Tuple[int, ...]]:
    """Common integer roots w of the diagonals P_i(w, .., w) in the ground set.

    "all" when every diagonal vanishes identically, else the roots in
    ascending order: w >= 1 for domain "N", any integer for "Z", read
    off the nonzero diagonal of least degree and checked on the others.
    A root proves PR for every system: a constant solution is
    monochromatic under every coloring.  No root proves NOT_PR only for
    linear systems (Rado) and in at most two variables (PAPER.md):
    x^2 + y^2 = z^2 has none, yet every 2-coloring of [1..7825] has a
    monochromatic triple (Heule, Kullmann and Marek, arXiv:1605.00723).
    """
    if domain not in ("N", "Z"):
        raise ValueError("domain must be 'N' or 'Z'")
    found: Optional[List[int]] = None
    for d in sorted(diagonals, key=lambda d: d.degree):
        if d.is_zero():
            continue
        if found is None:
            found = [w for w in integer_roots(d) if domain == "Z" or w >= 1]
        else:
            found = [w for w in found if d.eval(w) == 0]
        if not found:
            return ()
    return "all" if found is None else tuple(found)


def _iroot(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, by integer Newton steps from above."""
    if n == 2:
        return isqrt(x)
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s

