"""Equation text format, AST, classification, and JSON serialization.

The input language covers systems of equations separated by ';', where
each side of an '=' is built from rational literals, variables, variable
powers `x^k` (k a nonnegative integer literal), exponentials `b^x`
(b a nonzero integer literal, parenthesized when negative), '+', '-',
and explicit '*'.  Implicit multiplication is rejected.

Grammar:

    system   := equation (";" equation)*
    equation := expr "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | var | var "^" nat | int "^" var
              | "(" expr ")" | "-" factor

where `rational` is `NUMBER` or `NUMBER "/" NUMBER`, and an integer base
may be written `(-2)^x`.  Parse errors carry line, column and the set of
token kinds that would have been accepted.  At most MAX_NESTING levels
of '(' and unary '-' may nest; deeper input is a ParseError.

`classify` normalizes every equation to "left side minus right side",
one map from (exponents, bases) to coefficient with like terms combined
at every '+', '-' and '*', and reports the most specific class:
LinearSystem, TwoVarPolySystem, PolyExpEquation, or GeneralPolySystem.
The '*'s of one equation may form at most MAX_EXPANSION term products
in all; more is a ClassifyError.  Chains of '+', '-' and '*' are
parsed, printed and classified in loops, so their length is not
bounded by the interpreter stack.  Exact integers are serialized as decimal strings in JSON so no
value is ever truncated to 64 bits.
"""

from __future__ import annotations

import decimal
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import MultiPoly, RatMatrix
from .polyexp import PolyExpEquation, PolyExpTerm

MAX_VARIABLES = 26
MAX_POLY_DEGREE = 10_000
# nested '(' and unary '-' levels; each '(' costs the recursive parser
# three frames, far below Python's default recursion limit of 1000
MAX_NESTING = 100
# term products the '*'s of one equation may form in all while classify
# multiplies out; like terms combine at every product, so (x + y)^40
# needs 1,638
MAX_EXPANSION = 10_000


class ParseError(Exception):
    """Syntax error with position and expected-token information."""

    def __init__(self, message: str, line: int, col: int, expected=()):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        loc = "line %d, column %d" % (line, col)
        if self.expected:
            message = "%s (expected one of: %s)" % (
                message,
                ", ".join(sorted(self.expected)),
            )
        super().__init__("%s at %s" % (message, loc))


class ClassifyError(Exception):
    pass


class SchemaError(Exception):
    pass


# ---------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, or a literal operator character; END at EOF
    text: str
    line: int
    col: int


_OPS = set("+-*^/()=;")


def _tokenize(src: str) -> List[_Token]:
    toks: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            toks.append(_Token("NUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            toks.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_Token("END", "", line, col))
    return toks


# ---------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class VarPow:
    name: str
    exp: int


@dataclass(frozen=True)
class ExpPow:
    base: int
    var: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, VarPow, ExpPow, Neg, Add, Sub, Mul]


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class EquationAST:
    equations: Tuple[Equation, ...]
    variables: Tuple[str, ...]  # first-appearance order across the system


class _Parser:
    def __init__(self, toks: List[_Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.seen_vars: List[str] = []

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                "expected %s, got %r" % (what, t.text or "end of input"),
                t.line,
                t.col,
                expected={what},
            )
        return self.advance()

    def note_var(self, name: str) -> None:
        if name not in self.seen_vars:
            if len(self.seen_vars) >= MAX_VARIABLES:
                t = self.peek()
                raise ParseError(
                    "too many variables (cap %d)" % MAX_VARIABLES, t.line, t.col
                )
            self.seen_vars.append(name)

    # system := equation (";" equation)*
    def parse_system(self) -> EquationAST:
        eqs = [self.parse_equation()]
        while self.peek().kind == ";":
            self.advance()
            eqs.append(self.parse_equation())
        t = self.peek()
        if t.kind != "END":
            raise ParseError(
                "trailing input %r" % t.text, t.line, t.col, expected={"';'", "end"}
            )
        return EquationAST(tuple(eqs), tuple(self.seen_vars))

    def parse_equation(self) -> Equation:
        lhs = self.parse_expr()
        self.expect("=", "'='")
        rhs = self.parse_expr()
        return Equation(lhs, rhs)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "*":
                self.advance()
                node = Mul(node, self.parse_factor())
            elif t.kind in ("NUM", "IDENT", "("):
                # "2x" or "x y": adjacency without an operator
                raise ParseError(
                    "adjacent factors require an explicit '*'",
                    t.line,
                    t.col,
                    expected={"'*'", "'+'", "'-'", "'='"},
                )
            else:
                return node

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t.kind in ("-", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    "more than %d nested '(' or unary '-'" % MAX_NESTING, t.line, t.col
                )
            self.depth += 1
            node = self._parse_nested()
            self.depth -= 1
            return node
        if t.kind == "NUM":
            self.advance()
            num = _literal(t)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                dtok = self.expect("NUM", "integer denominator")
                den = _literal(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok.line, dtok.col)
            if self.peek().kind == "^":
                caret = self.advance()
                if den != 1:
                    raise ParseError(
                        "exponential base must be an integer", caret.line, caret.col
                    )
                return self._finish_exponential(num, caret)
            return Num(Fraction(num, den))
        if t.kind == "IDENT":
            self.advance()
            self.note_var(t.text)
            if self.peek().kind == "^":
                self.advance()
                etok = self.peek()
                if etok.kind == "-":
                    raise ParseError(
                        "polynomial exponents must be nonnegative integer literals",
                        etok.line,
                        etok.col,
                    )
                etok = self.expect("NUM", "nonnegative integer exponent")
                exp = _literal(etok)
                if exp > MAX_POLY_DEGREE:
                    raise ParseError(
                        "exponent %d exceeds degree cap %d" % (exp, MAX_POLY_DEGREE),
                        etok.line,
                        etok.col,
                    )
                return VarPow(t.text, exp)
            return Var(t.text)
        raise ParseError(
            "expected a factor, got %r" % (t.text or "end of input"),
            t.line,
            t.col,
            expected={"number", "variable", "'('", "'-'"},
        )

    def _parse_nested(self) -> Expr:
        """A unary '-' or a parenthesized factor; the caller counts depth."""
        if self.advance().kind == "-":
            return Neg(self.parse_factor())
        inner = self.parse_expr()
        self.expect(")", "')'")
        if self.peek().kind == "^":
            # (-2)^x style exponential: the parenthesized part must
            # reduce to a nonzero integer literal.
            caret = self.advance()
            base = _const_int(inner)
            if base is None:
                raise ParseError(
                    "only integer literals may be raised to a variable",
                    caret.line,
                    caret.col,
                )
            return self._finish_exponential(base, caret)
        return inner

    def _finish_exponential(self, base: int, caret: _Token) -> Expr:
        if base == 0:
            raise ParseError("exponential base must be nonzero", caret.line, caret.col)
        vtok = self.expect("IDENT", "variable name after '^'")
        self.note_var(vtok.text)
        return ExpPow(base, vtok.text)


def _literal(tok: _Token) -> int:
    """The integer a NUM token spells; a ParseError at the token where int()
    refuses it (past sys.set_int_max_str_digits, or a non-decimal digit)."""
    try:
        return int(tok.text)
    except ValueError as e:
        raise ParseError("bad integer literal: %s" % e, tok.line, tok.col) from None


def _const_int(e: Expr) -> Optional[int]:
    """Integer value of a literal-only expression, else None."""
    if isinstance(e, Num):
        return int(e.value) if e.value.denominator == 1 else None
    if isinstance(e, Neg):
        v = _const_int(e.arg)
        return -v if v is not None else None
    return None


def parse_equation_text(src: str) -> EquationAST:
    """Parse a system of equations; raises ParseError with position info."""
    return _Parser(_tokenize(src)).parse_system()


# ---------------------------------------------------------------------
# printing (parse . print == identity on parser-produced ASTs)


_ATOMIC = (Num, Var, VarPow, ExpPow)


def format_expr(e: Expr) -> str:
    """Text of `e`; chains of '+'/'-' or of '*' are walked down their left
    spine in a loop, so only parenthesized operands recurse."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, VarPow):
        return "%s^%d" % (e.name, e.exp)
    if isinstance(e, ExpPow):
        return "%d^%s" % (e.base, e.var) if e.base > 0 else "(%d)^%s" % (e.base, e.var)
    if isinstance(e, Neg):
        inner = format_expr(e.arg)
        if isinstance(e.arg, _ATOMIC) or isinstance(e.arg, Neg):
            return "-" + inner
        return "-(%s)" % inner
    if not isinstance(e, (Add, Sub, Mul)):
        raise TypeError("not an expression node: %r" % (e,))
    # a '*' operand is parenthesized when it is a sum, and on the right
    # also when it is a product; a '+'/'-' operand only on the right
    if isinstance(e, Mul):
        chain, wrap_right = (Mul,), (Add, Sub, Mul)
    else:
        chain, wrap_right = (Add, Sub), (Add, Sub)
    spine = []
    while isinstance(e, chain):
        spine.append(e)
        e = e.left
    left = format_expr(e)
    parts = ["(%s)" % left if isinstance(e, (Add, Sub)) else left]
    for node in reversed(spine):
        right = format_expr(node.right)
        if isinstance(node.right, wrap_right):
            right = "(%s)" % right
        op = "*" if isinstance(node, Mul) else " + " if isinstance(node, Add) else " - "
        parts += (op, right)
    return "".join(parts)


def format_system(ast: EquationAST) -> str:
    return "; ".join(
        "%s = %s" % (format_expr(eq.lhs), format_expr(eq.rhs)) for eq in ast.equations
    )


# ---------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class LinearSystem:
    """A x = b over the listed variables, exact rational entries."""

    variables: Tuple[str, ...]
    matrix: RatMatrix
    rhs: Tuple[Fraction, ...]


@dataclass(frozen=True)
class TwoVarPolySystem:
    """Polynomial system in at most two variables, each P of degree >= 1.

    Polynomials are stored normalized to `P = 0` form; equations that
    cancel to `0 = 0` are dropped here so every stored P is nonzero.
    """

    variables: Tuple[str, ...]
    polys: Tuple[MultiPoly, ...]


@dataclass(frozen=True)
class GeneralPolySystem:
    """Polynomial system outside the decidable two-variable fragment."""

    variables: Tuple[str, ...]
    polys: Tuple[MultiPoly, ...]


EquationClass = Union[LinearSystem, TwoVarPolySystem, PolyExpEquation, GeneralPolySystem]

# (exponents, bases), both aligned with the system's variables; base 0
# marks a variable with no exponential factor, since real bases are nonzero
_Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _term_map(e: Expr, variables: Tuple[str, ...]) -> Dict[_Key, Fraction]:
    """`e` multiplied out, with like terms combined at every '+', '-' and '*'.

    Canceled terms stay in the map with coefficient 0, so every key keeps
    its first-appearance position in the fully expanded sum.  The walk is
    post-order on an explicit stack: long '+' and '*' chains need no
    recursion.  Once the '*'s together need more than MAX_EXPANSION term
    products, ClassifyError is raised before the product that crosses it.
    """
    index = {v: i for i, v in enumerate(variables)}
    none = (0,) * len(variables)
    spent = 0
    todo: List[Tuple[Expr, bool]] = [(e, False)]
    done: List[Dict[_Key, Fraction]] = []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Num):
            done.append({(none, none): node.value})
        elif isinstance(node, (Var, VarPow)):
            exps = list(none)
            exps[index[node.name]] = node.exp if isinstance(node, VarPow) else 1
            done.append({(tuple(exps), none): Fraction(1)})
        elif isinstance(node, ExpPow):
            bases = list(none)
            bases[index[node.var]] = node.base
            done.append({(none, tuple(bases)): Fraction(1)})
        elif not ready:
            todo.append((node, True))
            if isinstance(node, Neg):
                todo.append((node.arg, False))
            else:
                todo += [(node.right, False), (node.left, False)]
        elif isinstance(node, Neg):
            done[-1] = {k: -c for k, c in done[-1].items()}
        elif isinstance(node, Mul):
            right, left = done.pop(), done.pop()
            spent += len(left) * len(right)
            if spent > MAX_EXPANSION:
                raise ClassifyError(
                    "expanding the products needs at least %d term products (cap %d)"
                    % (spent, MAX_EXPANSION)
                )
            prod: Dict[_Key, Fraction] = {}
            for (e1, b1), c1 in left.items():
                for (e2, b2), c2 in right.items():
                    key = (
                        tuple(i + j for i, j in zip(e1, e2)),
                        tuple(i * j if i and j else i or j for i, j in zip(b1, b2)),
                    )
                    prod[key] = prod.get(key, 0) + c1 * c2
            done.append(prod)
        else:
            right, left = done.pop(), done[-1]
            sign = 1 if isinstance(node, Add) else -1
            for k, c in right.items():
                left[k] = left.get(k, 0) + sign * c
    return done[0]


def linear_polys(system: LinearSystem) -> List[MultiPoly]:
    """Each row of A x = b as the polynomial sum_j a_j x_j - b; zero rows stay."""
    vars_ = system.variables
    polys = []
    for row, b in zip(system.matrix.rows, system.rhs):
        terms = {}
        for j, a in enumerate(row):
            if a != 0:
                terms[tuple(1 if t == j else 0 for t in range(len(vars_)))] = Fraction(a)
        if b != 0:
            terms[tuple(0 for _ in vars_)] = -Fraction(b)
        polys.append(MultiPoly(vars_, terms))
    return polys


def classify(ast: EquationAST) -> EquationClass:
    """Most specific equation class for a parsed system.

    Each equation's "left side minus right side" becomes one map from
    (exponents, bases) to coefficient (see `_term_map`), and each class
    is read from those maps.  Order of preference: LinearSystem (every
    key of degree at most 1, no base), then TwoVarPolySystem, then
    PolyExpEquation (characters are the keys' bases, 1 where a variable
    has none), then GeneralPolySystem.  The reported variable order is
    first-appearance order, and classification commutes with variable
    renaming up to that order.
    """
    variables = ast.variables
    none = (0,) * len(variables)
    maps = []
    for eq in ast.equations:
        expanded = _term_map(Sub(eq.lhs, eq.rhs), variables)
        maps.append({k: c for k, c in expanded.items() if c != 0})

    if not any(any(bases) for m in maps for _, bases in m):
        if all(sum(exps) <= 1 for m in maps for exps, _ in m):
            rows = []
            for m in maps:
                row = [Fraction(0)] * len(variables)
                for (exps, _), c in m.items():
                    if any(exps):
                        row[exps.index(1)] = c
                rows.append(row)
            rhs = tuple(-m.get((none, none), Fraction(0)) for m in maps)
            return LinearSystem(variables, RatMatrix(rows), rhs)
        polys = [MultiPoly(variables, {exps: c for (exps, _), c in m.items()}) for m in maps]
        polys = [p for p in polys if not p.is_zero()]  # 0 = 0 imposes nothing
        if len(variables) <= 2 and all(p.degree() > 0 for p in polys):
            return TwoVarPolySystem(variables, tuple(polys))
        return GeneralPolySystem(variables, tuple(polys))

    if len(maps) != 1:
        raise ClassifyError("systems of several exponential equations are not supported")
    (m,) = maps

    exp_vars = [v for i, v in enumerate(variables) if any(bases[i] for _, bases in m)]
    poly_only = [v for v in variables if v not in exp_vars]
    param_var = poly_only[0] if poly_only else None
    # A single parameter variable is supported; any further purely
    # polynomial variables are folded in as base-1 characters, which the
    # downstream hypothesis check will correctly flag as degenerate.
    full_exp_vars = tuple(exp_vars + poly_only[1:])
    cols = [variables.index(v) for v in full_exp_vars]

    groups: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
    for (exps, bases), coeff in m.items():
        bucket = groups.setdefault(tuple(bases[i] or 1 for i in cols), {})
        bucket[exps] = bucket.get(exps, Fraction(0)) + coeff

    terms = []
    for chars, bucket in groups.items():
        poly = MultiPoly(variables, bucket)
        if poly.is_zero():
            continue
        terms.append(PolyExpTerm(poly=poly, characters=chars))
    if not terms:
        # everything canceled; an empty exponential sum is linear 0 = 0
        return LinearSystem(
            variables,
            RatMatrix([[Fraction(0)] * len(variables)]),
            (Fraction(0),),
        )
    return PolyExpEquation(
        variables=variables,
        exp_vars=full_exp_vars,
        param_var=param_var,
        terms=tuple(terms),
    )


# ---------------------------------------------------------------------
# JSON serialization (exact integers as decimal strings)


# _num renders ints above this many bits by divide and conquer
_LEAF_BITS = 4096
# exact decimal arithmetic: any result that would be rounded raises
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         traps=[decimal.Inexact, decimal.Rounded])


def _num(x) -> str:
    """Exact decimal-string form of an int or Fraction; str(x) for anything else.

    An int above _LEAF_BITS bits is converted by divide and conquer, as in
    CPython 3.12's Lib/_pylong.py, since str(int) is quadratic before 3.12:
    |x| = hi * 2^h + lo with h half its width, both halves converted
    recursively, and joined in `decimal` arithmetic with one 2^h per level.
    The context keeps MAX_PREC digits and traps Inexact and Rounded, so
    every step is exact or raises; no float is involved.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _num(x.numerator)
        return "%s/%s" % (_num(x.numerator), _num(x.denominator))
    if not isinstance(x, int) or x.bit_length() <= _LEAF_BITS:
        return str(x)
    powers = {}

    def to_decimal(n: int, w: int) -> decimal.Decimal:
        # the Decimal equal to n, 0 <= n < 2^w
        if w <= _LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        if h not in powers:
            powers[h] = _EXACT.power(2, h)
        return _EXACT.add(_EXACT.multiply(to_decimal(hi, w - h), powers[h]),
                          to_decimal(n - (hi << h), h))

    digits = str(to_decimal(abs(x), x.bit_length()))
    return digits if x > 0 else "-" + digits


def _rat_from(v) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError("booleans are not numbers")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError("bad rational literal %r" % v) from e
    raise SchemaError("expected integer or decimal string, got %r" % (v,))


def _int_from(v) -> int:
    f = _rat_from(v)
    if f.denominator != 1:
        raise SchemaError("expected an integer, got %r" % (v,))
    return int(f)


def _json_list(d: dict, key: str) -> list:
    """The list under d[key]; absent or null reads as empty."""
    v = d.get(key)
    if v is None:
        return []
    if not isinstance(v, list):
        raise SchemaError("'%s' must be a list" % key)
    return v


def _poly_to_json(p: MultiPoly) -> List[dict]:
    return [
        {"coeff": _num(c), "exps": list(e)} for e, c in p.sorted_terms()
    ]


def _poly_from_json(entry, variables: Tuple[str, ...]) -> MultiPoly:
    if not isinstance(entry, list):
        raise SchemaError("polynomial must be a list of terms")
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for t in entry:
        if not isinstance(t, dict) or "coeff" not in t or "exps" not in t:
            raise SchemaError("polynomial term needs 'coeff' and 'exps'")
        exps = t["exps"]
        if not isinstance(exps, list) or len(exps) != len(variables):
            raise SchemaError("term exponents must match variable count")
        key = tuple(_int_from(e) for e in exps)
        terms[key] = terms.get(key, Fraction(0)) + _rat_from(t["coeff"])
    return MultiPoly(variables, terms)


def class_to_json(obj: EquationClass) -> dict:
    """Schema dict for an equation class; all integers as decimal strings."""
    if isinstance(obj, LinearSystem):
        return {
            "class": "linear_system",
            "vars": list(obj.variables),
            "A": [[_num(x) for x in row] for row in obj.matrix.rows],
            "b": [_num(x) for x in obj.rhs],
        }
    if isinstance(obj, (TwoVarPolySystem, GeneralPolySystem)):
        return {
            "class": "twovar_poly_system"
            if isinstance(obj, TwoVarPolySystem)
            else "general_poly_system",
            "vars": list(obj.variables),
            "equations": [_poly_to_json(p) for p in obj.polys],
        }
    if isinstance(obj, PolyExpEquation):
        return {
            "class": "polyexp_equation",
            "vars": list(obj.variables),
            "exp_vars": list(obj.exp_vars),
            "param": obj.param_var,
            "terms": [
                {
                    "characters": [_num(b) for b in t.characters],
                    "poly": _poly_to_json(t.poly),
                    "f": None,
                }
                for t in obj.terms
            ],
        }
    raise SchemaError("unsupported object %r" % type(obj).__name__)


def class_from_json(d: dict) -> EquationClass:
    """Inverse of class_to_json; also accepts bare {"A": ..., "b": ...}."""
    if not isinstance(d, dict):
        raise SchemaError("expected a JSON object")
    cls = d.get("class")
    if cls is None and "A" in d:
        cls = "linear_system"
    if cls == "linear_system":
        if "A" not in d:
            raise SchemaError("linear system needs 'A'")
        A = d["A"]
        if not isinstance(A, list) or not all(isinstance(r, list) for r in A):
            raise SchemaError("'A' must be a list of rows")
        rows = [[_rat_from(x) for x in row] for row in A]
        ncols = len(rows[0]) if rows else 0
        variables = tuple(_json_list(d, "vars") or ("x%d" % (i + 1) for i in range(ncols)))
        if rows and any(len(r) != len(variables) for r in rows):
            raise SchemaError("row width does not match variable count")
        b = d.get("b", [0] * len(rows))
        if not isinstance(b, list) or len(b) != len(rows):
            raise SchemaError("'b' must have one entry per row")
        return LinearSystem(variables, RatMatrix(rows), tuple(_rat_from(x) for x in b))
    if cls in ("twovar_poly_system", "general_poly_system"):
        variables = tuple(_json_list(d, "vars"))
        if not variables:
            raise SchemaError("polynomial system needs 'vars'")
        polys = tuple(_poly_from_json(e, variables) for e in _json_list(d, "equations"))
        if cls == "twovar_poly_system":
            if len(variables) > 2:
                raise SchemaError("two-variable system with more than two variables")
            return TwoVarPolySystem(variables, polys)
        return GeneralPolySystem(variables, polys)
    if cls == "polyexp_equation":
        variables = tuple(_json_list(d, "vars"))
        exp_vars = tuple(_json_list(d, "exp_vars"))
        if not variables or not exp_vars:
            raise SchemaError("polyexp equation needs 'vars' and 'exp_vars'")
        param = d.get("param")
        terms = []
        for t in _json_list(d, "terms"):
            if not isinstance(t, dict) or "characters" not in t or "poly" not in t:
                raise SchemaError("polyexp term needs 'characters' and 'poly'")
            chars = tuple(_int_from(b) for b in _json_list(t, "characters"))
            if len(chars) != len(exp_vars):
                raise SchemaError("character length does not match exp_vars")
            if any(b == 0 for b in chars):
                raise SchemaError("zero character entry")
            poly = _poly_from_json(t["poly"], variables)
            f = t.get("f")
            if f is not None:
                # the factor f(param) of the older schema: P * f is one polynomial
                if not isinstance(f, list):
                    raise SchemaError("term 'f' must be a list of coefficients")
                if param not in variables or param in exp_vars:
                    raise SchemaError("term 'f' needs a 'param' among 'vars' and not in 'exp_vars'")
                k = variables.index(param)
                poly = poly * MultiPoly(variables, {
                    tuple(e if i == k else 0 for i in range(len(variables))): _rat_from(c)
                    for e, c in enumerate(f)
                })
            terms.append(PolyExpTerm(poly=poly, characters=chars))
        return PolyExpEquation(
            variables=variables,
            exp_vars=exp_vars,
            param_var=param,
            terms=tuple(terms),
        )
    raise SchemaError("unknown class %r" % cls)


def to_json(obj: EquationClass) -> str:
    """Serialize a classified equation as JSON text (round-trips with from_json)."""
    return json.dumps(class_to_json(obj), indent=2)


def from_json(text: str) -> EquationClass:
    """Parse JSON text produced by to_json (or the bare matrix form)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("invalid JSON: %s" % e) from None
    return class_from_json(data)
