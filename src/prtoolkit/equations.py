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

`classify` normalizes every equation to "left side minus right side"
and reports the most specific class: LinearSystem, TwoVarPolySystem,
PolyExpEquation, or GeneralPolySystem.  Exact integers are serialized
as decimal strings in JSON so no value is ever truncated to 64 bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import MultiPoly, RatMatrix, UniPoly
from .polyexp import PolyExpEquation, PolyExpTerm

MAX_VARIABLES = 26
MAX_POLY_DEGREE = 10_000
# nested '(' and unary '-' levels; each '(' costs the recursive parser
# three frames, far below Python's default recursion limit of 1000
MAX_NESTING = 100


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
            num = int(t.text)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                dtok = self.expect("NUM", "integer denominator")
                den = int(dtok.text)
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
                exp = int(etok.text)
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
    if isinstance(e, Mul):
        left = format_expr(e.left)
        if isinstance(e.left, (Add, Sub)):
            left = "(%s)" % left
        right = format_expr(e.right)
        if isinstance(e.right, (Add, Sub, Mul)):
            right = "(%s)" % right
        return "%s*%s" % (left, right)
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        left = format_expr(e.left)
        right = format_expr(e.right)
        if isinstance(e.right, (Add, Sub)):
            right = "(%s)" % right
        return op.join((left, right))
    raise TypeError("not an expression node: %r" % (e,))


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

_FlatTerm = Tuple[Fraction, Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]


def _expand(e: Expr) -> List[Tuple[Fraction, Dict[str, int], Dict[str, int]]]:
    """Flatten an expression into (coeff, var->power, var->base) products."""
    if isinstance(e, Num):
        return [(e.value, {}, {})]
    if isinstance(e, Var):
        return [(Fraction(1), {e.name: 1}, {})]
    if isinstance(e, VarPow):
        return [(Fraction(1), {e.name: e.exp} if e.exp else {}, {})]
    if isinstance(e, ExpPow):
        return [(Fraction(1), {}, {e.var: e.base})]
    if isinstance(e, Neg):
        return [(-c, p, x) for c, p, x in _expand(e.arg)]
    if isinstance(e, Add):
        return _expand(e.left) + _expand(e.right)
    if isinstance(e, Sub):
        return _expand(e.left) + [(-c, p, x) for c, p, x in _expand(e.right)]
    if isinstance(e, Mul):
        out = []
        right = _expand(e.right)
        for c1, p1, x1 in _expand(e.left):
            for c2, p2, x2 in right:
                powers = dict(p1)
                for v, k in p2.items():
                    powers[v] = powers.get(v, 0) + k
                bases = dict(x1)
                for v, b in x2.items():
                    bases[v] = bases.get(v, 1) * b
                out.append((c1 * c2, powers, bases))
        return out
    raise TypeError("not an expression node: %r" % (e,))


def _flatten_equation(eq: Equation) -> Dict[_FlatTerm, Fraction]:
    """lhs - rhs as an insertion-ordered map from term shape to coefficient."""
    raw = _expand(eq.lhs) + [(-c, p, x) for c, p, x in _expand(eq.rhs)]
    combined: Dict[Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]], Fraction] = {}
    for c, powers, bases in raw:
        key = (
            tuple(sorted((v, k) for v, k in powers.items() if k)),
            tuple(sorted(bases.items())),
        )
        combined[key] = combined.get(key, Fraction(0)) + c
    return {
        (coeff, key[0], key[1]): coeff
        for key, coeff in combined.items()
        if coeff != 0
    }


def _poly_from_flat(
    flat: Dict[_FlatTerm, Fraction], variables: Tuple[str, ...]
) -> MultiPoly:
    terms: Dict[Tuple[int, ...], Fraction] = {}
    for (coeff, powers, bases) in flat:
        if bases:
            raise ValueError("exponential term in polynomial context")
        exps = [0] * len(variables)
        for v, k in powers:
            exps[variables.index(v)] = k
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return MultiPoly(variables, terms)


def classify(ast: EquationAST) -> EquationClass:
    """Most specific equation class for a parsed system.

    Order of preference: LinearSystem, then TwoVarPolySystem, then
    PolyExpEquation, then GeneralPolySystem.  The reported variable
    order is first-appearance order, and classification commutes with
    variable renaming up to that order.
    """
    variables = ast.variables
    flats = [_flatten_equation(eq) for eq in ast.equations]
    has_exp = any(bases for flat in flats for (_, _, bases) in flat)

    if not has_exp:
        if all(
            sum(k for _, k in powers) <= 1
            for flat in flats
            for (_, powers, _) in flat
        ):
            rows: List[List[Fraction]] = []
            rhs: List[Fraction] = []
            for flat in flats:
                row = [Fraction(0)] * len(variables)
                const = Fraction(0)
                for (coeff, powers, _) in flat:
                    if powers:
                        ((v, _k),) = powers
                        row[variables.index(v)] += coeff
                    else:
                        const += coeff
                rows.append(row)
                rhs.append(-const)
            return LinearSystem(variables, RatMatrix(rows), tuple(rhs))
        polys = []
        degenerate = False
        for flat in flats:
            p = _poly_from_flat(flat, variables)
            if p.is_zero():
                continue  # 0 = 0 imposes nothing
            if p.degree() == 0:
                degenerate = True
            polys.append(p)
        if len(variables) <= 2 and not degenerate:
            return TwoVarPolySystem(variables, tuple(polys))
        return GeneralPolySystem(variables, tuple(polys))

    if len(flats) != 1:
        raise ClassifyError("systems of several exponential equations are not supported")
    flat = flats[0]

    exp_vars: List[str] = []
    for v in variables:
        if any(v in dict(bases) for (_, _, bases) in flat):
            exp_vars.append(v)
    poly_only = [v for v in variables if v not in exp_vars]
    param_var = poly_only[0] if poly_only else None
    # A single parameter variable is supported; any further purely
    # polynomial variables are folded in as base-1 characters, which the
    # downstream hypothesis check will correctly flag as degenerate.
    folded = poly_only[1:]
    full_exp_vars = tuple(exp_vars + folded)

    groups: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
    for (coeff, powers, bases) in flat:
        bmap = dict(bases)
        chars = tuple(bmap.get(v, 1) for v in full_exp_vars)
        exps = [0] * len(variables)
        for v, k in powers:
            exps[variables.index(v)] = k
        bucket = groups.setdefault(chars, {})
        key = tuple(exps)
        bucket[key] = bucket.get(key, Fraction(0)) + coeff

    terms = []
    for chars, bucket in groups.items():
        poly = MultiPoly(variables, bucket)
        if poly.is_zero():
            continue
        terms.append(PolyExpTerm(poly=poly, f=None, characters=chars))
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


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator,
        x.denominator,
    )


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


def _poly_to_json(p: MultiPoly) -> List[dict]:
    return [
        {"coeff": _rat_str(c), "exps": list(e)} for e, c in p.sorted_terms()
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
            "A": [[_rat_str(x) for x in row] for row in obj.matrix.rows],
            "b": [_rat_str(x) for x in obj.rhs],
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
                    "characters": [str(b) for b in t.characters],
                    "poly": _poly_to_json(t.poly),
                    "f": None if t.f is None else [_rat_str(c) for c in t.f.coeffs],
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
        variables = tuple(d.get("vars") or ("x%d" % (i + 1) for i in range(ncols)))
        if rows and any(len(r) != len(variables) for r in rows):
            raise SchemaError("row width does not match variable count")
        b = d.get("b", [0] * len(rows))
        if not isinstance(b, list) or len(b) != len(rows):
            raise SchemaError("'b' must have one entry per row")
        return LinearSystem(variables, RatMatrix(rows), tuple(_rat_from(x) for x in b))
    if cls in ("twovar_poly_system", "general_poly_system"):
        variables = tuple(d.get("vars", ()))
        if not variables:
            raise SchemaError("polynomial system needs 'vars'")
        polys = tuple(_poly_from_json(e, variables) for e in d.get("equations", ()))
        if cls == "twovar_poly_system":
            if len(variables) > 2:
                raise SchemaError("two-variable system with more than two variables")
            return TwoVarPolySystem(variables, polys)
        return GeneralPolySystem(variables, polys)
    if cls == "polyexp_equation":
        variables = tuple(d.get("vars", ()))
        exp_vars = tuple(d.get("exp_vars", ()))
        if not variables or not exp_vars:
            raise SchemaError("polyexp equation needs 'vars' and 'exp_vars'")
        terms = []
        for t in d.get("terms", ()):
            if not isinstance(t, dict) or "characters" not in t or "poly" not in t:
                raise SchemaError("polyexp term needs 'characters' and 'poly'")
            chars = tuple(_int_from(b) for b in t["characters"])
            if len(chars) != len(exp_vars):
                raise SchemaError("character length does not match exp_vars")
            if any(b == 0 for b in chars):
                raise SchemaError("zero character entry")
            f = t.get("f")
            fpoly = None if f is None else UniPoly([_rat_from(c) for c in f])
            terms.append(
                PolyExpTerm(
                    poly=_poly_from_json(t["poly"], variables),
                    f=fpoly,
                    characters=chars,
                )
            )
        return PolyExpEquation(
            variables=variables,
            exp_vars=exp_vars,
            param_var=d.get("param"),
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
