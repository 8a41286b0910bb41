"""Equation text format, AST, classification, and JSON serialization.

The input language covers systems of equations separated by ';', where
each side of an '=' is built from rational literals, variables, variable
powers `x^k` (k a nonnegative integer literal), exponentials `b^x`
(b a nonzero integer literal, parenthesized when negative), constant
powers `b^k` of an integer literal, '+', '-', and explicit '*'.
Implicit multiplication is rejected.

Grammar:

    system   := equation (";" equation)*
    equation := expr "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | var | var "^" nat | int "^" var | int "^" nat
              | "(" expr ")" | "-" factor

where `rational` is `NUMBER` or `NUMBER "/" NUMBER`, and an integer base
may be written `(-2)^x` or `(-2)^3`.  `int "^" nat` folds to a constant
(`10^6` to `1000000`) unless nat exceeds MAX_POLY_DEGREE or bits(int) *
nat exceeds MAX_POWER_BITS.  Parse errors carry line, column and the set of
token kinds that would have been accepted.  At most MAX_NESTING levels
of '(' and unary '-' may nest; deeper input is a ParseError.

Tokens are (kind, text, offset) tuples, read by the parser as toks[i];
line and column are computed from the offset only for a ParseError.

`classify` normalizes every equation to "left side minus right side",
one map from (exponents, bases) to coefficient with like terms combined
at every '+', '-' and '*', and reports the most specific class:
LinearSystem, TwoVarPolySystem, PolyExpEquation, or GeneralPolySystem.
All four classes, with PolyExpTerm and polyexp_eval, are defined here,
so parsing and classifying import no decision module.
The '*'s of one equation may form at most MAX_EXPANSION term products
in all; more is a ClassifyError.  Chains of '+', '-' and '*' are
parsed, printed and classified in loops, so their length is not
bounded by the interpreter stack.  Exact integers are serialized as decimal strings in JSON so no
value is ever truncated to 64 bits.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import MultiPoly, Rat, RatMatrix, Record

MAX_VARIABLES = 26
MAX_POLY_DEGREE = 10_000
# bits of a folded constant power such as 10^6: about 3,000 digits, so
# that str() prints it under the interpreter's default limit of 4,300
MAX_POWER_BITS = 10_000
# nested '(' and unary '-' levels; each '(' costs the recursive parser
# two frames, far below Python's default recursion limit of 1000
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


# (kind, text, offset): kind is NUM, IDENT, or a literal operator
# character, and END at the end of the input
_Token = Tuple[str, str, int]

_OPS = frozenset("+-*^/()=;")


def _position(src: str, offset: int) -> Tuple[int, int]:
    """(line, column) of `src[offset]`: '\n' starts a line and each
    character is one column, counted from 1."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


def _error(src: str, offset: int, message: str, expected=()) -> ParseError:
    return ParseError(message, *_position(src, offset), expected)


def _tokenize(src: str) -> List[_Token]:
    """Tokens of `src`, or a ParseError at the first character that starts none."""
    toks: List[_Token] = []
    append = toks.append
    n = len(src)
    i = 0
    while i < n:
        ch = src[i]
        if ch in _OPS:
            append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            append(("NUM", src[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            append(("IDENT", src[i:j], i))
            i = j
        else:
            raise _error(src, i, "unexpected character %r" % ch)
    append(("END", "", n))
    return toks


# ---------------------------------------------------------------------
# AST


class Num(Record):
    value: Fraction


class Var(Record):
    name: str


class VarPow(Record):
    name: str
    exp: int


class ExpPow(Record):
    base: int
    var: str


class Neg(Record):
    arg: "Expr"


class Add(Record):
    left: "Expr"
    right: "Expr"


class Sub(Record):
    left: "Expr"
    right: "Expr"


class Mul(Record):
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, VarPow, ExpPow, Neg, Add, Sub, Mul]


class Equation(Record):
    lhs: Expr
    rhs: Expr


class EquationAST(Record):
    equations: Tuple[Equation, ...]
    variables: Tuple[str, ...]  # first-appearance order across the system


class _Parser:
    """Recursive descent over the tokens of `src`; the next one is toks[i]."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.seen_vars: List[str] = []

    def error(self, message: str, tok: _Token, expected=()) -> ParseError:
        return _error(self.src, tok[2], message, expected)

    def expect(self, kind: str, what: str) -> _Token:
        t = self.toks[self.i]
        if t[0] != kind:
            raise self.error("expected %s, got %r" % (what, t[1] or "end of input"), t, {what})
        self.i += 1
        return t

    def note_var(self, tok: _Token) -> str:
        """The name of an IDENT token, recorded on its first appearance."""
        name = tok[1]
        if name not in self.seen_vars:
            if len(self.seen_vars) >= MAX_VARIABLES:
                raise self.error("too many variables (cap %d)" % MAX_VARIABLES, tok)
            self.seen_vars.append(name)
        return name

    def literal(self, tok: _Token, cap: Optional[int] = None) -> int:
        """The integer a NUM token spells; a ParseError where int() refuses
        it (past sys.set_int_max_str_digits, or a non-decimal digit), or
        where it exceeds `cap` as an exponent."""
        try:
            value = int(tok[1])
        except ValueError as e:
            raise self.error("bad integer literal: %s" % e, tok) from None
        if cap is not None and value > cap:
            raise self.error("exponent %d exceeds degree cap %d" % (value, cap), tok)
        return value

    # system := equation (";" equation)*, equation := expr "=" expr
    def parse_system(self) -> EquationAST:
        toks = self.toks
        eqs = []
        while True:
            lhs = self.parse_expr()
            self.expect("=", "'='")
            eqs.append(Equation(lhs, self.parse_expr()))
            t = toks[self.i]
            if t[0] != ";":
                break
            self.i += 1
        if t[0] != "END":
            raise self.error("trailing input %r" % t[1], t, {"';'", "end"})
        return EquationAST(tuple(eqs), tuple(self.seen_vars))

    # expr := term (("+" | "-") term)*, term := factor ("*" factor)*
    def parse_expr(self) -> Expr:
        toks = self.toks
        node = op = None
        while True:
            term = self.parse_factor()
            kind = toks[self.i][0]
            while kind == "*":
                self.i += 1
                term = Mul(term, self.parse_factor())
                kind = toks[self.i][0]
            if kind == "NUM" or kind == "IDENT" or kind == "(":  # "2x" or "x y"
                raise self.error("adjacent factors require an explicit '*'", toks[self.i],
                                 {"'*'", "'+'", "'-'", "'='"})
            node = term if op is None else op(node, term)
            if kind == "+":
                op = Add
            elif kind == "-":
                op = Sub
            else:
                return node
            self.i += 1

    def parse_factor(self) -> Expr:
        toks = self.toks
        t = toks[self.i]
        kind = t[0]
        self.i += 1
        if kind == "IDENT":
            name = self.note_var(t)
            if toks[self.i][0] != "^":
                return Var(name)
            self.i += 1
            if toks[self.i][0] == "-":
                raise self.error("polynomial exponents must be nonnegative integer literals",
                                 toks[self.i])
            etok = self.expect("NUM", "nonnegative integer exponent")
            return VarPow(name, self.literal(etok, MAX_POLY_DEGREE))
        if kind == "NUM":
            base, den = self.literal(t), None  # no denominator: Fraction's fast path
            if toks[self.i][0] == "/":
                self.i += 1
                dtok = self.expect("NUM", "integer denominator")
                den = self.literal(dtok)
                if den == 0:
                    raise self.error("zero denominator", dtok)
            caret = toks[self.i]
            if caret[0] != "^":
                return Num(Fraction(base, den))
            if den not in (None, 1):
                raise self.error("exponential base must be an integer", caret)
        elif kind == "-" or kind == "(":
            if self.depth == MAX_NESTING:
                raise self.error("more than %d nested '(' or unary '-'" % MAX_NESTING, t)
            self.depth += 1
            if kind == "-":
                node = Neg(self.parse_factor())
            else:
                node = self.parse_expr()
                self.expect(")", "')'")
            self.depth -= 1
            caret = toks[self.i]
            if kind == "-" or caret[0] != "^":
                return node
            # (-2)^x or (-2)^3: the parenthesized part must reduce to an
            # integer literal under some unary '-'
            base, sign = node, 1
            while type(base) is Neg:
                base, sign = base.arg, -sign
            if type(base) is not Num or base.value.denominator != 1:
                raise self.error(
                    "only integer literals may be raised to a variable or a number", caret)
            base = sign * base.value.numerator
        else:
            raise self.error("expected a factor, got %r" % (t[1] or "end of input"), t,
                             {"number", "variable", "'('", "'-'"})
        # base ^ nat folds to a constant; base ^ var is an exponential
        self.i += 1
        t = toks[self.i]
        if t[0] == "NUM":
            self.i += 1
            exp = self.literal(t, MAX_POLY_DEGREE)
            # base.bit_length() * exp bounds the power's bit length from above
            bits = base.bit_length() * exp
            if bits > MAX_POWER_BITS:
                raise self.error(
                    "constant power may need %d bits, above the cap %d" % (bits, MAX_POWER_BITS), t)
            return Num(Fraction(base ** exp))
        if base == 0:
            raise self.error("exponential base must be nonzero", caret)
        vtok = self.expect("IDENT", "variable name or integer exponent after '^'")
        return ExpPow(base, self.note_var(vtok))


def parse_equation_text(src: str) -> EquationAST:
    """Parse a system of equations; raises ParseError with position info."""
    return _Parser(src).parse_system()


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


class LinearSystem(Record):
    """A x = b over the listed variables, exact rational entries."""

    variables: Tuple[str, ...]
    matrix: RatMatrix
    rhs: Tuple[Fraction, ...]


class TwoVarPolySystem(Record):
    """Polynomial system in at most two variables, each P of degree >= 1.

    Polynomials are stored normalized to `P = 0` form; equations that
    cancel to `0 = 0` are dropped here so every stored P is nonzero.
    """

    variables: Tuple[str, ...]
    polys: Tuple[MultiPoly, ...]


class PolyExpTerm(Record):
    """One additive term: poly * product of characters."""

    poly: MultiPoly
    characters: Tuple[int, ...]


class PolyExpEquation(Record):
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


class GeneralPolySystem(Record):
    """Polynomial system in three or more variables, or with a constant
    nonzero equation (NOT_PR): else only a constant solution decides it."""

    variables: Tuple[str, ...]
    polys: Tuple[MultiPoly, ...]


EquationClass = Union[LinearSystem, TwoVarPolySystem, PolyExpEquation, GeneralPolySystem]

# (exponents, bases), both aligned with the system's variables; base 0
# marks a variable with no exponential factor, since real bases are nonzero
_Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _join_bases(i: int, j: int) -> int:
    return i * j if i and j else i or j


def _term_map(e: Expr, variables: Tuple[str, ...]) -> Dict[_Key, Rat]:
    """`e` multiplied out, with like terms combined at every '+', '-' and '*'.

    Coefficients are ints while the literals are: a Num contributes its
    numerator when its denominator is 1, and every variable, power and
    exponential the int 1, so only rational literals bring in Fractions
    (int * Fraction promotes); `classify` turns them into Fractions.
    Canceled terms stay in the map with coefficient 0, so every key keeps
    its first-appearance position in the fully expanded sum.  A first
    pass lists the nodes, each before its children, and sums the leaf
    degrees; the second builds the maps, children first, so no '+' or '*'
    chain recurses.  There an exponent vector is one int, `width` bits a
    variable, and bases are None for a term without exponentials: the
    total leaf degree bounds every exponent, so a product of monomials is
    one int addition (Kronecker substitution).  Keys are unpacked at the
    end.  Once the '*'s together need more than MAX_EXPANSION term
    products, ClassifyError is raised before the product that crosses it.
    """
    nodes: List[Expr] = []
    todo = [e]
    degree = 0
    while todo:
        node = todo.pop()
        nodes.append(node)
        kind = type(node)
        if kind is Var:
            degree += 1
        elif kind is VarPow:
            degree += node.exp
        elif kind is Neg:
            todo.append(node.arg)
        elif kind is not Num and kind is not ExpPow:
            todo += (node.left, node.right)
    width = degree.bit_length()
    index = {v: i for i, v in enumerate(variables)}
    spent = 0
    done: List[dict] = []
    for node in reversed(nodes):
        kind = type(node)
        if kind is Num:
            v = node.value
            done.append({(0, None): v.numerator if v.denominator == 1 else v})
        elif kind is Var:
            done.append({(1 << index[node.name] * width, None): 1})
        elif kind is VarPow:
            done.append({(node.exp << index[node.name] * width, None): 1})
        elif kind is ExpPow:
            bases = [0] * len(variables)
            bases[index[node.var]] = node.base
            done.append({(0, tuple(bases)): 1})
        elif kind is Neg:
            done[-1] = {k: -c for k, c in done[-1].items()}
        elif kind is Mul:
            right, left = done.pop(), done.pop()
            spent += len(left) * len(right)
            if spent > MAX_EXPANSION:
                raise ClassifyError(
                    "expanding the products needs at least %d term products (cap %d)"
                    % (spent, MAX_EXPANSION)
                )
            prod: dict = {}
            others = list(right.items())
            for (e1, b1), c1 in left.items():
                for (e2, b2), c2 in others:
                    key = (e1 + e2,
                           b1 if b2 is None else b2 if b1 is None else tuple(map(_join_bases, b1, b2)))
                    prod[key] = prod.get(key, 0) + c1 * c2
            done.append(prod)
        else:
            right, left = done.pop(), done[-1]
            sign = 1 if kind is Add else -1
            for k, c in right.items():
                left[k] = left.get(k, 0) + sign * c
    mask = (1 << width) - 1
    shifts = [i * width for i in range(len(variables))]
    none = (0,) * len(variables)
    return {(tuple([packed >> s & mask for s in shifts]), bases or none): c
            for (packed, bases), c in done[0].items()}


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
    if not variables:
        raise ClassifyError("the system has no variables")
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
            rhs = tuple(Fraction(-m.get((none, none), 0)) for m in maps)
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


def _json_names(d: dict, key: str) -> Tuple[str, ...]:
    """The distinct names under d[key]; absent or null reads as empty."""
    names = tuple(_json_list(d, key))
    if not all(isinstance(v, str) for v in names):
        raise SchemaError("'%s' must be a list of names" % key)
    if len(set(names)) != len(names):
        raise SchemaError("'%s' repeats a name" % key)
    return names


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
        variables = _json_names(d, "vars") or tuple("x%d" % (i + 1) for i in range(ncols))
        if not variables:
            raise SchemaError("the system has no variables")
        if rows and any(len(r) != len(variables) for r in rows):
            raise SchemaError("row width does not match variable count")
        b = d.get("b", [0] * len(rows))
        if not isinstance(b, list) or len(b) != len(rows):
            raise SchemaError("'b' must have one entry per row")
        return LinearSystem(variables, RatMatrix(rows), tuple(_rat_from(x) for x in b))
    if cls in ("twovar_poly_system", "general_poly_system"):
        variables = _json_names(d, "vars")
        if not variables:
            raise SchemaError("polynomial system needs 'vars'")
        polys = tuple(_poly_from_json(e, variables) for e in _json_list(d, "equations"))
        if cls == "twovar_poly_system":
            if len(variables) > 2:
                raise SchemaError("two-variable system with more than two variables")
            return TwoVarPolySystem(variables, polys)
        return GeneralPolySystem(variables, polys)
    if cls == "polyexp_equation":
        variables = _json_names(d, "vars")
        exp_vars = _json_names(d, "exp_vars")
        if not variables or not exp_vars:
            raise SchemaError("polyexp equation needs 'vars' and 'exp_vars'")
        if not set(exp_vars) <= set(variables):
            raise SchemaError("'exp_vars' must be members of 'vars'")
        param = d.get("param")
        if param is not None and (param not in variables or param in exp_vars):
            raise SchemaError("'param' must be null or a member of 'vars' outside 'exp_vars'")
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
                if param is None:
                    raise SchemaError("term 'f' needs a 'param'")
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

