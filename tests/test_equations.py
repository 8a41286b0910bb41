"""Parser, printer, classifier and the JSON schema round-trip."""

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtoolkit.algebra import MultiPoly, RatMatrix
from prtoolkit.equations import (
    MAX_EXPANSION,
    MAX_NESTING,
    MAX_POLY_DEGREE,
    MAX_POWER_BITS,
    MAX_VARIABLES,
    Add,
    ClassifyError,
    Equation,
    EquationAST,
    ExpPow,
    Expr,
    GeneralPolySystem,
    LinearSystem,
    Mul,
    Neg,
    Num,
    ParseError,
    PolyExpEquation,
    SchemaError,
    Sub,
    TwoVarPolySystem,
    Var,
    VarPow,
    _position,
    _tokenize,
    class_from_json,
    class_to_json,
    classify,
    format_system,
    from_json,
    parse_equation_text,
    to_json,
)
from prtoolkit.polyexp import PolyExpTerm, decide_polyexp_pr


# --- parsing ------------------------------------------------------------


def test_parse_print_round_trip_on_fixed_corpus():
    texts = [
        "x + y = z",
        "2*x - y = 7",
        "x^2 - y^2 = 0",
        "3/2*x + y = 1",
        "(x + y)*(x - y) = 4",
        "2^x + (-2)^x = 0",
        "(x*y - z + 2)*2^x*3^y = 5^x",
        "x - y = 0 ; x + y = 2",
    ]
    for t in texts:
        ast1 = parse_equation_text(t)
        printed = format_system(ast1)
        ast2 = parse_equation_text(printed)
        assert format_system(ast2) == printed, t


def test_parse_print_round_trip_on_long_chains():
    # chains far longer than the interpreter's recursion limit print in a loop
    for text in (
        " + ".join(["x"] * 1500) + " = y",
        " - ".join(["x"] * 1500) + " = y",
        "*".join(["x"] * 1500) + " = y",
        "y + " + "*".join(["(x + 1)"] * 1500) + " = 2*x - " + " - ".join(["y"] * 1500),
    ):
        printed = format_system(parse_equation_text(text))
        assert printed == text
        assert format_system(parse_equation_text(printed)) == printed


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_equation_text("x ++ y = 1")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_equation_text("x + y")  # no equals sign
    with pytest.raises(ParseError):
        parse_equation_text("x + = 1")
    with pytest.raises(ParseError):
        parse_equation_text("2 x = 1")  # explicit '*' required


@pytest.fixture
def default_digit_limit():
    """The interpreter's default digit limit for int(str), restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "text, col",
    [
        ("x = " + "9" * 5000, 5),  # integer literal
        ("x = 1/" + "9" * 5000, 7),  # denominator
        ("x^" + "9" * 5000 + " = y", 3),  # polynomial exponent
        ("x = 2*\u00b2", 7),  # a digit that is not decimal
    ],
)
def test_unconvertible_literals_are_parse_errors(default_digit_limit, text, col):
    with pytest.raises(ParseError) as e:
        parse_equation_text(text)
    assert (e.value.line, e.value.col) == (1, col)
    assert "bad integer literal" in str(e.value)


def test_exponent_grammar():
    # c^v needs an integer base; negative bases need parentheses
    ast = parse_equation_text("(-2)^x + 2^x = 0")
    eq = classify(ast)
    assert isinstance(eq, PolyExpEquation)
    bases = sorted(t.characters[0] for t in eq.terms)
    assert bases == [-2, 2]
    with pytest.raises(ParseError):
        parse_equation_text("x^y = 1")  # variable exponent on a variable


def test_constant_powers_fold():
    # int ^ nat is a constant; int ^ var stays an exponential
    assert parse_equation_text("x + y = 10^6*z").equations[0].rhs == Mul(
        Num(Fraction(10 ** 6)), Var("z")
    )
    assert parse_equation_text("(-2)^3 = x").equations[0].lhs == Num(Fraction(-8))
    assert parse_equation_text("-2^2 = x").equations[0].lhs == Neg(Num(Fraction(4)))
    assert parse_equation_text("2^x = y").equations[0].lhs == ExpPow(2, "x")
    assert parse_equation_text("0^0 = x").equations[0].lhs == Num(Fraction(1))
    assert isinstance(classify(parse_equation_text("x + y = 10^6*z")), LinearSystem)


@pytest.mark.parametrize(
    "text, col, message",
    [
        ("x = 2^10001", 7, "exceeds degree cap"),  # above MAX_POLY_DEGREE
        ("x = 3^6400", 7, "above the cap"),  # 2 bits times 6400 > MAX_POWER_BITS
        ("x = (-1000)^1001", 13, "above the cap"),
    ],
)
def test_constant_powers_over_the_cap_are_parse_errors(text, col, message):
    with pytest.raises(ParseError) as e:
        parse_equation_text(text)
    assert (e.value.line, e.value.col) == (1, col)
    assert message in str(e.value)


# --- classification -----------------------------------------------------


def test_classify_linear():
    cls = classify(parse_equation_text("x + 2*y - 3*z = 4"))
    assert isinstance(cls, LinearSystem)
    assert cls.variables == ("x", "y", "z")
    assert cls.matrix.rows[0] == (Fraction(1), Fraction(2), Fraction(-3))
    assert cls.rhs == (Fraction(4),)


def test_classify_two_variable_polynomial():
    cls = classify(parse_equation_text("x^2 - y^2 = 0"))
    assert isinstance(cls, TwoVarPolySystem)
    assert cls.variables == ("x", "y")


def test_classify_general_three_variable():
    cls = classify(parse_equation_text("x*y + z = 4"))
    assert isinstance(cls, GeneralPolySystem)


def test_classify_polyexp():
    cls = classify(parse_equation_text("(x + 1)*2^x - 3^x = 0"))
    assert isinstance(cls, PolyExpEquation)
    assert cls.exp_vars == ("x",)


def test_classify_prefers_most_specific():
    # linear beats two-variable polynomial beats general
    assert isinstance(classify(parse_equation_text("x - y = 0")), LinearSystem)
    assert isinstance(classify(parse_equation_text("x*y = 1")), TwoVarPolySystem)


def test_variable_cap():
    vars_ = ["v%d" % i for i in range(MAX_VARIABLES)]
    parse_equation_text(" + ".join(vars_) + " = " + " - ".join(vars_))
    # the error points at the variable one past the cap, plain or in b^v
    for last, col in (("v26", 147), ("2^v26", 149)):
        text = " + ".join(vars_ + [last]) + " = 0"
        with pytest.raises(ParseError) as e:
            parse_equation_text(text)
        assert (e.value.line, e.value.col) == (1, col) == (1, text.index("v26") + 1)
        assert "too many variables" in str(e.value)


def test_nesting_cap():
    # exactly MAX_NESTING levels of '(' or unary '-' parse and classify
    for text in (
        "(" * MAX_NESTING + "x" + ")" * MAX_NESTING + " = y",
        "-" * MAX_NESTING + "x = y",
        "-(" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2) + " = y",
    ):
        ast = parse_equation_text(text)
        assert isinstance(classify(ast), LinearSystem)
        printed = format_system(ast)
        assert format_system(parse_equation_text(printed)) == printed
    # one level more, or the far deeper inputs that used to exhaust the
    # interpreter stack, raise ParseError at the offending token
    for text, col in (
        ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1) + " = y", MAX_NESTING + 1),
        ("-" * (MAX_NESTING + 1) + "x = y", MAX_NESTING + 1),
        ("x = " + "(" * 2000 + "y" + ")" * 2000, MAX_NESTING + 5),
        ("-" * 3000 + "x = y", MAX_NESTING + 1),
    ):
        with pytest.raises(ParseError) as e:
            parse_equation_text(text)
        assert (e.value.line, e.value.col) == (1, col)
        assert "nested" in str(e.value)


def test_classify_keeps_exponential_markers_and_term_order():
    # a base of 1, or one that multiplies out to 1, is still an exponential
    for text in ("1^x = y", "(-1)^x*(-1)^x = y"):
        cls = classify(parse_equation_text(text))
        assert isinstance(cls, PolyExpEquation), text
        assert (cls.exp_vars, cls.param_var) == (("x",), "y")
        assert [(t.characters, t.poly.terms) for t in cls.terms] == [
            ((1,), {(0, 0): 1, (0, 1): -1})
        ]
    # x*y appears first in the full expansion, with coefficient 0 there,
    # so it comes before y^2 although it is formed after it from y*(y + x)
    cls = classify(parse_equation_text("(x - x + y)*(y + x) = 1"))
    assert isinstance(cls, TwoVarPolySystem)
    assert list(cls.polys[0].terms.items()) == [((1, 1), 1), ((0, 2), 1), ((0, 0), -1)]
    # 2^x*3^x and 6^x are one term, which cancels
    cls = classify(parse_equation_text("2^x*3^x = 6^x"))
    assert isinstance(cls, LinearSystem)
    assert (cls.matrix.rows, cls.rhs) == (((0,),), (0,))


def test_classify_expansion_budget():
    # like terms combine at every product: 41 monomials of degree 40, and 1;
    # the 39 products form 2 * (2 + 3 + ... + 40) = 1,638 term products
    cls = classify(parse_equation_text("*".join(["(x + y)"] * 40) + " = 1"))
    assert len(cls.polys[0].terms) == 42
    # eight variables: degrees 1..4 have 8, 36, 120 and 330 monomials, so
    # the 5th power forms 8 * (8 + 36 + 120 + 330) = 3,952 term products,
    # and the 6th power's next 792 * 8 take the equation over the cap
    octic = "(a + b + c + d + e + f + g + h)"
    cls = classify(parse_equation_text("*".join([octic] * 5) + " = 1"))
    assert isinstance(cls, GeneralPolySystem)
    with pytest.raises(ClassifyError) as e:
        classify(parse_equation_text("*".join([octic] * 10) + " = 1"))
    assert str(e.value) == "expanding the products needs at least 10288 term products (cap %d)" % MAX_EXPANSION


@pytest.mark.parametrize("text", ["1 = 2", "0 = 0", "2 = 2; 3 = 1"])
def test_classify_rejects_systems_without_variables(text):
    with pytest.raises(ClassifyError, match="no variables"):
        classify(parse_equation_text(text))


@pytest.mark.parametrize("doc", [{"A": [[]], "b": [1]}, {"A": [], "vars": []}])
def test_class_from_json_rejects_systems_without_variables(doc):
    with pytest.raises(SchemaError, match="no variables"):
        class_from_json(doc)


@pytest.mark.parametrize("factor,count", [("(x + y)", 800), ("(x + y + z)", 120)])
def test_expansion_budget_covers_the_whole_equation(factor, count):
    # each '*' stays under the cap, but together they are far over it
    text = "*".join([factor] * count) + " = 1"
    start = time.perf_counter()
    with pytest.raises(ClassifyError, match="term products"):
        classify(parse_equation_text(text))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "text, kind",
    [
        ("x + 2*y = 3*z", LinearSystem),
        ("1/2*x - y = 3/4", LinearSystem),
        ("x^2 - 3*y = 5", TwoVarPolySystem),
        ("2/3*x^2 + y = 1/2", TwoVarPolySystem),
        ("x*y*z + x = 8", GeneralPolySystem),
        ("x*y*z = 1/2*x + 3", GeneralPolySystem),
        ("(x^2 + 3)*2^x + 5*3^x = 0", PolyExpEquation),
        ("1/2*x*2^x*3^y - 3/4*5^y = z", PolyExpEquation),
    ],
)
def test_classify_hands_out_only_fractions(text, kind):
    # the expansion runs on ints; each class still holds Fractions only
    cls = classify(parse_equation_text(text))
    assert type(cls) is kind
    if kind is LinearSystem:
        coeffs = [c for row in cls.matrix.rows for c in row] + list(cls.rhs)
    else:
        polys = cls.polys if hasattr(cls, "polys") else [t.poly for t in cls.terms]
        coeffs = [c for p in polys for c in p.terms.values()]
    assert coeffs and all(type(c) is Fraction for c in coeffs), coeffs


@pytest.mark.parametrize("factor, terms", [("(x + y)", 101), ("(x + 1/2)", 100)])
def test_expansion_cap_message_on_binomial_products(factor, terms):
    # k factors form 2 * (2 + 3 + ... + k) = k(k + 1) - 2 term products:
    # 9,898 for k = 99, under the cap, and 10,098 for k = 100, over it
    cls = classify(parse_equation_text("*".join([factor] * 99) + " = 1"))
    assert len(cls.polys[0].terms) == terms
    for k in (100, 130):
        with pytest.raises(ClassifyError) as e:
            classify(parse_equation_text("*".join([factor] * k) + " = 1"))
        assert str(e.value) == "expanding the products needs at least 10098 term products (cap 10000)"


# --- the tokenizer against its first version -------------------------------
#
# A verbatim copy of the tokenizer that built frozen dataclass tokens and
# carried the column by hand; the offset tokenizer must give the same
# tokens, with line and column from `_position`, or the same error at the
# same place.


@dataclass(frozen=True)
class _RefToken:
    kind: str  # NUM, IDENT, or a literal operator character; END at EOF
    text: str
    line: int
    col: int


_REF_OPS = set("+-*^/()=;")


def _ref_tokenize(src: str) -> List[_RefToken]:
    toks: List[_RefToken] = []
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
            toks.append(_RefToken("NUM", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_RefToken("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _REF_OPS:
            toks.append(_RefToken(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    toks.append(_RefToken("END", "", line, col))
    return toks


def _lexed(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return "ParseError", str(e), e.line, e.col


def _offset_tokens(text):
    """`_tokenize(text)` with each offset turned into (line, column)."""
    return [_RefToken(kind, tok, *_position(text, offset)) for kind, tok, offset in _tokenize(text)]


# ASCII operators and names, a superscript digit (isdigit but not
# decimal), an Arabic-Indic digit, an information separator and a no-break
# space (both isspace), letters of other scripts, and characters that
# start no token
_LEX_ALPHABET = list("+-*^/()=;xy_09") + ["\u00b2", "\u0663", "\x1c", "\u00a0", "\n", "\t", " ",
                                          "\u00e9", "\u03bb", "\u0436", "\u4e2d", ".", "#", "\u2212"]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from(_LEX_ALPHABET), max_size=40))
def test_tokenizer_matches_its_first_version(text):
    assert _lexed(_offset_tokens, text) == _lexed(_ref_tokenize, text)


def test_tokenizer_reports_lines_and_columns():
    text = "x\u00b2 =\n\t3\u0663*y\x1c"
    assert [kind for kind, _, _ in _tokenize(text)] == ["IDENT", "=", "NUM", "*", "IDENT", "END"]
    assert [(t.kind, t.text, t.line, t.col) for t in _offset_tokens(text)] == [
        ("IDENT", "x\u00b2", 1, 1), ("=", "=", 1, 4), ("NUM", "3\u0663", 2, 2),
        ("*", "*", 2, 4), ("IDENT", "y", 2, 5), ("END", "", 2, 7),
    ]
    with pytest.raises(ParseError) as e:
        _tokenize("x = 1\n  y # 2")
    assert (e.value.line, e.value.col) == (2, 5)


# --- classify against the full expansion ---------------------------------
#
# The reference below multiplies every product out in full and combines
# like terms only at the end, as classify once did.  classify combines at
# every product; its classes, JSON and the insertion order of every
# polynomial's terms must be the same.


def _ref_expand(e):
    if isinstance(e, Num):
        return [(e.value, {}, {})]
    if isinstance(e, Var):
        return [(Fraction(1), {e.name: 1}, {})]
    if isinstance(e, VarPow):
        return [(Fraction(1), {e.name: e.exp} if e.exp else {}, {})]
    if isinstance(e, ExpPow):
        return [(Fraction(1), {}, {e.var: e.base})]
    if isinstance(e, Neg):
        return [(-c, p, x) for c, p, x in _ref_expand(e.arg)]
    if isinstance(e, Add):
        return _ref_expand(e.left) + _ref_expand(e.right)
    if isinstance(e, Sub):
        return _ref_expand(e.left) + [(-c, p, x) for c, p, x in _ref_expand(e.right)]
    out = []
    right = _ref_expand(e.right)
    for c1, p1, x1 in _ref_expand(e.left):
        for c2, p2, x2 in right:
            powers = dict(p1)
            for v, k in p2.items():
                powers[v] = powers.get(v, 0) + k
            bases = dict(x1)
            for v, b in x2.items():
                bases[v] = bases.get(v, 1) * b
            out.append((c1 * c2, powers, bases))
    return out


def _ref_flatten(eq):
    """lhs - rhs as an insertion-ordered list of (coeff, powers, bases)."""
    raw = _ref_expand(eq.lhs) + [(-c, p, x) for c, p, x in _ref_expand(eq.rhs)]
    combined = {}
    for c, powers, bases in raw:
        key = (
            tuple(sorted((v, k) for v, k in powers.items() if k)),
            tuple(sorted(bases.items())),
        )
        combined[key] = combined.get(key, Fraction(0)) + c
    return [(c, key[0], key[1]) for key, c in combined.items() if c != 0]


def _ref_exps(powers, variables):
    exps = [0] * len(variables)
    for v, k in powers:
        exps[variables.index(v)] = k
    return tuple(exps)


def _ref_classify(ast):
    variables = ast.variables
    if not variables:
        raise ClassifyError("the system has no variables")
    flats = [_ref_flatten(eq) for eq in ast.equations]
    if not any(bases for flat in flats for _, _, bases in flat):
        if all(sum(k for _, k in powers) <= 1 for flat in flats for _, powers, _ in flat):
            rows, rhs = [], []
            for flat in flats:
                row = [Fraction(0)] * len(variables)
                const = Fraction(0)
                for coeff, powers, _ in flat:
                    if powers:
                        ((v, _k),) = powers
                        row[variables.index(v)] += coeff
                    else:
                        const += coeff
                rows.append(row)
                rhs.append(-const)
            return LinearSystem(variables, RatMatrix(rows), tuple(rhs))
        polys, degenerate = [], False
        for flat in flats:
            terms = {}
            for coeff, powers, _ in flat:
                key = _ref_exps(powers, variables)
                terms[key] = terms.get(key, Fraction(0)) + coeff
            p = MultiPoly(variables, terms)
            if p.is_zero():
                continue
            degenerate = degenerate or p.degree() == 0
            polys.append(p)
        if len(variables) <= 2 and not degenerate:
            return TwoVarPolySystem(variables, tuple(polys))
        return GeneralPolySystem(variables, tuple(polys))
    if len(flats) != 1:
        raise ClassifyError("systems of several exponential equations are not supported")
    (flat,) = flats
    exp_vars = [v for v in variables if any(v in dict(bases) for _, _, bases in flat)]
    poly_only = [v for v in variables if v not in exp_vars]
    full_exp_vars = tuple(exp_vars + poly_only[1:])
    groups = {}
    for coeff, powers, bases in flat:
        chars = tuple(dict(bases).get(v, 1) for v in full_exp_vars)
        bucket = groups.setdefault(chars, {})
        key = _ref_exps(powers, variables)
        bucket[key] = bucket.get(key, Fraction(0)) + coeff
    terms = []
    for chars, bucket in groups.items():
        poly = MultiPoly(variables, bucket)
        if not poly.is_zero():
            terms.append(PolyExpTerm(poly=poly, characters=chars))
    if not terms:
        return LinearSystem(variables, RatMatrix([[Fraction(0)] * len(variables)]), (Fraction(0),))
    return PolyExpEquation(
        variables=variables,
        exp_vars=full_exp_vars,
        param_var=poly_only[0] if poly_only else None,
        terms=tuple(terms),
    )


def _outcome(classifier, ast):
    try:
        cls = classifier(ast)
    except ClassifyError as e:
        return "ClassifyError: %s" % e
    polys = list(getattr(cls, "polys", ())) + [t.poly for t in getattr(cls, "terms", ())]
    return repr(cls), to_json(cls), [list(p.terms) for p in polys]


_NAMES = st.sampled_from(("x", "y", "z"))
_LEAVES = st.one_of(
    st.sampled_from((0, 1, 2, 3, Fraction(1, 2))).map(lambda c: Num(Fraction(c))),
    _NAMES.map(Var),
    st.builds(VarPow, _NAMES, st.integers(0, 2)),
    st.builds(ExpPow, st.sampled_from((1, -1, 2, -2, 3, 6)), _NAMES),
)


def _compound(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        # e cancels, in a sum or in a product, and comes back after f
        pairs.map(lambda ef: Add(Add(Sub(ef[0], ef[0]), ef[1]), ef[0])),
        pairs.map(lambda ef: Add(Add(Mul(Num(Fraction(0)), ef[0]), ef[1]), ef[0])),
    )


_EXPRS = st.recursive(_LEAVES, _compound, max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_EXPRS, _EXPRS), min_size=1, max_size=2))
def test_classify_matches_full_expansion(sides):
    text = format_system(EquationAST(tuple(Equation(l, r) for l, r in sides), ()))
    ast = parse_equation_text(text)
    assert _outcome(classify, ast) == _outcome(_ref_classify, ast), text


# --- the parser against its previous version ------------------------------
#
# A verbatim copy, but for the names, of the tokenizer that built NamedTuple
# tokens with line and column, and of the parser that read them through
# peek() and advance().  The offset tokens and the index-walking parser
# must build the same AST, or raise the same ParseError: message, line,
# column and expected set.  The texts use at most a dozen names, so the
# variable cap, whose error now points at the variable itself, is pinned
# by test_variable_cap instead.


class _PrevToken(NamedTuple):
    kind: str  # NUM, IDENT, or a literal operator character; END at EOF
    text: str
    line: int
    col: int


_PREV_OPS = frozenset("+-*^/()=;")


def _prev_tokenize(src: str) -> List[_PrevToken]:
    """Tokens of `src`, or a ParseError at the first character that starts none.

    Each character is one column and '\n' starts a line, so a column is
    the offset from the line's first character plus 1.
    """
    toks: List[_PrevToken] = []
    append = toks.append
    n = len(src)
    line, bol = 1, 0  # bol: index of the line's first character
    i = 0
    while i < n:
        ch = src[i]
        if ch in _PREV_OPS:
            append(_PrevToken(ch, ch, line, i - bol + 1))
            i += 1
        elif ch == "\n":
            i += 1
            line, bol = line + 1, i
        elif ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            append(_PrevToken("NUM", src[i:j], line, i - bol + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            append(_PrevToken("IDENT", src[i:j], line, i - bol + 1))
            i = j
        else:
            raise ParseError("unexpected character %r" % ch, line, i - bol + 1)
    append(_PrevToken("END", "", line, n - bol + 1))
    return toks



class _PrevParser:
    def __init__(self, toks: List[_PrevToken]):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.seen_vars: List[str] = []

    def peek(self) -> _PrevToken:
        return self.toks[self.i]

    def advance(self) -> _PrevToken:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _PrevToken:
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
            num = _prev_literal(t)
            den = 1
            if self.peek().kind == "/":
                self.advance()
                dtok = self.expect("NUM", "integer denominator")
                den = _prev_literal(dtok)
                if den == 0:
                    raise ParseError("zero denominator", dtok.line, dtok.col)
            if self.peek().kind == "^":
                caret = self.advance()
                if den != 1:
                    raise ParseError(
                        "exponential base must be an integer", caret.line, caret.col
                    )
                return self._finish_power(num, caret)
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
                return VarPow(t.text, _prev_exponent(etok))
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
            # (-2)^x or (-2)^3: the parenthesized part must reduce to an
            # integer literal.
            caret = self.advance()
            base = _prev_const_int(inner)
            if base is None:
                raise ParseError(
                    "only integer literals may be raised to a variable or a number",
                    caret.line,
                    caret.col,
                )
            return self._finish_power(base, caret)
        return inner

    def _finish_power(self, base: int, caret: _PrevToken) -> Expr:
        """`base ^ var` is an exponential; `base ^ nat` folds to a constant."""
        etok = self.peek()
        if etok.kind == "NUM":
            exp = _prev_exponent(self.advance())
            # base.bit_length() * exp bounds the power's bit length from above
            bits = base.bit_length() * exp
            if bits > MAX_POWER_BITS:
                raise ParseError(
                    "constant power may need %d bits, above the cap %d" % (bits, MAX_POWER_BITS),
                    etok.line,
                    etok.col,
                )
            return Num(Fraction(base ** exp))
        if base == 0:
            raise ParseError("exponential base must be nonzero", caret.line, caret.col)
        vtok = self.expect("IDENT", "variable name or integer exponent after '^'")
        self.note_var(vtok.text)
        return ExpPow(base, vtok.text)


def _prev_literal(tok: _PrevToken) -> int:
    """The integer a NUM token spells; a ParseError at the token where int()
    refuses it (past sys.set_int_max_str_digits, or a non-decimal digit)."""
    try:
        return int(tok.text)
    except ValueError as e:
        raise ParseError("bad integer literal: %s" % e, tok.line, tok.col) from None


def _prev_exponent(tok: _PrevToken) -> int:
    """The exponent a NUM token spells; a ParseError above MAX_POLY_DEGREE."""
    exp = _prev_literal(tok)
    if exp > MAX_POLY_DEGREE:
        raise ParseError(
            "exponent %d exceeds degree cap %d" % (exp, MAX_POLY_DEGREE), tok.line, tok.col
        )
    return exp


def _prev_const_int(e: Expr) -> Optional[int]:
    """Integer value of a literal-only expression, else None."""
    if isinstance(e, Num):
        return int(e.value) if e.value.denominator == 1 else None
    if isinstance(e, Neg):
        v = _prev_const_int(e.arg)
        return -v if v is not None else None
    return None


def _parsed(parse, text):
    try:
        return "ok", repr(parse(text))
    except ParseError as e:
        return "ParseError", str(e), e.line, e.col, e.expected


def _prev_parse(text):
    return _PrevParser(_prev_tokenize(text)).parse_system()


# pieces of texts, well formed or not: names, integers with Arabic-Indic
# and superscript digits, rationals (a zero denominator too), negative
# and malformed bases, over-cap exponents, every operator, newlines and
# characters that start no token
_PIECES = st.sampled_from([
    "x", "y", "z", "x1", "_t", "0", "2", "17", "3/4", "1/0", "2/1", "\u0663", "1\u0663",
    "\u00b2", "10001", "(-2)^x", "(-2)^3", "(1/2)^x", "(x)^2", "0^y", "2^x", "3^6400",
    "x^2", "x^-1", "y^z", "+", "-", "*", "/", "^", "(", ")", "=", ";", " ", "\n", "\t",
    "#", "\u2212",
])


def _nested(args):
    depth, kind, inner = args
    opener = {"paren": "(", "minus": "-", "both": "-("}[kind]
    closer = "" if kind == "minus" else ")"
    return opener * depth + inner + closer * depth


_TEXTS = st.one_of(
    st.lists(_PIECES, max_size=30).map("".join),
    # well-formed systems, then one piece spliced in at a random place
    st.tuples(st.lists(st.tuples(_EXPRS, _EXPRS), min_size=1, max_size=2),
              st.integers(0, 200), st.one_of(st.just(""), _PIECES)).map(
        lambda a: (lambda t: t[:a[1]] + a[2] + t[a[1]:])(
            format_system(EquationAST(tuple(Equation(l, r) for l, r in a[0]), ())))),
    # nesting on both sides of MAX_NESTING, left or right of the '='
    st.tuples(st.integers(MAX_NESTING // 2 - 2, MAX_NESTING + 2),
              st.sampled_from(["paren", "minus", "both"]),
              st.sampled_from(["x", "x + 1", "(-2)^x", "2", "x =", ""])).map(_nested).flatmap(
        lambda deep: st.sampled_from([deep + " = y", "y = " + deep, deep])),
)


@settings(max_examples=600, deadline=None)
@given(_TEXTS)
def test_parser_matches_its_previous_version(text):
    assert _parsed(parse_equation_text, text) == _parsed(_prev_parse, text), text


# --- JSON schema ---------------------------------------------------------


def test_json_round_trip_linear():
    cls = classify(parse_equation_text("2*x - y = 7 ; x + y = 1"))
    blob = to_json(cls)
    back = from_json(blob)
    assert isinstance(back, LinearSystem)
    assert back.matrix.rows == cls.matrix.rows
    assert back.rhs == cls.rhs
    assert back.variables == cls.variables


def test_json_round_trip_all_classes():
    texts = [
        "x + y = z",
        "x^2 - y^2 = 0",
        "x*y + z = 4",
        "(x^2 + 1)*2^x + 3^x = 0",
    ]
    for t in texts:
        cls = classify(parse_equation_text(t))
        back = from_json(to_json(cls))
        assert type(back) is type(cls), t
        assert class_to_json(back) == class_to_json(cls), t


def test_bare_matrix_json_accepted():
    cls = class_from_json({"A": [["1", "1", "-1"]], "b": ["0"]})
    assert isinstance(cls, LinearSystem)
    assert cls.matrix.rows[0] == (Fraction(1), Fraction(1), Fraction(-1))


def test_json_rationals_are_decimal_strings():
    cls = classify(parse_equation_text("3/2*x - y = 1/3"))
    data = class_to_json(cls)
    assert data["A"][0][0] == "3/2"
    assert data["b"][0] == "1/3"


def test_bad_json_rejected():
    with pytest.raises(SchemaError):
        from_json("{not json")
    with pytest.raises(SchemaError):
        class_from_json({"class": "no_such_class"})


def _with_param_factor(f, param="t"):
    """Schema dict of (x^2 + 3)*2^x + 5*3^x = 0 over vars (x, t), in the
    older form whose first term carries the factor f(param)."""
    d = class_to_json(classify(parse_equation_text("(x^2 + 3)*2^x + 5*3^x = 0")))
    d["vars"] = ["x", "t"]
    d["param"] = param
    for term in d["terms"]:
        for mono in term["poly"]:
            mono["exps"].append(0)
    d["terms"][0]["f"] = f
    return d


def test_json_factor_f_is_folded_into_poly():
    folded = class_from_json(_with_param_factor(["1", "1"]))
    multiplied = classify(parse_equation_text("(x^2 + 3)*(1 + t)*2^x + 5*3^x = 0"))
    assert folded == multiplied
    assert [t["f"] for t in class_to_json(folded)["terms"]] == [None, None]
    a, b = decide_polyexp_pr(folded), decide_polyexp_pr(multiplied)
    assert a.diagonal == b.diagonal
    assert repr(a) == repr(b)


@pytest.mark.parametrize(
    "f, param",
    [
        ("1 + t", "t"),  # f is not a list
        (["1", "1"], None),  # no param
        (["1", "1"], "w"),  # param not among vars
        (["1", "1"], "x"),  # param is an exponent variable
    ],
)
def test_json_factor_f_needs_a_list_and_a_polynomial_param(f, param):
    with pytest.raises(SchemaError):
        class_from_json(_with_param_factor(f, param))


def test_random_linear_round_trip():
    rng = random.Random(201)
    letters = "abcdefgh"
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        names = list(letters[:n])
        lines = []
        for _ in range(m):
            parts = ["%d*%s" % (rng.randint(-9, 9), v) for v in names]
            lines.append(" + ".join(parts) + " = %d" % rng.randint(-9, 9))
        text = " ; ".join(lines)
        try:
            cls = classify(parse_equation_text(text))
        except ClassifyError:
            continue  # all-zero rows can defeat classification
        back = from_json(to_json(cls))
        assert class_to_json(back) == class_to_json(cls)
