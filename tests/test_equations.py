"""Parser, printer, classifier and the JSON schema round-trip."""

import random
from fractions import Fraction

import pytest

from prtoolkit.equations import (
    MAX_NESTING,
    MAX_VARIABLES,
    ClassifyError,
    GeneralPolySystem,
    LinearSystem,
    ParseError,
    PolyExpEquation,
    SchemaError,
    TwoVarPolySystem,
    class_from_json,
    class_to_json,
    classify,
    format_system,
    from_json,
    parse_equation_text,
    to_json,
)


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


def test_exponent_grammar():
    # c^v needs an integer base; negative bases need parentheses
    ast = parse_equation_text("(-2)^x + 2^x = 0")
    eq = classify(ast)
    assert isinstance(eq, PolyExpEquation)
    bases = sorted(t.characters[0] for t in eq.terms)
    assert bases == [-2, 2]
    with pytest.raises(ParseError):
        parse_equation_text("x^y = 1")  # variable exponent on a variable


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
    vars_ = ["v%d" % i for i in range(MAX_VARIABLES + 1)]
    text = " + ".join(vars_) + " = 0"
    with pytest.raises(ParseError):
        parse_equation_text(text)


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
