"""The immutable record base: construction, equality, repr, immutability, copies.

Every record class is checked against a frozen dataclass built here with
the same fields, which is the behaviour the records replace.  The value
classes, which normalize their arguments in their own `__init__`, share
the immutability, equality and copying of the base.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from prtoolkit import diophantine, equations, polyexp, rado, ramsey, sunit
from prtoolkit.algebra import MultiPoly, RatMatrix, Record, UniPoly
from prtoolkit.equations import Add, Num, PolyExpEquation, PolyExpTerm, Sub, Var, classify, parse_equation_text

RECORDS = (
    [getattr(equations, n) for n in (
        "Num", "Var", "VarPow", "ExpPow", "Neg", "Add", "Sub", "Mul", "Equation", "EquationAST",
        "LinearSystem", "TwoVarPolySystem", "PolyExpTerm", "PolyExpEquation", "GeneralPolySystem")]
    + [getattr(polyexp, n) for n in (
        "ABConstants", "BranchCertificate", "DominanceCertificate", "ModularCertificate",
        "ConstantSolutionResult", "HypothesisReport", "PolyExpVerdict")]
    + [diophantine.TwoVarVerdict, rado.LinearVerdict, ramsey.SearchResult, sunit.GroupSpec, sunit.SUnitVerdict]
)

VALUES = (MultiPoly, UniPoly, RatMatrix, polyexp.ExpSum)

_EQUATION = classify(parse_equation_text("(x - 5)*2^x - (-2)^x = 0"))


def _mirror(cls):
    """A frozen dataclass with the record's name, fields and defaults."""
    specs = []
    for name in cls.__annotations__:
        if name in vars(cls):
            specs.append((name, object, dataclasses.field(default=vars(cls)[name])))
        else:
            specs.append((name, object))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _values(cls):
    """One value per field, of mixed types; a valid equation's own for PolyExpEquation."""
    if cls is PolyExpEquation:
        return tuple(getattr(_EQUATION, f) for f in cls.__annotations__)
    samples = ("PR", 7, None, (1, -2), Fraction(3, 4), ("a", ("b",)), "", -(2 ** 70))
    return tuple(samples[i % len(samples)] for i in range(len(cls.__annotations__)))


def test_every_record_class_is_listed():
    found = {c for c in Record.__subclasses__() if c.__module__.startswith("prtoolkit.")}
    assert found == set(RECORDS) | set(VALUES) and (len(RECORDS), len(VALUES)) == (27, 4)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_equality_and_hash_match_a_frozen_dataclass(cls):
    values = _values(cls)
    record, mirror = cls(*values), _mirror(cls)(*values)
    assert repr(record) == repr(mirror)
    assert record == cls(*values) and hash(record) == hash(mirror)
    assert tuple(getattr(record, f) for f in cls.__annotations__) == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_equals_positional(cls):
    values = _values(cls)
    assert cls(**dict(zip(cls.__annotations__, values))) == cls(*values)


def test_equality_follows_the_class():
    a, b = Var("x"), Num(Fraction(2))
    assert Add(a, b) == Add(a, b)
    assert Add(a, b) != Sub(a, b)
    assert Add(a, b) != Add(b, a)
    assert Add(a, b) != (a, b)
    assert len({Add(a, b), Add(a, b), Sub(a, b)}) == 2


def test_assignment_and_deletion_raise_attribute_error():
    node = Add(Var("x"), Var("y"))
    for name in ("left", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, Var("z"))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node.left == Var("x")


def test_defaults_and_mixed_arguments():
    csr = polyexp.ConstantSolutionResult
    r = csr("FOUND", 3, window=(0, 6))
    assert (r.status, r.witness, r.window, r.families, r.note) == ("FOUND", 3, (0, 6), (), "")
    assert csr("UNKNOWN") == csr(status="UNKNOWN", witness=None, note="")
    assert repr(csr("NONE")) == repr(_mirror(csr)("NONE"))


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "missing arguments: 'left', 'right'"),
    ((Var("x"),), {}, "missing arguments: 'right'"),
    ((Var("x"), Var("y"), Var("z")), {}, "takes 2 arguments but 3 were given"),
    ((Var("x"),), {"left": Var("y")}, "multiple values for argument 'left'"),
    ((Var("x"), Var("y")), {"middle": Var("z")}, "unexpected keyword argument 'middle'"),
    ((Var("x"),), {"middle": Var("z")}, "unexpected keyword argument 'middle'"),
])
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Add(*args, **kwargs)


def _term(characters, poly=None):
    return PolyExpTerm(poly or MultiPoly.constant(("x",), 1), characters)


@pytest.mark.parametrize("exp_vars, terms, message", [
    ((), (_term(()),), "at least one exponent variable"),
    (("x",), (), "at least one term"),
    (("x",), (_term((2, 3)),), "character vector length"),
    (("x",), (_term((0,)),), "nonzero integers"),
    (("x",), (_term((Fraction(1, 2),)),), "nonzero integers"),
    (("x",), (_term((2,), MultiPoly.zero(("x",))),), "term polynomial must be nonzero"),
    (("x",), (_term((2,)), _term((2,))), "duplicate character vector"),
])
def test_polyexp_equation_validation(exp_vars, terms, message):
    with pytest.raises(ValueError, match=message):
        PolyExpEquation(("x",), exp_vars, None, terms)


def _value_examples():
    """One instance of each value class, with a Fraction among its values."""
    return [
        MultiPoly(("x", "y"), {(1, 1): 1, (0, 0): Fraction(1, 2)}),
        UniPoly([1, Fraction(-2, 3)]),
        RatMatrix([[1, 2], [Fraction(1, 2), 0]]),
        polyexp.ExpSum([(2, [1, 1]), (-3, [5])]),
    ]


@pytest.mark.parametrize("value", _value_examples(), ids=lambda v: type(v).__name__)
def test_value_fields_refuse_assignment_and_deletion(value):
    before = repr(value)
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before and value == copy.copy(value)


@pytest.mark.parametrize("value", _value_examples(), ids=lambda v: type(v).__name__)
def test_value_equality_follows_the_class(value):
    cls = type(value)
    other = type("Other" + cls.__name__, (cls,), {})
    twin = other.__new__(other)
    twin.__dict__.update(vars(value))
    assert value != twin and twin != value
    assert value != tuple(getattr(value, f) for f in cls._fields)


# `pickle.dumps` of _value_examples() by the classes' former `__reduce__`,
# which rebuilt each value through its constructor
_OLD_PICKLES = (
    b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x11prtoolkit.algebra\x94\x8c\tMultiPoly\x94\x93\x94"
    b"\x8c\x01x\x94\x8c\x01y\x94\x86\x94}\x94(K\x01K\x01\x86\x94\x8c\tfractions\x94\x8c\x08Fraction\x94"
    b"\x93\x94K\x01K\x01\x86\x94R\x94K\x00K\x00\x86\x94h\nK\x01K\x02\x86\x94R\x94u\x86\x94R\x94.",
    b"\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x11prtoolkit.algebra\x94\x8c\x07UniPoly\x94\x93\x94"
    b"\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94h\x05J\xfe\xff\xff\xffK\x03"
    b"\x86\x94R\x94\x86\x94\x85\x94R\x94.",
    b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x11prtoolkit.algebra\x94\x8c\tRatMatrix\x94\x93\x94"
    b"\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x01\x86\x94R\x94h\x05K\x02K\x01\x86\x94R\x94"
    b"\x86\x94h\x05K\x01K\x02\x86\x94R\x94h\x05K\x00K\x01\x86\x94R\x94\x86\x94\x86\x94\x85\x94R\x94.",
    b"\x80\x04\x95\x94\x00\x00\x00\x00\x00\x00\x00\x8c\x11prtoolkit.polyexp\x94\x8c\x06ExpSum\x94\x93\x94"
    b"K\x02\x8c\x11prtoolkit.algebra\x94\x8c\x07UniPoly\x94\x93\x94\x8c\tfractions\x94\x8c\x08Fraction\x94"
    b"\x93\x94K\x01K\x01\x86\x94R\x94h\x08K\x01K\x01\x86\x94R\x94\x86\x94\x85\x94R\x94\x86\x94J\xfd"
    b"\xff\xff\xffh\x05h\x08K\x05K\x01\x86\x94R\x94\x85\x94\x85\x94R\x94\x86\x94\x86\x94\x85\x94R\x94.",
)


@pytest.mark.parametrize("data, value", zip(_OLD_PICKLES, _value_examples()), ids=[c.__name__ for c in VALUES])
def test_value_pickles_of_the_former_form_still_load(data, value):
    loaded = pickle.loads(data)
    assert type(loaded) is type(value) and loaded == value and repr(loaded) == repr(value)


def _examples():
    ast = parse_equation_text("x + 2*y = z^2; 3^x = -y")
    return [
        ast,
        _EQUATION,
        classify(parse_equation_text("x + y = z")),
        polyexp.decide_polyexp_pr(_EQUATION),
        polyexp.decide_polyexp_pr(classify(parse_equation_text("2^x + 3^x + 5 = 0"))),
        rado.decide_linear(classify(parse_equation_text("x + y = z"))),
        sunit.make_group([2, 3]),
        *_value_examples(),
    ]


@pytest.mark.parametrize("record", _examples(), ids=lambda r: type(r).__name__)
def test_pickle_and_deepcopy_round_trips(record):
    for other in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(other) is type(record)
        assert other == record and hash(other) == hash(record) and repr(other) == repr(record)
    with pytest.raises(AttributeError):
        copy.deepcopy(record).extra = 1
