"""Polyexponential equations: diagonalization, dominance and modular
certificates, the constant-solution decision, and the PR verdict.

Frozen threshold values (t1, tstar, T) were computed by hand from the
defining inequalities before the search code existed.
"""

import json
import random
import time
from fractions import Fraction
from itertools import count, islice
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtoolkit.algebra import BudgetExceeded, IncompleteFactorization, MultiPoly, UniPoly, factor_integer
from prtoolkit.equations import _num, classify, parse_equation_text
from prtoolkit import cli, polyexp
from prtoolkit.polyexp import (
    ExpSum,
    WindowTooWide,
    PolyExpEquation,
    PolyExpTerm,
    bell_number,
    character_group_trivial,
    check_hypothesis,
    compute_constants,
    decide_constant_solution,
    decide_polyexp_pr,
    diagonalize,
    dominance_bound,
    enumerate_partitions,
    modular_certificate_search,
    mutually_coprime,
    polyexp_eval,
    solution_count_bound,
    verify_dominance,
    verify_modular,
    _zeros_between,
)


def expsum(*terms):
    return ExpSum([(b, UniPoly([Fraction(c) for c in cs])) for b, cs in terms])


def parse_eq(text):
    eq = classify(parse_equation_text(text))
    assert isinstance(eq, PolyExpEquation)
    return eq


# --- ExpSum -------------------------------------------------------------------


def test_expsum_merges_and_clears_denominators():
    g = ExpSum([
        (2, UniPoly([Fraction(1, 2)])),
        (2, UniPoly([Fraction(1, 3)])),
        (3, UniPoly([Fraction(0)])),
    ])
    # 5/6 * 2^s scaled by 6: single term (2, [5])
    assert g.terms == ((2, UniPoly([Fraction(5)])),)


def test_expsum_eval():
    g = expsum((2, [0, 1]), (-3, [1]))
    # s*2^s + (-3)^s
    assert g.eval(3) == 3 * 8 - 27
    assert g.eval(-1) == Fraction(-1, 2) + Fraction(-1, 3)


def test_expsum_rejects_zero_base():
    with pytest.raises(ValueError):
        ExpSum([(0, UniPoly([Fraction(1)]))])


def test_expsum_equality_reads_terms_only():
    # int_terms derives from terms, so == and hash key on terms alone
    a = ExpSum([(2, [1, 2]), (-3, [5])])
    b = ExpSum([(2, UniPoly([Fraction(1), Fraction(2)])), (-3, UniPoly([Fraction(10, 2)]))])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and a.int_terms == b.int_terms == ((2, (1, 2)), (-3, (5,)))
    assert a != ExpSum([(2, [1, 2]), (-3, [6])])
    object.__setattr__(b, "int_terms", ())
    assert a == b and hash(a) == hash(b)


# --- diagonalization --------------------------------------------------------------


def test_diagonal_of_printed_example():
    eq = parse_eq(
        "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y"
        " + (x*y - z + 3)*11^x*13^y = 0"
    )
    g = diagonalize(eq)
    assert [(b, tuple(int(c) for c in p.coeffs)) for b, p in g.terms] == [
        (6, (2, -1, 1)),
        (35, (2, 2)),
        (143, (3, -1, 1)),
    ]


def test_diagonalize_matches_fraction_diagonals():
    # the integer diagonal gives the same ExpSum as diagonals summed on Fractions
    def reference(eq):
        out = []
        for t in eq.terms:
            coeffs = {}
            for exps, c in t.poly.terms.items():
                coeffs[sum(exps)] = coeffs.get(sum(exps), Fraction(0)) + c
            dense = [coeffs.get(d, Fraction(0)) for d in range(max(coeffs) + 1)]
            out.append((prod(t.characters), UniPoly(dense)))
        return ExpSum(out)

    texts = [
        "(1/2*x + 1/3*y - 5/6)*2^x*3^y + (x - y)*5^x*7^y + 7*11^x*13^y = 0",
        "(1/2*x + 1/2*y + 3)*2^x + (2/3*x - 1/3*y)*3^x + x*y*5^x = 0",
        "(1/4*x^2 - 1/2*y)*2^x + (3*x - 1/7)*(-2)^x + 6^x = 0",
    ]
    rng = random.Random(617)
    for _ in range(60):
        parts = []
        for base in rng.sample([2, 3, 5, -2, -3, 6, 7], rng.randint(1, 3)):
            monos = rng.sample(["x", "y", "x*y", "x^2", "y^2", "1"], rng.randint(1, 3))
            coeffs = ["%d/%d" % (rng.choice([-5, -3, -1, 1, 2, 4]), rng.randint(1, 4)) for _ in monos]
            parts.append("(%s)*(%d)^x" % (" + ".join("%s*%s" % cm for cm in zip(coeffs, monos)), base))
        texts.append(" + ".join(parts) + " = 0")
    for text in texts:
        eq = parse_eq(text)
        g, want = diagonalize(eq), reference(eq)
        assert g == want and g.terms == want.terms and g.int_terms == want.int_terms, text


def test_diagonalize_multiplies_back():
    # g(s) equals the full equation evaluated on the constant tuple, up to
    # the positive constant that cleared denominators
    rng = random.Random(601)
    for _ in range(40):
        n_terms = rng.randint(1, 3)
        parts = []
        for _ in range(n_terms):
            base = rng.choice([b for b in range(-9, 10) if b != 0])
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
            if all(c == 0 for c in coeffs):
                coeffs[-1] = 1
            poly = " + ".join(
                "%d*x^%d" % (c, k) if k else "%d" % c
                for k, c in enumerate(coeffs)
            )
            parts.append("(%s)*(%d)^x" % (poly, base) if base < 0 else "(%s)*%d^x" % (poly, base))
        eq = parse_eq(" + ".join(parts) + " = 0")
        g = diagonalize(eq)
        s = rng.randint(-5, 5)
        direct = polyexp_eval(eq, [s] * len(eq.variables))
        scaled = g.eval(s)
        if direct == 0:
            assert scaled == 0
        else:
            ratio = scaled / direct
            assert ratio > 0 and ratio.denominator == 1


def test_polyexp_eval_point():
    eq = parse_eq("(x + 1)*2^x - 3^x = 0")
    # at x = 2: 3*4 - 9 = 3
    assert polyexp_eval(eq, [2]) == 3


# --- partitions and the character group --------------------------------------------


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def bell_oracle(n):
    # Bell triangle recurrence, independent of the library implementation
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def test_bell_numbers():
    for m in range(11):
        assert bell_number(m) == BELL[m] == bell_oracle(m)


def test_enumerate_partitions_counts():
    for m in range(1, 8):
        parts = list(enumerate_partitions(m))
        assert len(parts) == BELL[m]
        # each partition covers every index exactly once
        for p in parts:
            seen = sorted(i for block in p for i in block)
            assert seen == list(range(m))


def test_enumerate_partitions_cap():
    with pytest.raises(ValueError):
        list(enumerate_partitions(13, cap=12))


def test_character_group_trivial_against_brute_force():
    # G(P) trivial <=> no nonzero z in a small box makes all in-block
    # character pairs agree
    rng = random.Random(602)
    for _ in range(60):
        n = rng.randint(1, 2)
        m = rng.randint(2, 3)
        chars = []
        for _ in range(m):
            vec = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
            chars.append(vec)
        if len(set(chars)) != m:
            continue
        partition = ((tuple(range(m)),))
        got = character_group_trivial(tuple(chars), partition)

        def agree(z):
            for block in partition:
                for i in block:
                    for j in block:
                        lhs = 1
                        rhs = 1
                        for a, e in zip(chars[i], z):
                            lhs *= Fraction(a) ** e
                        for a, e in zip(chars[j], z):
                            rhs *= Fraction(a) ** e
                        if lhs != rhs:
                            return False
            return True

        box = range(-5, 6)
        brute_nontrivial = any(
            agree(z)
            for z in __import__("itertools").product(box, repeat=n)
            if any(z)
        )
        assert got == (not brute_nontrivial), (chars, partition)


def test_mutually_coprime():
    ok, warn = mutually_coprime(((2, 3), (5, 7)))
    assert ok and not warn
    ok2, _ = mutually_coprime(((2, 3), (2, 5)))
    assert not ok2
    _, warn3 = mutually_coprime(((1, 3), (5, 7)))
    assert warn3  # unit entry defeats the coprimality heuristic


# --- constants and bounds ------------------------------------------------------------


def test_constants_on_printed_example():
    eq = parse_eq(
        "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y"
        " + (x*y - z + 3)*11^x*13^y = 0"
    )
    c = compute_constants(eq)
    # n = 2 exponential variables; degrees 2, 1, 2 give
    # A = C(4,2) + C(3,2) + C(4,2) = 6 + 3 + 6 = 15
    assert c.A == 15
    assert c.B == 15
    assert solution_count_bound(eq) == bell_number(3) * 2 ** (35 * 15**3)


def test_constant_polynomials_give_b_max_m_n():
    # with all P_i constant, A = m so B = max(m, n)
    eq = parse_eq("2^x + 3^x + 5^x = 0")
    c = compute_constants(eq)
    assert c.A == 3
    assert c.B == 3


# --- dominance certificates ------------------------------------------------------------


def test_dominance_two_pure_exponentials():
    g = expsum((2, [1]), (-3, [-1]))
    cert = dominance_bound(g)
    assert verify_dominance(g, cert)
    # |3|^s dwarfs 2^s fast: tiny window
    assert cert.s_plus <= 4 and cert.s_minus <= 4


def test_dominance_single_base():
    # (s^2 - 4) * 5^s: zeros exactly at the polynomial roots
    g = expsum((5, [-4, 0, 1]))
    cert = dominance_bound(g)
    assert verify_dominance(g, cert)
    assert cert.s_plus >= 2  # must cover the root at 2
    res = decide_constant_solution(g)
    assert res.status == "FOUND"
    assert set(res.solutions_in_window) == {-2, 2}
    assert res.witness == 2


def test_dominance_printed_example_thresholds():
    g = expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))
    cert = dominance_bound(g)
    assert cert.s_plus == 4
    assert cert.s_minus == 4
    plus = [b for b in cert.branches if b.direction == "plus"]
    minus = [b for b in cert.branches if b.direction == "minus"]
    assert plus[0].t1 == 4 and plus[0].tstar == 1 and plus[0].threshold == 4
    assert minus[0].t1 == 4 and minus[0].tstar == 1 and minus[0].threshold == 4
    # negation transform sends the three bases to +-(products of the others)
    assert tuple(sorted(abs(b) for b in minus[0].bases)) == (210, 858, 5005)
    assert verify_dominance(g, cert)


def linear_thresholds(br):
    """(t1, tstar, T) of a ratio branch by the plain t += 1 searches."""
    def abs_eval(coeffs, t):
        return sum(abs(c) * t ** e for e, c in enumerate(coeffs))

    c1 = br.coeffs[0]
    d1 = len(c1) - 1
    cd = abs(c1[-1])
    b1, b2 = abs(br.bases[0]), abs(br.bases[1])
    t = 1
    while 2 * abs_eval(c1[:-1], t) > cd * t ** d1:
        t += 1
    t1 = t
    dmax = max(len(c) - 1 for c in br.coeffs[1:])
    t = 1
    while (t + 1) ** dmax * b2 >= t ** dmax * b1:
        t += 1
    tstar = t
    t = max(t1, tstar, 1)
    while 2 * sum(
        abs_eval(c, t) * abs(b) ** t for b, c in zip(br.bases[1:], br.coeffs[1:])
    ) >= cd * t ** d1 * b1 ** t:
        t += 1
    return t1, tstar, t


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bisected_threshold_is_the_least_one_close_bases(k):
    g = expsum((101, [0] * k + [1]), (100, [1]))
    cert = dominance_bound(g)
    ratios = [br for br in cert.branches if br.kind == "ratio"]
    assert ratios
    for br in ratios:
        assert (br.t1, br.tstar, br.threshold) == linear_thresholds(br)
    assert verify_dominance(g, cert)


# Sparse and high-degree rows, interior zero runs, a lead polynomial with
# t1 > 1, and bases a and -a, whose even and odd parts both have a plus and
# a minus branch.
ROW_SUMS = [
    expsum((2, [0] * 60 + [1]), (3, [1])),
    expsum((2, [1] + [0] * 49 + [1]), (3, [1])),
    expsum((5, [1, 0, 0, 0, 2, 0, 0, 3]), (7, [0, 0, 4, 0, 0, 0, 0, 0, 1])),
    expsum((7, [3, 0, 0, 0, -1, 0, 0, 0, 0, 2]), (6, [0, 0, 0, 5]), (-5, [1, 0, 0, 0, 0, 0, 1])),
    expsum((11, [0, -90, 0, 1]), (10, [7])),
    expsum((5, [1, 0, 3]), (-5, [2, 0, 0, 1]), (3, [1])),
    expsum((9, [0, 0, 0, 1]), (-9, [-4, 0, 1]), (8, [0, 1, 0, 0, 0, 0, 2])),
]


def test_bisected_threshold_is_the_least_one():
    sums = [expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))] + ROW_SUMS
    rng = random.Random(607)
    while len(sums) < 60 + len(ROW_SUMS):
        terms = []
        for base in rng.sample([b for b in range(-13, 14) if b != 0], rng.randint(2, 3)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            coeffs[-1] = coeffs[-1] or 1
            terms.append((base, coeffs))
        sums.append(expsum(*terms))
    checked, parities = 0, set()
    for g in sums:
        for br in dominance_bound(g).branches:
            if br.kind == "ratio":
                assert (br.t1, br.tstar, br.threshold) == linear_thresholds(br)
                checked += 1
                parities.add((br.parity, br.direction))
    assert checked >= 100
    assert parities == {(p, d) for p in ("all", "even", "odd") for d in ("plus", "minus")}
    # the rows reach the lead test, sparse tails and a threshold in the thousands
    ratio = [br for g in ROW_SUMS for br in dominance_bound(g).branches if br.kind == "ratio"]
    assert max(br.t1 for br in ratio) > 1
    assert max(br.threshold for br in ratio) > 1000


def test_bracketed_probes_give_the_exact_thresholds(monkeypatch):
    # with _EXACT_BITS = 0 every probe of the threshold search runs on brackets first
    sums = ROW_SUMS + [expsum((101, [0] * k + [1]), (100, [1])) for k in (1, 3)]
    exact = [dominance_bound(g) for g in sums]
    monkeypatch.setattr(polyexp, "_EXACT_BITS", 0)
    settled, settle = [], polyexp._settled
    monkeypatch.setattr(polyexp, "_settled", lambda holds, t: settled.append(t) or settle(holds, t))
    assert [dominance_bound(g) for g in sums] == exact
    assert len(settled) > 200
    for cert in exact:
        for br in cert.branches:
            if br.kind == "ratio":
                assert (br.t1, br.tstar, br.threshold) == linear_thresholds(br)


def test_brackets_contain_the_exact_values():
    Bracket = polyexp._Bracket

    def holds(x, exact):
        return x.lo << x.e <= exact <= x.hi << x.e and x.hi.bit_length() <= polyexp._MANTISSA_BITS + 1

    rng = random.Random(615)
    for _ in range(300):
        a, b = rng.randint(0, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40))
        n = rng.randint(0, 3000)
        x = Bracket(a) * b ** Bracket(n) + Bracket(b) ** 7
        assert holds(x, a * b ** n + b ** 7)
        y = 3 + Bracket(n) * a
        assert holds(y, 3 + n * a)
        # a comparison is exact or refuses
        for left, right, want in ((x, y, a * b ** n + b ** 7 < 3 + n * a),
                                  (y, x, 3 + n * a < a * b ** n + b ** 7)):
            try:
                assert (left < right) == want
            except polyexp._Overlap:
                pass
    assert (Bracket(5) <= 5, Bracket(5) < 5, Bracket(5) < 6, Bracket(7) <= 6) == (True, False, True, False)
    with pytest.raises(polyexp._Overlap):
        Bracket(3) ** 200 < 3 ** 200  # equal sides, rounded: no answer


def test_ratio_tests_on_brackets_agree_with_ints():
    # every probe a bracket settles gets the exact answer
    settled = 0
    for g in ROW_SUMS + [expsum((101, [0, 0, 0, 1]), (100, [1]))]:
        for br in dominance_bound(g).branches:
            if br.kind != "ratio":
                continue
            tests = polyexp._ratio_tests(br.bases, br.coeffs)
            for t in sorted({1, 2, 3, br.t1, br.tstar, br.threshold - 1, br.threshold,
                             br.threshold + 1, 2 * br.threshold} - {0}):
                for test in tests:
                    try:
                        got = test(polyexp._Bracket(t))
                    except polyexp._Overlap:
                        continue
                    assert got == test(t), (br, t)
                    settled += 1
    assert settled > 200


def test_dominance_zero_sum_rejected():
    with pytest.raises(ValueError):
        dominance_bound(ExpSum([]))


def replace(cert, **changes):
    """cert rebuilt through its constructor with some fields changed."""
    return type(cert)(**{**vars(cert), **changes})


def with_branch(cert, i, **changes):
    """cert with its i-th branch changed."""
    branches = list(cert.branches)
    branches[i] = replace(branches[i], **changes)
    return replace(cert, branches=tuple(branches))


def test_verify_dominance_rejects_tampering():
    # printed example: two "ratio" branches with t1 = 4, tstar = 1, T = 4
    g = expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))
    cert = dominance_bound(g)
    plus = cert.branches[0]
    assert verify_dominance(g, cert) and plus.kind == "ratio"
    other = expsum((6, [2, -1, 1]), (35, [2, 2]))
    assert not verify_dominance(other, cert)
    tampered = [
        replace(cert, s_plus=cert.s_plus - 2),
        with_branch(cert, 0, t1=plus.t1 - 1),
        with_branch(cert, 0, tstar=plus.tstar - 1),
        with_branch(cert, 0, threshold=plus.threshold - 1),
        with_branch(cert, 0, t1=plus.threshold + 1),
        with_branch(cert, 0, tstar=plus.threshold + 1),
        with_branch(cert, 0, kind="single"),
        with_branch(cert, 0, kind="linear"),
        with_branch(cert, 0, bases=(plus.bases[1], plus.bases[0]) + plus.bases[2:]),
        with_branch(cert, 0, coeffs=((plus.coeffs[0][0] + 1,) + plus.coeffs[0][1:],) + plus.coeffs[1:]),
        replace(cert, branches=cert.branches[:1]),
        replace(cert, branches=cert.branches + cert.branches[:1]),
        replace(cert, branches=(plus, plus)),
        replace(cert, zero_parities=("odd",)),
        replace(cert, s_minus=cert.s_minus - 1),
    ]
    for bad in tampered:
        assert not verify_dominance(g, bad), bad

    # s * 101^s + 100^s: the "minus" branch has tstar = 101 and T = 733,
    # above both, so lowering either meets its own inequality; the "plus"
    # branch has a constant tail, whose ratio test holds even at t = 0
    g = expsum((101, [0, 1]), (100, [1]))
    cert = dominance_bound(g)
    minus = cert.branches[1]
    assert (minus.direction, minus.tstar, minus.threshold) == ("minus", 101, 733)
    assert verify_dominance(g, cert)
    assert not verify_dominance(g, with_branch(cert, 0, tstar=0))
    assert not verify_dominance(g, with_branch(cert, 1, tstar=100))
    assert not verify_dominance(g, with_branch(cert, 1, threshold=732))

    # (s - 6) * 2^s + (s - 6) * (-2)^s: zero at every odd s, and the even
    # "plus" branch 2 * (2t - 6) * 4^t is "single" with its root t = 3
    g = expsum((2, [-6, 1]), (-2, [-6, 1]))
    cert = dominance_bound(g)
    even = cert.branches[0]
    assert cert.zero_parities == ("odd",)
    assert (even.parity, even.direction, even.kind, even.threshold) == ("even", "plus", "single", 3)
    assert verify_dominance(g, cert)
    assert not verify_dominance(g, with_branch(cert, 0, threshold=2))
    assert not verify_dominance(g, with_branch(cert, 0, kind="ratio"))
    assert not verify_dominance(g, replace(cert, zero_parities=()))


def test_parity_split_with_sign_collision():
    # 2^s + (-2)^s vanishes at every odd s
    g = expsum((2, [1]), (-2, [1]))
    res = decide_constant_solution(g)
    assert res.status == "FOUND"
    assert res.witness == 1
    assert "odd" in res.families


def test_even_family():
    # 2^s - (-2)^s vanishes at every even s
    g = expsum((2, [1]), (-2, [-1]))
    res = decide_constant_solution(g)
    assert res.status == "FOUND"
    assert res.witness == 0
    assert "even" in res.families


def test_identically_zero_sum():
    g = ExpSum([(2, UniPoly([Fraction(1)])), (2, UniPoly([Fraction(-1)]))])
    assert g.is_zero()
    res = decide_constant_solution(g)
    assert res.status == "FOUND"
    assert res.witness == 0
    assert "all" in res.families


# --- modular certificates -----------------------------------------------------------------


def test_modular_certificate_examples():
    # 4^s + 2 is 3 or 1 mod 5 depending on parity
    g = expsum((4, [2])).terms  # ensure cleared ints
    g = expsum((4, [1]))
    g = ExpSum([(4, UniPoly([Fraction(1)])), (1, UniPoly([Fraction(2)]))])
    cert = modular_certificate_search(g)
    assert (cert.modulus, cert.period, cert.residues) == (5, 2, (3, 1))
    assert verify_modular(g, cert)
    # 2^s is 1 or 2 mod 3
    g2 = expsum((2, [1]))
    cert2 = modular_certificate_search(g2)
    assert (cert2.modulus, cert2.period, cert2.residues) == (3, 2, (1, 2))


def walk_residues(g, M, start, count):
    """g(start), ..., g(start + count - 1) mod M, read from the walk."""
    return [v % M for v in islice(polyexp._walk(polyexp._horner(g.int_terms), M, start), count)]


def test_residues_match_exact_values():
    # the walk must give g(s) mod m at every s, also when the range
    # starts late or is shorter than m
    rng = random.Random(11)
    for _ in range(60):
        g = expsum(*[
            (b, [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))])
            for b in rng.sample([-7, -5, -3, -2, 2, 3, 5, 7, 11], rng.randint(1, 3))
        ])
        m = rng.choice([5, 13, 17, 19, 23, 29, 31])
        start, count = rng.randint(0, 90), rng.randint(0, 70)
        want = [int(g.eval(s)) % m for s in range(start, start + count)]
        assert walk_residues(g, m, start, count) == want


# a modulus of 1,989 bits, far beyond any word size
LCM_2000 = lcm(*range(2, 1390))


sparse_terms = st.lists(
    st.tuples(
        st.integers(-13, 13).filter(bool),
        # sparse coefficients, from small degrees up to 10,000
        st.dictionaries(st.integers(0, 12) | st.integers(0, 10_000), st.integers(-50, 50), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    terms=sparse_terms,
    M=st.sampled_from([2, 3, 5, 7, 11, 13, 29, 31]) | st.just(polyexp._SCAN_MODULUS) | st.just(LCM_2000),
    start=st.integers(0, 60),
    count=st.integers(1, 3),
)
def test_walk_matches_exact_values(terms, M, start, count):
    g = ExpSum([
        (b, UniPoly([Fraction(coeffs.get(e, 0)) for e in range(max(coeffs) + 1)]))
        for b, coeffs in terms
    ])
    want = [int(g.eval(s)) % M for s in range(start, start + count)]
    assert walk_residues(g, M, start, count) == want


def test_search_charges_its_steps_per_modulus(monkeypatch):
    # every modulus shows a zero of (s^2 - 13)(s^2 - 17)(s^2 - 221) 2^s; for
    # each odd m <= 20 the search walks the order of 2 modulo m, then the
    # residues up to the first zero: 90 steps in all
    g = expsum((2, [-48841, 0, 6851, 0, -251, 0, 1]))
    walked = 0
    for m in range(3, 21, 2):
        walked += next(k for k in count(1) if pow(2, k, m) == 1)
        walked += next(s for s in count() if int(g.eval(s)) % m == 0) + 1
    assert walked == 90
    monkeypatch.setattr(polyexp, "_SEARCH_STEPS", walked - 1)
    with pytest.raises(BudgetExceeded, match="step budget of 89 walk steps with modulus 19 still open"):
        modular_certificate_search(g, 20)
    monkeypatch.setattr(polyexp, "_SEARCH_STEPS", walked)
    assert modular_certificate_search(g, 20) is None
    # decide_constant_solution keeps its verdict: the window scan decides it
    g = ExpSum([(4, UniPoly([Fraction(1)])), (1, UniPoly([Fraction(2)]))])
    res = decide_constant_solution(g)
    assert (res.status, res.modular.modulus) == ("NONE", 5)
    assert res.note == "modular certificate proves no integer zero exists; window not scanned"
    monkeypatch.setattr(polyexp, "_SEARCH_STEPS", 0)
    res = decide_constant_solution(g)
    assert (res.status, res.window, res.modular) == ("NONE", (-1, 2), None)
    assert res.note == "window scanned exhaustively; no integer zero exists"


def test_period_filter_draws_from_the_step_budget(monkeypatch):
    # no modulus of period <= 4 certifies 16*7^s + 25*10^s - 29; a period
    # <= W needs m | 7^k - 1 for some k <= W, so the filter stops at
    # 7^4 + 1 = 2402; with W = 8, 7^8 + 1 is above 5 * 10^6, and with
    # constant coefficients m_max is not capped by the window either, so
    # the period filter would walk the orders of every modulus up to there
    g = expsum((7, [16]), (10, [25]), (1, [-29]))
    start = time.perf_counter()
    assert modular_certificate_search(g, 10 ** 7, max_period=4) is None
    # with W = 9, modulus 999 (period 9) is found long before the budget
    assert modular_certificate_search(g, 10 ** 7, max_period=9).modulus == 999
    with pytest.raises(BudgetExceeded, match="walk steps filtering modulus"):
        modular_certificate_search(g, 10 ** 7, max_period=8)
    monkeypatch.setattr(polyexp, "_SEARCH_STEPS", 1 << 18)
    with pytest.raises(BudgetExceeded, match="walk steps filtering modulus"):
        modular_certificate_search(g, 10 ** 7, max_period=8)
    res = decide_constant_solution(g, m_max=10 ** 7)
    assert time.perf_counter() - start < 2
    assert (res.status, res.window, res.modular) == ("NONE", (-1, 2), None)
    # the filter and the walk share one budget: certify's full search finds 53
    assert modular_certificate_search(g).modulus == 53


def test_modular_period_includes_modulus_for_nonconstant_coeffs():
    # s * 2^s mod 5: base order 4, full period lcm(4, 5) = 20
    g = expsum((2, [0, 1]))
    cert = modular_certificate_search(g)
    if cert is not None:
        assert cert.period % cert.modulus == 0


def test_verify_modular_rejects_tampering():
    g = ExpSum([(4, UniPoly([Fraction(1)])), (1, UniPoly([Fraction(2)]))])
    cert = modular_certificate_search(g)
    bad = replace(cert, residues=(3, 2))
    assert not verify_modular(g, bad)
    bad2 = replace(cert, period=4)
    assert not verify_modular(g, bad2)


def test_modular_requires_coprimality():
    # base 6 rules out moduli sharing a factor with 6
    g = expsum((6, [1]), (1, [5]))
    cert = modular_certificate_search(g, 50)
    if cert is not None:
        from math import gcd
        assert gcd(cert.modulus, 6) == 1


# --- the decision -----------------------------------------------------------------


def test_decide_against_brute_force():
    rng = random.Random(603)
    for _ in range(150):
        m = rng.randint(1, 3)
        terms = []
        for _ in range(m):
            base = rng.choice([b for b in range(-13, 14) if b != 0])
            deg = rng.randint(0, 3)
            coeffs = [rng.randint(-9, 9) for _ in range(deg + 1)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            terms.append((base, UniPoly([Fraction(c) for c in coeffs])))
        g = ExpSum(terms)
        res = decide_constant_solution(g)
        brute = [] if g.is_zero() else [s for s in range(-64, 65) if g.eval(s) == 0]
        if g.is_zero():
            assert res.status == "FOUND"
        elif res.status == "NONE":
            assert brute == []
        else:
            assert g.eval(res.witness) == 0
        if res.dominance is not None:
            assert verify_dominance(g, res.dominance)
        if res.modular is not None:
            assert verify_modular(g, res.modular)


def fraction_eval(g, s):
    """g(s) on Fractions, from the UniPoly terms, apart from ExpSum.eval."""
    return sum((Fraction(b) ** s * p.eval(s) for b, p in g.terms), Fraction(0))


def fraction_scan(g, lo, hi):
    return [s for s in range(lo, hi + 1) if fraction_eval(g, s) == 0]


def planted_sum(rng, s0):
    """A random sum with a zero planted at s0: the last term cancels the rest there."""
    bases = rng.sample([b for b in range(-13, 14) if b != 0], rng.randint(2, 4))
    terms = []
    for base in bases[:-1]:
        terms.append((base, UniPoly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 4))])))
    rest = sum((Fraction(b) ** s0 * p.eval(s0) for b, p in terms), Fraction(0))
    last = bases[-1]
    free = UniPoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))])
    tail = free * UniPoly([Fraction(-s0), Fraction(1)]) + UniPoly([-rest / Fraction(last) ** s0])
    return ExpSum(terms + [(last, tail)])


def test_window_scan_matches_fraction_scan():
    rng = random.Random(611)
    sums = []
    for _ in range(120):  # random sums, negative bases included
        terms = []
        for _ in range(rng.randint(1, 4)):
            base = rng.choice([b for b in range(-13, 14) if b != 0])
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))]
            terms.append((base, UniPoly(coeffs)))
        sums.append(ExpSum(terms))
    for _ in range(60):  # a and -a in one sum: parity collisions
        a = rng.randint(2, 9)
        sign = rng.choice((1, -1))
        p = UniPoly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))])
        terms = [(a, p), (-a, p.scale(sign))]
        if rng.random() < 0.5:
            terms.append((rng.choice((3, 5, 7, 11)) * a, UniPoly([Fraction(rng.randint(-9, 9))])))
        sums.append(ExpSum(terms))
    for _ in range(80):  # zeros planted at negative and nonnegative s
        sums.append(planted_sum(rng, rng.randint(-12, 6)))
    sums += [expsum((2, [1]), (-2, [1])), expsum((2, [1]), (-2, [-1])),
             expsum((3, [1, 1]), (-3, [1, 1]), (9, [2]))]
    planted_negative = families = 0
    for g in sums:
        if g.is_zero():
            continue
        want = fraction_scan(g, -20, 20)
        assert _zeros_between(g, -20, 20) == want
        assert _zeros_between(g, -20, -3) == fraction_scan(g, -20, -3)
        assert _zeros_between(g, 2, 20) == fraction_scan(g, 2, 20)
        planted_negative += any(s < 0 for s in want)
        families += len(want) >= 10
    assert planted_negative >= 60 and families >= 3


def horner_compose(p, a, b):
    """p(a*w + b) by Horner's rule on UniPolys."""
    lin = UniPoly([b, a])
    out = UniPoly(())
    for c in reversed(p.coeffs):
        out = out * lin + UniPoly([c])
    return out


def reference_branch_pairs(g):
    """The branch sums of g built on UniPoly terms: the Taylor shifts by
    Horner composition, read as integers only at the end."""
    def ints(terms):
        return [(b, tuple(int(c) for c in p.coeffs)) for b, p in terms]

    abs_bases = [abs(b) for b, _ in g.terms]
    if len(set(abs_bases)) == len(abs_bases):
        parts = [("all", g.terms)]
    else:
        parts = [
            ("even", ExpSum((b * b, horner_compose(p, 2, 0)) for b, p in g.terms).terms),
            ("odd", ExpSum((b * b, horner_compose(p, 2, 1).scale(b)) for b, p in g.terms).terms),
        ]
    sums = {}
    for parity, terms in parts:
        if terms:
            total = 1
            for b, _ in terms:
                total *= abs(b)
            sums[(parity, "plus")] = ints(terms)
            sums[(parity, "minus")] = ints(
                ((total // abs(b)) * (1 if b > 0 else -1), horner_compose(p, -1, 0)) for b, p in terms
            )
    return sums, tuple(parity for parity, terms in parts if not terms)


@st.composite
def small_sums(draw):
    """Bases in +-13, a and -a both present half the time, degree <= 3."""
    bases = draw(st.lists(st.integers(-13, 13).filter(bool), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        a = draw(st.integers(1, 13))
        bases = [b for b in bases if abs(b) != a] + [a, -a]
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3)))
    return ExpSum(
        (b, UniPoly(draw(st.lists(coeff, min_size=1, max_size=4)))) for b in bases
    )


@settings(max_examples=150, deadline=None)
@given(small_sums())
def test_integer_form_matches_fraction_reference(g):
    assert g.int_terms == tuple((b, tuple(int(c) for c in p.coeffs)) for b, p in g.terms)
    assert all(fraction_eval(g, s) == g.eval(s) for s in range(-30, 31))
    if g.is_zero():
        return
    sums, zero_parities = polyexp._branch_pairs(g)
    assert ({k: list(v) for k, v in sums.items()}, zero_parities) == reference_branch_pairs(g)
    res = decide_constant_solution(g)
    if res.window is not None:
        lo, hi = res.window
        assert list(res.solutions_in_window) == fraction_scan(g, lo, hi)


def test_constant_solution_scan_reports_planted_zeros():
    # planting at s0 < 0 gives coefficients near |base|^-s0, and the window
    # grows with them; a window beyond MAX_WINDOW is UNKNOWN, never wrong
    rng = random.Random(613)
    found = 0
    for _ in range(40):
        s0 = rng.randint(-3, 8)
        g = planted_sum(rng, s0)
        if g.is_zero():
            continue
        res = decide_constant_solution(g)
        if res.status == "UNKNOWN":
            assert "MAX_WINDOW" in res.note
            continue
        assert res.status == "FOUND"
        found += 1
        if not res.families:
            assert s0 in res.solutions_in_window
            lo, hi = max(res.window[0], -300), min(res.window[1], 300)
            inside = [z for z in res.solutions_in_window if lo <= z <= hi]
            assert inside == fraction_scan(g, lo, hi)
    assert found >= 30


def test_large_degree_windows():
    g400 = diagonalize(parse_eq("x^400*2^x + 3^x = 0"))
    res = decide_constant_solution(g400)
    assert res.status == "NONE" and res.window == (-2, 8982)
    v = decide_polyexp_pr(parse_eq("x^2000*2^x + 3^x = 0"))
    assert v.status == "NOT_PR"
    assert v.result.status == "NONE" and v.result.window == (-2, 53726)


def test_window_beyond_the_cap_is_unknown(monkeypatch):
    g = expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))  # window [-4, 4]
    monkeypatch.setattr(polyexp, "MAX_WINDOW", 8)
    with pytest.raises(WindowTooWide):
        dominance_bound(g)
    res = decide_constant_solution(g)
    assert res.status == "UNKNOWN" and res.dominance is None and res.window is None
    assert "MAX_WINDOW = 8" in res.note
    v = decide_polyexp_pr(parse_eq(
        "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y + (x*y - z + 3)*11^x*13^y = 0"))
    assert v.status == "UNKNOWN"
    monkeypatch.setattr(polyexp, "MAX_WINDOW", 9)
    assert decide_constant_solution(g).status == "NONE"


def test_threshold_beyond_the_bit_cap_is_unknown(monkeypatch):
    g = expsum((101, [0, 0, 1]), (100, [1]))
    monkeypatch.setattr(polyexp, "MAX_THRESHOLD_BITS", 7 * 100)  # t <= 100 for base 101
    res = decide_constant_solution(g)
    assert res.status == "UNKNOWN"
    assert "MAX_THRESHOLD_BITS = 700" in res.note


def test_user_bound_gives_unknown_not_none():
    g = expsum((2, [1]), (3, [1]))  # never zero, but we only scan [-3, 3]
    res = decide_constant_solution(g, user_bound=3)
    assert res.status == "UNKNOWN"
    assert res.window == (-3, 3)
    assert res.dominance is None


def test_user_bound_beyond_the_window_cap_is_refused():
    # [-b, b] has 2b + 1 points: the largest bound within MAX_WINDOW = 2^20
    # is 2^19 - 1, and no scan of 10^8 points is started
    g = expsum((2, [1]), (3, [1]))
    res = decide_constant_solution(g, user_bound=(1 << 19) - 1)
    assert (res.status, res.window) == ("UNKNOWN", (1 - (1 << 19), (1 << 19) - 1))
    for bound in (1 << 19, 10 ** 8):
        with pytest.raises(ValueError, match="user bound %d spans more than "
                           "MAX_WINDOW = 1048576 points" % bound):
            decide_constant_solution(g, user_bound=bound)


def test_full_verdict_not_pr():
    eq = parse_eq(
        "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y"
        " + (x*y - z + 3)*11^x*13^y = 0"
    )
    v = decide_polyexp_pr(eq)
    assert v.status == "NOT_PR"
    assert v.hypothesis.trivial_for_all
    assert v.result.status == "NONE"


def test_full_verdict_pr_constant():
    v = decide_polyexp_pr(parse_eq("(x - 3)*2^x = 0"))
    assert v.status == "PR_CONSTANT"
    assert v.result.witness == 3


DEGENERATE_NOTE = ("pure polynomial system {P_k = 0} not analyzed; it may carry "
                   "solution families of its own")


def test_pure_polynomial_note_only_beyond_one_variable():
    # in one variable a common root of the P_k is a zero of the diagonal,
    # which the constant-solution decision already ruled out: no note
    # (a bench input at seed 101)
    v = decide_polyexp_pr(parse_eq("(5 + 6*x)*11^x + (-7 - 5*x - 8*x^2 + 2*x^3)*(-9)^x = 0"))
    assert (v.status, v.hypothesis.degenerate_possible) == ("NOT_PR", True)
    assert DEGENERATE_NOTE not in v.notes
    # in two variables the P_k may share zeros off the diagonal: the note stays
    v = decide_polyexp_pr(parse_eq("(x + y)*2^x*3^y + (x - y + 1)*5^x*7^y = 0"))
    assert (v.status, v.hypothesis.degenerate_possible) == ("NOT_PR", True)
    assert DEGENERATE_NOTE in v.notes


def test_hypothesis_failure_gives_unknown():
    # characters 2 and -2 agree at every even z, so the joint block has a
    # nontrivial G(P); the diagonal (s^2+3)*2^s + (-2)^s never vanishes,
    # which would mean NOT_PR if the hypothesis held
    v = decide_polyexp_pr(parse_eq("(x^2 + 3)*2^x + (-2)^x = 0"))
    assert v.status == "UNKNOWN"
    assert not v.hypothesis.trivial_for_all
    assert v.hypothesis.failing_partition is not None


def test_found_witness_beats_hypothesis_failure():
    # same character collision, but the diagonal (s^2-1)*2^s + (-2)^s
    # vanishes at s = 0: a constant solution proves PR outright
    v = decide_polyexp_pr(parse_eq("(x^2 - 1)*2^x + (-2)^x = 0"))
    assert v.status == "PR_CONSTANT"
    assert v.result.witness == 0


def test_incomplete_factorization_gives_unknown():
    p = 2_147_483_647
    term = PolyExpTerm(
        poly=MultiPoly.constant(("x",), Fraction(1)),
        characters=(p * p,),
    )
    term2 = PolyExpTerm(
        poly=MultiPoly.constant(("x",), Fraction(1)),
        characters=(3,),
    )
    eq = PolyExpEquation(variables=("x",), exp_vars=("x",), param_var=None, terms=(term, term2))
    v = decide_polyexp_pr(eq)
    assert v.status in ("UNKNOWN", "NOT_PR")


# --- the modular certificate search ------------------------------------------


def per_modulus_search(g, m_max, max_period=None):
    """A reference for modular_certificate_search, with residues computed
    by a plain Horner evaluation instead of the walk: one modulus at a
    time, each scanned until its first zero residue or its full period,
    skipping the moduli whose period exceeds `max_period`."""
    if g.is_zero():
        return None
    for m in range(2, m_max + 1):
        if any(gcd(base, m) != 1 for base, _ in g.terms):
            continue
        period = polyexp._modular_period(g, m)
        if max_period is not None and period > max_period:
            continue
        terms = [(base % m, [c % m for c in reversed(coeffs)]) for base, coeffs in g.int_terms]
        powers = [1] * len(terms)
        residues = []
        for s in range(period):
            total = 0
            for i, (base, rev_coeffs) in enumerate(terms):
                c = 0
                for coeff in rev_coeffs:
                    c = (c * (s % m) + coeff) % m
                total = (total + powers[i] * c) % m
                powers[i] = powers[i] * base % m
            if total == 0:
                break
            residues.append(total)
        else:
            return polyexp.ModularCertificate(modulus=m, period=period, residues=tuple(residues))
    return None


def random_modular_sums(rng, count):
    # negative bases, and bases sharing factors with many moduli
    bases = [b for b in range(-13, 14) if b != 0] + [6, -10, 12, 30, -42, 210, 2310]
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            terms.append((rng.choice(bases), UniPoly([Fraction(c) for c in coeffs])))
        g = ExpSum(terms)
        if not g.is_zero():
            yield g


@pytest.mark.parametrize("m_max", [2, 3, 10, 200])
def test_search_matches_horner_reference(m_max):
    rng = random.Random(6100 + m_max)
    found = none = 0
    for g in random_modular_sums(rng, 80):
        cert = modular_certificate_search(g, m_max)
        assert cert == per_modulus_search(g, m_max), g
        if cert is None:
            none += 1
        else:
            found += 1
            assert verify_modular(g, cert)
    assert none > 0
    if m_max > 2:
        assert found > 0


def lcm_of_orders(g, m):
    """Period of g mod m: the lcm of the base orders, with m for a non-constant coefficient."""
    period = m if any(poly.degree >= 1 for _, poly in g.terms) else 1
    for base, _ in g.terms:
        order = 1
        while pow(base, order, m) != 1:
            order += 1
        period = lcm(period, order)
    return period


@pytest.mark.parametrize("cap", [None, 1, 5, 50])
def test_modular_period_matches_lcm_of_orders(cap):
    rng = random.Random(6300)
    within = beyond = 0
    for g in random_modular_sums(rng, 40):
        for m in range(2, 40):
            if any(gcd(base, m) != 1 for base, _ in g.terms):
                continue
            period = lcm_of_orders(g, m)
            if cap is None or period <= cap:
                assert polyexp._modular_period(g, m, cap) == period, (g, m)
                within += 1
            else:
                assert polyexp._modular_period(g, m, cap) is None, (g, m)
                beyond += 1
    assert within > 0
    assert (beyond > 0) == (cap is not None)


def test_search_stops_at_the_first_certificate():
    # 2^s + 3^s + 5 is certified by modulus 11; the search stops there and
    # never reads the moduli up to 10^9
    g = expsum((2, [1]), (3, [1]), (1, [5]))
    cert = modular_certificate_search(g, 10**9)
    assert cert == modular_certificate_search(g, 200) == per_modulus_search(g, 200)
    assert cert.modulus == 11


@pytest.mark.parametrize("m_max", [10 ** 4, 10 ** 5, 10 ** 7])
def test_capped_answer_does_not_depend_on_the_cap(m_max):
    # 16*7^s + 25*10^s - 29 has its least certificate of period <= 9 at
    # modulus 999; the moduli above it, up to 7^9 + 1, are never filtered
    g = expsum((7, [16]), (10, [25]), (1, [-29]))
    cert = modular_certificate_search(g, m_max, max_period=9)
    assert (cert.modulus, cert.period) == (999, 9)
    assert cert == per_modulus_search(g, 1000, max_period=9)


def test_search_finds_known_certificates():
    # 2^s + 3^s + ... + 23^s: every modulus below 29 shares a prime with a
    # base or has a zero; 29 survives its period
    g = ExpSum([(p, UniPoly([Fraction(1)])) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)])
    cert = modular_certificate_search(g)
    assert cert == per_modulus_search(g, 200)
    assert cert.modulus == 29
    # a sum with a zero has no certificate at any cap
    assert modular_certificate_search(expsum((2, [-1]), (4, [1]))) is None


@pytest.mark.parametrize("m_max", [2, 10, 50, 200])
def test_decide_certificate_is_the_least_within_the_window(m_max):
    # decide's certificate is the per-modulus search restricted to periods
    # at most the window width W; some sums lose a longer one
    rng = random.Random(6200 + m_max)
    found = dropped = 0
    for g in random_modular_sums(rng, 150):
        res = decide_constant_solution(g, m_max=m_max)
        if res.status != "NONE":
            assert res.modular is None
            continue
        width = res.window[1] - res.window[0] + 1
        assert res.modular == per_modulus_search(g, m_max, max_period=width), g
        if res.modular is None:
            dropped += modular_certificate_search(g, m_max) is not None
        else:
            found += 1
            assert res.modular.period <= width
            assert verify_modular(g, res.modular)
    assert found > 0 and dropped > 0


def test_decide_certificate_changes_with_the_window():
    # 20*9^s + 21*8^s - 19: the window [-1, 7] has 9 points, so the least
    # certificate, modulus 23 with period 11, gives way to 73 with period 6
    g = expsum((9, [20]), (8, [21]), (1, [-19]))
    full = modular_certificate_search(g)
    assert (full.modulus, full.period) == (23, 11)
    res = decide_constant_solution(g)
    assert (res.status, res.window) == ("NONE", (-1, 7))
    assert (res.modular.modulus, res.modular.period) == (73, 6)
    assert res.modular == per_modulus_search(g, 200, max_period=9)
    assert decide_constant_solution(g, m_max=72).modular is None


@pytest.mark.parametrize("width", [1, 2, 3, 5, 7])
def test_period_filter_cap_keeps_every_certificate(width):
    # a period <= W caps the moduli at min |b|^W + 1 over the bases with
    # |b| >= 2, below 200 here for the bases up to 2 (W <= 7) or 13 (W <= 2);
    # the capped search still returns the per-modulus search's certificate
    rng = random.Random(6400 + width)
    capped = found = 0
    for g in random_modular_sums(rng, 80):
        cert = modular_certificate_search(g, 200, max_period=width)
        assert cert == per_modulus_search(g, 200, max_period=width), g
        bases = [abs(b) for b, _ in g.int_terms if abs(b) >= 2]
        capped += bool(bases) and min(bases) ** width + 1 < 200
        found += cert is not None
    assert capped > 0 and found > 0


def test_period_filter_stops_at_the_power_cap():
    # 2^s - 2 vanishes at s = 1, so every modulus shows a zero; a modulus
    # of period <= 9 divides 2^k - 1 for some k <= 9, so none above 2^9 + 1
    # is filtered, where the filter used to walk on to the step budget
    # (at modulus 52,439)
    g = expsum((2, [1]), (1, [-2]))
    start = time.perf_counter()
    assert modular_certificate_search(g, 10 ** 9, max_period=9) is None
    assert time.perf_counter() - start < 0.5
    # a width past m_max's bit length forms no power: the filter runs to
    # the step budget, as without the cap
    with pytest.raises(BudgetExceeded, match="walk steps filtering modulus"):
        modular_certificate_search(g, 10 ** 9, max_period=1 << 20)


def scan_first(g, m_max=200):
    """decide_constant_solution's fields in its former order: the window
    scan first, then the search for a certificate of period <= W."""
    cert = dominance_bound(g)
    window = (-cert.s_minus, cert.s_plus)
    zeros = _zeros_between(g, *window)
    families = cert.zero_parities
    if zeros or families:
        reps = [0 if f in ("all", "even") else 1 for f in families]
        witness = min(zeros + reps, key=lambda w: (abs(w), w < 0))
        return ("FOUND", witness, tuple(zeros), families, window, cert, None)
    try:
        modular = modular_certificate_search(g, m_max, max_period=window[1] - window[0] + 1)
    except BudgetExceeded:
        modular = None
    return ("NONE", None, (), (), window, cert, modular)


def certify_first_scan(g, m_max=200):
    """certify's (certificate, note) in its former order: the dominance
    window scanned first, then the full search up to m_max."""
    status, witness = scan_first(g)[:2]
    if status == "FOUND":
        return None, "g(%s) = 0, so no modulus certifies the sum nonvanishing" % witness
    try:
        cert = modular_certificate_search(g, m_max)
    except BudgetExceeded as e:
        return None, "%s; absence proves nothing" % e
    return cert, "no modulus up to the cap certifies the sum nonvanishing; absence proves nothing"


def search_first_sums(rng):
    """Random sums: bases in +-13, pairs a and -a, degree <= 3, and zeros
    planted on both sides of 0."""
    bases = [b for b in range(-13, 14) if b != 0]
    for _ in range(170):
        yield ExpSum([(rng.choice(bases), [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
                      for _ in range(rng.randint(1, 4))])
    for _ in range(60):
        a = rng.randint(2, 13)
        p = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        terms = [(a, p), (-a, [rng.choice((1, -1)) * c for c in p])]
        if rng.random() < 0.5:
            terms.append((rng.choice(bases), [rng.randint(-9, 9)]))
        yield ExpSum(terms)
    for _ in range(100):
        yield planted_sum(rng, rng.randint(-4, 6))


def test_search_first_matches_scan_first():
    # decide's fields, and certify's certificate and note, as in the
    # scan-first order
    rng = random.Random(2602)
    seen = dict.fromkeys(("certified", "scanned", "found_negative", "found_nonnegative", "families",
                          "certify_below_decide"), 0)
    total = 0
    for g in search_first_sums(rng):
        if g.is_zero():
            continue
        res = decide_constant_solution(g)
        if res.status == "UNKNOWN":
            continue
        total += 1
        fields = (res.status, res.witness, res.solutions_in_window, res.families,
                  res.window, res.dominance, res.modular)
        assert fields == scan_first(g), g
        cert, note = cli._least_certificate(g, 200)
        assert (cert, note) == certify_first_scan(g), g
        seen["certify_below_decide"] += bool(res.modular and cert.modulus < res.modular.modulus)
        if res.status == "NONE" and res.modular is not None:
            assert _zeros_between(g, *res.window) == []
            seen["certified"] += res.note.startswith("modular certificate proves")
        elif res.status == "NONE":
            seen["scanned"] += res.note == "window scanned exhaustively; no integer zero exists"
        elif res.families:
            seen["families"] += 1
        else:
            seen["found_negative" if res.witness < 0 else "found_nonnegative"] += 1
    assert total >= 300 and min(seen.values()) >= 5, (total, seen)


# --- report JSON of the certificates -------------------------------------------
# The hand-written converters the report fields were read by before
# cli._record_json; the reports must keep their text and key order.


def reference_dominance_json(cert):
    return {
        "s_plus": _num(cert.s_plus),
        "s_minus": _num(cert.s_minus),
        "zero_parities": list(cert.zero_parities),
        "branches": [
            {
                "parity": br.parity,
                "direction": br.direction,
                "bases": [_num(b) for b in br.bases],
                "coeffs": [[_num(c) for c in cs] for cs in br.coeffs],
                "kind": br.kind,
                "threshold": _num(br.threshold),
                "t1": _num(br.t1),
                "tstar": _num(br.tstar),
            }
            for br in cert.branches
        ],
    }


def reference_modular_json(cert):
    return {
        "modulus": _num(cert.modulus),
        "period": _num(cert.period),
        "residues": [_num(r) for r in cert.residues],
    }


def reference_constant_result_json(res):
    out = {
        "status": res.status,
        "witness": None if res.witness is None else _num(res.witness),
        "solutions_in_window": [_num(s) for s in res.solutions_in_window],
        "families": list(res.families),
        "window": None if res.window is None else [_num(res.window[0]), _num(res.window[1])],
    }
    if res.note:
        out["note"] = res.note
    return out


def reference_hypothesis_json(h):
    failing = None
    if h.failing_partition is not None:
        failing = [[i + 1 for i in block] for block in h.failing_partition]
    return {
        "checked_partitions": _num(h.checked_partitions),  # a raw int before
        "trivial_for_all": h.trivial_for_all,
        "failing_partition": failing,
        "coprime": h.coprime,
        "unit_entry_warning": h.unit_entry_warning,
        "degenerate_possible": h.degenerate_possible,
    }


def test_record_json_matches_the_hand_written_converters():
    rng = random.Random(2602)
    kinds = dict.fromkeys(("dominance", "modular", "certify", "note", "no_note"), 0)
    for g in search_first_sums(rng):
        if g.is_zero():
            continue
        res = decide_constant_solution(g)
        certificates = {}
        got = cli._constant_result_json(res, certificates)
        assert json.dumps(got) == json.dumps(reference_constant_result_json(res)), g
        want = {}
        if res.dominance is not None:
            want["dominance"] = reference_dominance_json(res.dominance)
            assert cli._record_json(res.dominance) == want["dominance"]
        if res.modular is not None:
            want["modular"] = reference_modular_json(res.modular)
        assert json.dumps(certificates) == json.dumps(want), g
        full = modular_certificate_search(g)
        if full is not None:
            assert json.dumps(cli._record_json(full)) == json.dumps(reference_modular_json(full))
            kinds["certify"] += 1
        kinds["dominance"] += "dominance" in want
        kinds["modular"] += "modular" in want
        kinds["note" if res.note else "no_note"] += 1
    assert min(kinds.values()) >= 5, kinds


@pytest.mark.parametrize(
    "text",
    [
        "2^x + 3^x = 5^x",
        "(x^2 + 3)*2^x + (-2)^x = 0",
        "2^x + 2^y = 2^z",
        "(x^2 - 7)*2^x + (x + 1)*(-2)^x + 3^x = 0",
        "x*2^x + 4^x + 2*6^x + 3*(-6)^x = 0",
        " + ".join("%d^x" % p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                           47, 53, 59, 61, 67, 71, 73, 79, 83)) + " = 0",
    ],
)
def test_hypothesis_json_matches_the_hand_written_converter(text):
    h = check_hypothesis(parse_eq(text))
    assert json.dumps(cli._hypothesis_json(h)) == json.dumps(reference_hypothesis_json(h))


def test_search_first_sum_with_a_zero():
    # the search finds no certificate, so the window scan finds the zero -7
    g = diagonalize(parse_eq("(x + 7)*x^200*2^x + (x + 7)*3^x = 0"))
    res = decide_constant_solution(g)
    assert (res.status, res.witness, res.window, res.modular) == ("FOUND", -7, (-14, 4106), None)


# --- the hypothesis, pair by pair ---------------------------------------------


def hypothesis_by_partitions(chars):
    """The walk check_hypothesis replaced: every partition with a pair block."""
    for partition in enumerate_partitions(len(chars)):
        if any(len(block) > 1 for block in partition):
            if not character_group_trivial(chars, partition):
                return False
    return True


def constant_equation(chars):
    n = len(chars[0])
    names = ("x", "y")[:n]
    terms = tuple(
        PolyExpTerm(poly=MultiPoly.constant(names, Fraction(1)), characters=c)
        for c in chars
    )
    return PolyExpEquation(variables=names, exp_vars=names, param_var=None, terms=terms)


def test_pair_check_matches_partition_walk():
    # entries with +-a collisions and shared primes
    entries = [-12, -6, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 9, 12]
    rng = random.Random(612)
    outcomes = set()
    for _ in range(120):
        n = rng.randint(1, 2)
        m = rng.randint(1, 6)
        chars = list({tuple(rng.choice(entries) for _ in range(n)) for _ in range(m)})
        rng.shuffle(chars)
        report = check_hypothesis(constant_equation(chars))
        expected = hypothesis_by_partitions(chars)
        assert report.trivial_for_all == expected, chars
        assert report.checked_partitions == bell_number(len(chars)) - 1
        outcomes.add(expected)
        if expected:
            assert report.failing_partition is None
            continue
        # the first failing pair, as its partition, blocks by least element
        pairs = [block for block in report.failing_partition if len(block) > 1]
        assert len(pairs) == 1 and len(pairs[0]) == 2
        assert sorted(i for block in report.failing_partition for i in block) == list(range(len(chars)))
        assert list(report.failing_partition) == sorted(report.failing_partition)
        assert not character_group_trivial(chars, report.failing_partition)
        i, j = pairs[0]
        for a in range(len(chars)):
            for b in range(a + 1, len(chars)):
                if (a, b) < (i, j):
                    assert character_group_trivial(chars, ((a, b),))
    assert outcomes == {True, False}


def test_failing_pair_is_reported_as_its_partition():
    # 2 and -2 agree at every even z; 3 is independent of both
    report = check_hypothesis(constant_equation([(3,), (2,), (-2,)]))
    assert not report.trivial_for_all
    assert report.failing_partition == ((0,), (1, 2))
    assert report.checked_partitions == 4


def test_hypothesis_factors_each_entry_once(monkeypatch):
    # 10 pair checks over two exponent variables share one factorization per |entry|
    calls = []
    factor = polyexp.factor_integer
    monkeypatch.setattr(polyexp, "factor_integer", lambda n, *a: calls.append(n) or factor(n, *a))
    chars = [(2, 3), (4, -5), (6, 7), (9, 10), (-12, 2)]
    report = check_hypothesis(constant_equation(chars))
    assert report.trivial_for_all
    assert sorted(calls) == sorted({abs(b) for c in chars for b in c})


def test_one_variable_hypothesis_factors_nothing(monkeypatch):
    # 36 pair checks over 9 bases compare absolute values only
    def refuse(*args):
        raise AssertionError("one exponent variable needs no factoring or rank")

    monkeypatch.setattr(polyexp, "factor_integer", refuse)
    monkeypatch.setattr(polyexp, "matrix_rank", refuse)
    bases = (2, 3, 4, -5, 6, 7, 9, 10, -12)
    report = check_hypothesis(parse_eq(" + ".join(("(%d)^x" if b < 0 else "%d^x") % b for b in bases) + " = 0"))
    assert report.trivial_for_all
    assert report.checked_partitions == bell_number(9) - 1 == 21146
    assert report.failing_partition is None


def test_one_variable_hypothesis_matches_pair_checks():
    # one character check per audit gives the verdicts of character_group_trivial pair by pair
    entries = [-13, -12, -6, -3, -2, -1, 1, 2, 3, 6, 12, 13]
    rng = random.Random(618)
    outcomes = set()
    for _ in range(300):
        chars = [(a,) for a in rng.sample(entries, rng.randint(1, 7))]
        report = check_hypothesis(constant_equation(chars))
        pairs = [(i, j) for i in range(len(chars)) for j in range(i + 1, len(chars))]
        failing = [p for p in pairs if not character_group_trivial(chars, (p,))]
        assert report.trivial_for_all == (not failing)
        if failing:
            i, j = failing[0]
            assert report.failing_partition == tuple(sorted(
                [(i, j)] + [(k,) for k in range(len(chars)) if k not in (i, j)]))
        outcomes.add(report.trivial_for_all)
    assert outcomes == {True, False}
    # +-1 agree in absolute value, so do a and -a; the first such pair is named
    for chars, partition in (([(1,), (2,), (-1,), (3,)], ((0, 2), (1,), (3,))),
                             ([(5,), (-7,), (3,), (7,), (-5,)], ((0, 4), (1,), (2,), (3,))),
                             ([(2,), (3,), (-3,)], ((0,), (1, 2))),
                             ([(-1,), (2,), (3,)], None)):
        assert check_hypothesis(constant_equation(chars)).failing_partition == partition


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(1, 10 ** 6) | st.just(1),
    b=st.integers(1, 10 ** 6) | st.just(1) | st.none(),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
)
def test_one_variable_pair_check_matches_valuations(a, b, signs):
    # b = None stands for |b| = |a|, so pairs a, -a and a, a are drawn often
    a, b = signs[0] * a, signs[1] * (a if b is None else b)
    va, vb = (dict(factor_integer(abs(x))[1]) for x in (a, b))
    row = [va.get(p, 0) - vb.get(p, 0) for p in sorted({*va, *vb})]
    assert character_group_trivial([(a,), (b,)], ((0, 1),)) == any(row)


@pytest.mark.parametrize("count", [9, 12])
def test_many_bases_decided_quickly(count):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)[:count]
    eq = parse_eq(" + ".join("%d^x" % p for p in primes) + " = 0")
    start = time.perf_counter()
    v = decide_polyexp_pr(eq)
    assert time.perf_counter() - start < 1.0
    assert v.status == "NOT_PR"
    assert v.hypothesis.checked_partitions == bell_number(count) - 1
    # decide prints no certificate longer than its window; certify's full search finds one
    assert verify_modular(v.diagonal, modular_certificate_search(v.diagonal))


# --- one-term sums ------------------------------------------------------------


def test_one_term_sum_far_root():
    v = decide_polyexp_pr(parse_eq("(x - 1000000000)*2^x = 0"))
    assert v.status == "PR_CONSTANT"
    assert v.result.witness == 10 ** 9
    assert v.result.solutions_in_window == (10 ** 9,)
    assert v.result.window == (0, 10 ** 9)
    assert verify_dominance(v.diagonal, v.result.dominance)
    g = expsum((-3, [10 ** 9, 1]), (1, [0]))  # (s + 10^9) * (-3)^s
    res = decide_constant_solution(g)
    assert (res.status, res.witness, res.window) == ("FOUND", -10 ** 9, (-10 ** 9, 0))


def test_one_term_sums_match_the_scan():
    rng = random.Random(613)
    for _ in range(150):
        base = rng.choice([b for b in range(-13, 14) if b != 0])
        roots = [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))]
        poly = UniPoly([Fraction(rng.choice([-3, -1, 1, 2]))])
        for r in roots:
            poly = poly * UniPoly([Fraction(-r), Fraction(1)])
        if rng.random() < 0.3:
            poly = poly * UniPoly([Fraction(1), Fraction(0), Fraction(1)])  # s^2 + 1: no root
        g = ExpSum([(base, poly)])
        res = decide_constant_solution(g)
        lo, hi = res.window
        assert list(res.solutions_in_window) == fraction_scan(g, lo, hi)
        assert fraction_scan(g, -25, 25) == sorted(set(roots))
        assert res.status == ("FOUND" if roots else "NONE")


# --- sparse absolute evaluation -----------------------------------------------


def test_sparse_abs_rows_match_dense_horner():
    def dense(coeffs, t):
        total = 0
        for c in reversed(coeffs):
            total = total * t + abs(c)
        return total

    def rows_at(coeffs, t, base=1):
        return polyexp._sum_at(polyexp._horner([(base, coeffs)], True), t)

    rng = random.Random(614)
    for _ in range(200):
        coeffs = [rng.choice([0, 0, 0, rng.randint(-50, 50)]) for _ in range(rng.randint(1, 40))]
        for t in (0, 1, 2, rng.randint(3, 1000), 10 ** 12):
            assert rows_at(coeffs, t) == dense(coeffs, t)
        # signed rows, and |base|^t on absolute rows
        for t in (0, 1, rng.randint(2, 100)):
            assert polyexp._sum_at(polyexp._horner([(-3, coeffs)]), t) == (
                sum(c * t ** e for e, c in enumerate(coeffs)) * (-3) ** t)
            assert rows_at(coeffs, t, -3) == dense(coeffs, t) * 3 ** t
    monomial = (0,) * 5000 + (-7,)
    assert rows_at(monomial, 3) == dense(monomial, 3) == 7 * 3 ** 5000
    # one step per gap: 7 t^5000 and 7 t^5001 + 1
    assert polyexp._horner([(2, monomial)], True) == [(2, 7, [(5000, 0)])]
    assert polyexp._horner([(2, (1,) + monomial)], True) == [(2, 7, [(5001, 1)])]
