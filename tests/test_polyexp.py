"""Polyexponential equations: diagonalization, dominance and modular
certificates, the constant-solution decision, and the PR verdict.

Frozen threshold values (t1, tstar, T) were computed by hand from the
defining inequalities before the search code existed.
"""

import dataclasses
import random
import time
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtoolkit.algebra import IncompleteFactorization, MultiPoly, UniPoly
from prtoolkit.equations import classify, parse_equation_text
from prtoolkit import polyexp
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


def test_bisected_threshold_is_the_least_one():
    sums = [expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))]
    rng = random.Random(607)
    while len(sums) < 60:
        terms = []
        for base in rng.sample([b for b in range(-13, 14) if b != 0], rng.randint(2, 3)):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            coeffs[-1] = coeffs[-1] or 1
            terms.append((base, coeffs))
        sums.append(expsum(*terms))
    checked = 0
    for g in sums:
        for br in dominance_bound(g).branches:
            if br.kind == "ratio":
                assert (br.t1, br.tstar, br.threshold) == linear_thresholds(br)
                checked += 1
    assert checked >= 100


def test_dominance_zero_sum_rejected():
    with pytest.raises(ValueError):
        dominance_bound(ExpSum([]))


def with_branch(cert, i, **changes):
    """cert with its i-th branch changed."""
    branches = list(cert.branches)
    branches[i] = dataclasses.replace(branches[i], **changes)
    return dataclasses.replace(cert, branches=tuple(branches))


def test_verify_dominance_rejects_tampering():
    # printed example: two "ratio" branches with t1 = 4, tstar = 1, T = 4
    g = expsum((6, [2, -1, 1]), (35, [2, 2]), (143, [3, -1, 1]))
    cert = dominance_bound(g)
    plus = cert.branches[0]
    assert verify_dominance(g, cert) and plus.kind == "ratio"
    other = expsum((6, [2, -1, 1]), (35, [2, 2]))
    assert not verify_dominance(other, cert)
    tampered = [
        dataclasses.replace(cert, s_plus=cert.s_plus - 2),
        with_branch(cert, 0, t1=plus.t1 - 1),
        with_branch(cert, 0, tstar=plus.tstar - 1),
        with_branch(cert, 0, threshold=plus.threshold - 1),
        with_branch(cert, 0, t1=plus.threshold + 1),
        with_branch(cert, 0, tstar=plus.threshold + 1),
        with_branch(cert, 0, kind="single"),
        with_branch(cert, 0, kind="linear"),
        with_branch(cert, 0, bases=(plus.bases[1], plus.bases[0]) + plus.bases[2:]),
        with_branch(cert, 0, coeffs=((plus.coeffs[0][0] + 1,) + plus.coeffs[0][1:],) + plus.coeffs[1:]),
        dataclasses.replace(cert, branches=cert.branches[:1]),
        dataclasses.replace(cert, branches=cert.branches + cert.branches[:1]),
        dataclasses.replace(cert, branches=(plus, plus)),
        dataclasses.replace(cert, zero_parities=("odd",)),
        dataclasses.replace(cert, s_minus=cert.s_minus - 1),
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
    assert not verify_dominance(g, dataclasses.replace(cert, zero_parities=()))


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


# an lcm of 1,989 bits, about the largest Q of one block of the joint scan
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


def test_modular_period_includes_modulus_for_nonconstant_coeffs():
    # s * 2^s mod 5: base order 4, full period lcm(4, 5) = 20
    g = expsum((2, [0, 1]))
    cert = modular_certificate_search(g)
    if cert is not None:
        assert cert.period % cert.modulus == 0


def test_verify_modular_rejects_tampering():
    g = ExpSum([(4, UniPoly([Fraction(1)])), (1, UniPoly([Fraction(2)]))])
    cert = modular_certificate_search(g)
    bad = dataclasses.replace(cert, residues=(3, 2))
    assert not verify_modular(g, bad)
    bad2 = dataclasses.replace(cert, period=4)
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


def reference_branch_pairs(g):
    """The branch sums of g built on UniPoly terms: the Taylor shifts by
    compose_linear, read as integers only at the end."""
    def ints(terms):
        return [(b, tuple(int(c) for c in p.coeffs)) for b, p in terms]

    abs_bases = [abs(b) for b, _ in g.terms]
    if len(set(abs_bases)) == len(abs_bases):
        parts = [("all", g.terms)]
    else:
        parts = [
            ("even", ExpSum((b * b, p.compose_linear(2, 0)) for b, p in g.terms).terms),
            ("odd", ExpSum((b * b, p.compose_linear(2, 1).scale(b)) for b, p in g.terms).terms),
        ]
    sums = {}
    for parity, terms in parts:
        if terms:
            total = 1
            for b, _ in terms:
                total *= abs(b)
            sums[(parity, "plus")] = ints(terms)
            sums[(parity, "minus")] = ints(
                ((total // abs(b)) * (1 if b > 0 else -1), p.compose_linear(-1, 0)) for b, p in terms
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


# --- the joint residue scan ---------------------------------------------------


def per_modulus_search(g, m_max, max_period=None):
    """The search modular_certificate_search replaced: one modulus at a
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
def test_joint_scan_matches_per_modulus_search(m_max):
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


def test_joint_scan_blocks_match_per_modulus_search(monkeypatch):
    # a small lcm bound splits 2..200 into many blocks
    monkeypatch.setattr(polyexp, "_JOINT_BITS", 16)
    rng = random.Random(6105)
    for g in random_modular_sums(rng, 40):
        assert modular_certificate_search(g, 200) == per_modulus_search(g, 200), g


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


def test_modulus_blocks_are_built_lazily():
    # 2^s + 3^s + 5 is certified by modulus 11, in the first block of
    # moduli; the search stops there, where building every block up to
    # 10^9 first would take gigabytes
    g = expsum((2, [1]), (3, [1]), (1, [5]))
    cert = modular_certificate_search(g, 10**9)
    assert cert == modular_certificate_search(g, 200) == per_modulus_search(g, 200)
    assert cert.modulus == 11


def test_joint_scan_known_certificates():
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
    # 36 pair checks over 9 bases share one factorization per |entry|
    calls = []
    factor = polyexp.factor_integer
    monkeypatch.setattr(polyexp, "factor_integer", lambda n, *a: calls.append(n) or factor(n, *a))
    bases = (2, 3, 4, -5, 6, 7, 9, 10, -12)
    report = check_hypothesis(parse_eq(" + ".join(("(%d)^x" if b < 0 else "%d^x") % b for b in bases) + " = 0"))
    assert report.trivial_for_all
    assert sorted(calls) == sorted(abs(b) for b in bases)


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


def test_sparse_abs_eval_matches_dense_horner():
    def dense(coeffs, t):
        total = 0
        for c in reversed(coeffs):
            total = total * t + abs(c)
        return total

    rng = random.Random(614)
    for _ in range(200):
        coeffs = [rng.choice([0, 0, 0, rng.randint(-50, 50)]) for _ in range(rng.randint(1, 40))]
        for t in (0, 1, 2, rng.randint(3, 1000), 10 ** 12):
            assert polyexp._abs_eval(coeffs, t) == dense(coeffs, t)
    monomial = (0,) * 5000 + (-7,)
    assert polyexp._abs_eval(monomial, 3) == dense(monomial, 3) == 7 * 3 ** 5000
