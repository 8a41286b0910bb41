"""The benchmark's three workloads: seeded inputs and the check of each output.

A workload is a list of operations, one round.  The harness repeats the
round in the same order until the run's time is up, so every run
attempts whole rounds and the share of failed operations does not
depend on the seed or on the run length.  Inputs depend on the seed,
except for a few fixed instances (known values, and inputs that fail
every time today).  The program sees only the generated inputs; each
check compares an output with `oracle`, never with a stored output.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import oracle

Problem = Optional[Tuple[str, str]]  # None, or (kind "error" | "wrong", reason)

VARS = ("x", "y", "z", "u", "v", "w")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Problem]


# ---------------------------------------------------------------------
# equation text


def _term(c, name: str) -> str:
    if c == 1:
        return name
    if c == -1:
        return "-" + name
    return "%d*%s" % (c, name)


def _sum_text(parts) -> str:
    """Join (coefficient, monomial text) pairs; '' monomial is a constant."""
    out = ""
    for c, mono in parts:
        if c == 0:
            continue
        body = str(abs(c)) if not mono else _term(abs(c), mono)
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def _linear_text(coeffs, names) -> str:
    return _sum_text(list(zip(coeffs, names)))


def _poly_text(coeffs, var: str = "x") -> str:
    """Coefficients lowest degree first, as '(c0 + c1*x + ...)'."""
    monos = ["", var] + ["%s^%d" % (var, k) for k in range(2, len(coeffs))]
    return "(%s)" % _sum_text(list(zip(coeffs, monos)))


def _base_text(b: int, var: str) -> str:
    return ("(%d)^%s" if b < 0 else "%d^%s") % (b, var)


def _nonzero(rng, lo: int, hi: int) -> int:
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


# ---------------------------------------------------------------------
# running the command-line front end in process


def _cli(argv):
    from prtoolkit import cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    return run


def _report(out):
    """(report, problem) from a captured CLI call."""
    rc, stdout, stderr = out
    if not stdout:
        first = stderr.strip().splitlines()[:1]
        return None, ("error", "exit %d without a report: %s" % (rc, first[0] if first else ""))
    return json.loads(stdout), None


def _decided(report) -> Problem:
    if report["status"] == "UNKNOWN":
        return "error", "UNKNOWN: %s" % "; ".join(report.get("notes", []))[:200]
    return None


def _int_or_all(v):
    return v if v in (None, "all") else int(v)


# ---------------------------------------------------------------------
# decide_mix


def _check_linear(coeffs, b, domain):
    status, witness = oracle.linear_expectation(coeffs, b, domain)
    wits = oracle.diagonal_witnesses(coeffs, b, domain) if len(coeffs) <= 2 else None
    s = sum(coeffs)

    def check(out):
        report, problem = _report(out)
        if problem:
            return problem
        problem = _decided(report)
        if problem:
            return problem
        if report["status"] != status:
            return "wrong", "%s, Rado's rule gives %s" % (report["status"], status)
        if status == "PR_CONSTANT" and _int_or_all(report["witness"]) != witness:
            return "wrong", "witness %s, expected %s" % (report["witness"], witness)
        partition = report["certificates"].get("partition")
        if status == "PR_COLUMNS" and partition is None:
            return "wrong", "PR_COLUMNS without a partition"
        if partition is not None and not oracle.partition_valid([coeffs], partition):
            return "wrong", "partition %r fails the columns condition" % (partition,)
        if status == "PR_COLUMNS" and b and int(report["integer_constant"]) != b // s:
            return "wrong", "integer constant %s" % report["integer_constant"]
        if wits is not None:
            got = report.get("witnesses")
            got = got if got == "all" else tuple(int(w) for w in got or ())
            if got != wits:
                return "wrong", "diagonal witnesses %r, expected %r" % (got, wits)
        return None

    return check


def _linear_op(rng) -> Op:
    n = rng.randint(1, 5)
    coeffs = [_nonzero(rng, -9, 9) for _ in range(n)]
    if n >= 2 and rng.random() < 0.5:
        block = rng.sample(range(n), rng.randint(2, n))
        fix = -sum(coeffs[j] for j in block[:-1])
        if fix:
            coeffs[block[-1]] = fix
    b = 0 if rng.random() < 0.6 else rng.randint(-20, 20)
    domain = "Z" if rng.random() < 0.25 else "N"
    text = "%s = %d" % (_linear_text(coeffs, VARS), b)
    argv = ["decide", "--expr", text] + (["--domain", "Z"] if domain == "Z" else [])
    return Op("linear", text, _cli(argv), _check_linear(coeffs, b, domain))


def _system_op(rng) -> Op:
    m = rng.randint(2, 4)
    n = rng.randint(m + 1, 6)
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.5:
            block = rng.sample(range(n), rng.randint(2, n - 1))
            for row in rows:
                row[block[-1]] = -sum(row[j] for j in block[:-1])
        if all(any(row) for row in rows) and all(any(row[j] for row in rows) for j in range(n)):
            break
    text = "; ".join("%s = 0" % _linear_text(row, VARS) for row in rows)
    # the program numbers columns by first appearance in the text
    order = []
    for row in rows:
        order += [j for j in range(n) if row[j] and j not in order]
    matrix = [[row[j] for j in order] for row in rows]
    holds = oracle.columns_condition_holds(matrix)
    status = "NOT_PR"
    if holds:
        status = "PR_CONSTANT" if all(sum(row) == 0 for row in matrix) else "PR_COLUMNS"

    def check(out):
        report, problem = _report(out)
        if problem:
            return problem
        problem = _decided(report)
        if problem:
            return problem
        if report["status"] != status:
            return "wrong", "%s, the partition search gives %s" % (report["status"], status)
        partition = report["certificates"].get("partition")
        if holds and not (partition and oracle.partition_valid(matrix, partition)):
            return "wrong", "partition %r fails the columns condition" % (partition,)
        return None

    return Op("system", text, _cli(["decide", "--expr", text]), check)


def _check_twovar(witnesses):
    status = "PR_CONSTANT" if witnesses else "NOT_PR"

    def check(out):
        report, problem = _report(out)
        if problem:
            return problem
        problem = _decided(report)
        if problem:
            return problem
        got = tuple(int(w) for w in report["witnesses"])
        if report["status"] != status or got != witnesses:
            return "wrong", "%s with witnesses %r, expected %r" % (report["status"], got, witnesses)
        if witnesses and int(report["witness"]) != oracle.least_by_abs(witnesses):
            return "wrong", "witness %s is not the least" % report["witness"]
        return None

    return check


def _twovar_op(rng) -> Op:
    roots = rng.sample(range(-12, 13), rng.randint(1, 3))
    if rng.random() < 0.4:
        roots[:2] = [rng.randint(10 ** 5, 10 ** 6) * rng.choice((1, -1)) for _ in range(2)]
    factors = ["(x %s %d)" % ("-" if r >= 0 else "+", abs(r)) for r in roots]
    if rng.random() < 0.5:
        factors.append("(x^2 + %d)" % rng.randint(1, 9))
    text = "*".join(factors)
    if rng.random() < 0.7:
        a, b, c = (rng.randint(-4, 4) for _ in range(3))
        text += " + (x - y)*(%s)" % _sum_text([(a, "x"), (b, "y"), (c or 1, "")])
    domain = "Z" if rng.random() < 0.3 else "N"
    text += " = 0"
    argv = ["decide", "--expr", text] + (["--domain", "Z"] if domain == "Z" else [])
    return Op("twovar", text, _cli(argv), _check_twovar(oracle.planted_witnesses(roots, domain)))


def _square_op(rng, c=None) -> Op:
    if c is None:
        r = rng.randint(10 ** 4, 10 ** 6)
        c = r * r if rng.random() < 0.5 else r * r + rng.randint(1, 2 * r)
    text = "x^2 - %d = 0" % c
    return Op("square", text, _cli(["decide", "--expr", text]),
              _check_twovar(oracle.square_roots(c, "N")))


GROUPS = ("-1,2", "2,3", "-1,2,3", "2/3,5", "-1,3,5/7", "4,8", "6,10,15")


def _group_op(rng) -> Op:
    a, b, c = (_nonzero(rng, -6, 6) for _ in range(3))
    if rng.random() < 0.5 and a + b:
        c = -(a + b)
    gens = rng.choice(GROUPS)
    rank = oracle.group_rank([Fraction(g) for g in gens.split(",")])
    text = "%s = 0" % _linear_text([a, b, c], VARS)
    status = "PR_CONSTANT" if a + b + c == 0 else "NOT_PR"

    def check(out):
        report, problem = _report(out)
        if problem:
            return problem
        if report["status"] != status or int(report["coefficient_sum"]) != a + b + c:
            return "wrong", "%s with coefficient sum %s" % (report["status"], report["coefficient_sum"])
        if report["rank"] != rank:
            return "wrong", "rank %s, expected %d" % (report["rank"], rank)
        return None

    return Op("group", text, _cli(["decide", "--expr", text, "--group=" + gens]), check)


def _polyexp_check(terms, witness_of):
    """Check a polyexp verdict; `witness_of(out)` gives (status, witness, modular)."""
    merged = oracle.merge_terms(terms)
    diag = oracle.diagonal(merged)
    hypothesis = oracle.hypothesis_holds([chars for chars, _ in merged])
    zeros = oracle.diag_zeros(diag)

    def check(out):
        got = witness_of(out)
        if isinstance(got[0], tuple):  # a problem, not a verdict
            return got[0]
        status, witness, modular = got
        problem = oracle.polyexp_verdict_problem(diag, hypothesis, status, witness, zeros)
        if problem is None and modular is not None and not oracle.modular_certificate_valid(diag, *modular):
            problem = "wrong", "modular certificate %r fails the recomputation" % (modular[:2],)
        return problem

    return check


def _cli_polyexp(out):
    report, problem = _report(out)
    if problem:
        return (problem,)
    witness = (report.get("constant_solution") or {}).get("witness")
    modular = report["certificates"].get("modular")
    if modular is not None:
        modular = (int(modular["modulus"]), int(modular["period"]), [int(r) for r in modular["residues"]])
    return report["status"], None if witness is None else int(witness), modular


def _random_sum(rng, degrees, base_range):
    """Terms in x with distinct bases in +-base_range: (characters, {exponents: coeff})."""
    while True:
        bases = rng.sample([b for b in range(-base_range, base_range + 1) if b], len(degrees))
        if bases != [1]:
            break
    terms = []
    for base, degree in zip(bases, degrees):
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [_nonzero(rng, -9, 9)]
        terms.append(((base,), {(k,): c for k, c in enumerate(coeffs) if c}))
    return terms


def _sum_text_of(terms) -> str:
    parts = []
    for (base,), poly in terms:
        coeffs = [poly.get((k,), 0) for k in range(max(e for (e,) in poly) + 1)]
        parts.append(_poly_text(coeffs) + ("" if base == 1 else "*" + _base_text(base, "x")))
    return " + ".join(parts) + " = 0"


def _decide_polyexp_op(kind, terms, text) -> Op:
    return Op(kind, text, _cli(["decide", "--expr", text]), _polyexp_check(terms, _cli_polyexp))


def _bound_op(rng) -> Op:
    # B = 22: the report renders Bell(2) * 2^(35 B^3) in decimal
    c1, c2 = _nonzero(rng, -5, 5), _nonzero(rng, -5, 5)
    terms = [((2,), {(20,): c1}), ((3,), {(0,): c2})]
    text = "%s*2^x + %s*3^x = 0" % (_term(c1, "x^20"), c2)
    return _decide_polyexp_op("bound", terms, text.replace("+ -", "- "))


def _product_op(rng, k: int) -> Op:
    """(x + y)^k, written out as k factors, equal to 2^k r^k or 2^k (r^k + 1).

    The diagonal is 2^k (w^k - r^k), whose positive root is r, or
    2^k (w^k - r^k - 1), which has no integer root.  The constant has
    few divisors, so the 2^k-term expansion in classify dominates.
    """
    r = rng.choice((2, 3))
    planted = rng.random() < 0.6
    const = 2 ** k * (r ** k if planted else r ** k + 1)
    text = "%s = %d" % ("*".join(["(x + y)"] * k), const)
    return Op("product", text, _cli(["decide", "--expr", text]),
              _check_twovar(oracle.planted_witnesses([r] if planted else [], "N")))


def _fixed_decide_failures() -> List[Op]:
    """Inputs that fail every time today; they do not depend on the seed."""
    same = _check_linear([1, -1], 0, "N")

    def parsed_or_refused(out):
        rc, _, stderr = out
        if rc == 1 and len(stderr.strip().splitlines()) == 1:
            return None  # a one-line error is an acceptable answer
        return same(out)

    nested = "(" * 2000 + "x" + ")" * 2000 + " = y"
    minus = "-" * 3000 + "x = y"
    return [
        _square_op(None, 1000000016000000063),
        Op("deep", "x = y in 2000 parentheses", _cli(["decide", "--expr", nested]), parsed_or_refused),
        Op("deep", "x = y after 3000 minus signs", _cli(["decide", "--expr", minus]), parsed_or_refused),
    ]


def decide_mix(rng) -> List[Op]:
    ops = [_linear_op(rng) for _ in range(40)]
    ops += [_system_op(rng) for _ in range(12)]
    ops += [_twovar_op(rng) for _ in range(15)]
    ops += [_square_op(rng) for _ in range(3)]
    ops += [_group_op(rng) for _ in range(10)]
    ops += [_bound_op(rng) for _ in range(2)]
    for _ in range(8):
        terms = _random_sum(rng, [rng.randint(0, 2) for _ in range(rng.randint(1, 3))], 7)
        ops.append(_decide_polyexp_op("polyexp", terms, _sum_text_of(terms)))
    # fifteen products of the same size, dearer than anything but the two
    # bound renderings and the failing square: the 90th percentile lands
    # in the middle of them, so it follows the expansion in classify
    ops += [_product_op(rng, 12) for _ in range(15)]
    ops += _fixed_decide_failures()
    return ops


# ---------------------------------------------------------------------
# polyexp


def _api_polyexp(out):
    res = out.result
    witness = None if res is None else res.witness
    modular = None
    if res is not None and res.modular is not None:
        m = res.modular
        modular = (m.modulus, m.period, list(m.residues))
    return out.status, witness, modular


def _polyexp_op(kind, terms, text) -> Op:
    from prtoolkit import classify, parse_equation_text
    from prtoolkit import polyexp as program

    eq = classify(parse_equation_text(text))  # before timing: only the decision is measured
    return Op(kind, text, lambda: program.decide_polyexp_pr(eq), _polyexp_check(terms, _api_polyexp))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

CRITERION_3 = (
    "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y + (x*y - z + 3)*11^x*13^y = 0",
    [((2, 3), {(1, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 2}),
     ((5, 7), {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2, (0, 0, 0): 2}),
     ((11, 13), {(1, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 3})],
)

MONOMIALS = {(1, 1, 0): "x*y", (1, 0, 0): "x", (0, 1, 0): "y", (0, 0, 1): "z", (2, 0, 0): "x^2", (0, 0, 0): ""}


def _two_character_op(rng) -> Op:
    """Three terms P_i(x, y, z) * a_i^x * b_i^y with prime bases; z only polynomial."""
    primes = rng.sample(PRIMES, 6)
    terms, parts = [], []
    for i in range(3):
        monos = rng.sample(sorted(MONOMIALS), 3)
        poly = {e: _nonzero(rng, -3, 3) for e in monos}
        chars = (primes[2 * i], primes[2 * i + 1])
        terms.append((chars, poly))
        parts.append("(%s)*%d^x*%d^y" % (_sum_text([(c, MONOMIALS[e]) for e, c in poly.items()]), *chars))
    return _polyexp_op("characters", terms, " + ".join(parts) + " = 0")


def polyexp(rng) -> List[Op]:
    # Sums shaped like criterion 8's: bases in +-13, coefficient degree <= 3.
    # A three-term sum costs either about 3 ms (a zero, or a small modulus
    # certifies) or about 20 ms (no modulus up to 200 does); 300 of them
    # make the median and the 90th percentile repeat from seed to seed.
    ops = []
    for degrees, count in ((lambda: [rng.randint(0, 3)], 20),
                           (lambda: [rng.randint(0, 3) for _ in range(2)], 20),
                           (lambda: rng.sample((1, 2, 3), 3), 300)):
        for _ in range(count):
            terms = _random_sum(rng, degrees(), 13)
            ops.append(_polyexp_op("random", terms, _sum_text_of(terms)))
    for m in range(4, 9):
        terms = [((p,), {(0,): _nonzero(rng, -3, 3)}) for p in rng.sample(PRIMES, m)]
        ops.append(_polyexp_op("hypothesis", terms, " + ".join(
            "%s*%d^x" % (poly[(0,)], p) for (p,), poly in terms).replace("+ -", "- ") + " = 0"))
    for d in range(5, 61, 5):
        ops.append(_polyexp_op("window", [((2,), {(d,): 1}), ((3,), {(0,): 1})], "x^%d*2^x + 3^x = 0" % d))
    for k in range(1, 4):
        ops.append(_polyexp_op("dominance", [((101,), {(k,): 1}), ((100,), {(0,): 1})],
                               "x^%d*101^x + 100^x = 0" % k))
    ops.append(_polyexp_op("characters", CRITERION_3[1], CRITERION_3[0]))
    ops += [_two_character_op(rng) for _ in range(4)]
    fails = [(2, 3)] + [(rng.choice((3, 5, 7)), rng.randint(2, 9)) for _ in range(2)]
    for p, c in fails:
        # (s^2 + c) p^s + (-p)^s = p^s (s^2 + c +- 1) has no zero; the hypothesis fails
        terms = [((p,), {(2,): 1, (0,): c}), ((-p,), {(0,): 1})]
        ops.append(_polyexp_op("hypothesis_fails", terms, "(x^2 + %d)*%d^x + (-%d)^x = 0" % (c, p, p)))
    return ops


# ---------------------------------------------------------------------
# search


def _rado_classes():
    """Criterion 7's 60 symmetry classes of NOT_PR equations, coefficients in [-4, 4]."""
    classes = {}
    for n in (1, 2, 3):
        for coeffs in itertools.product([c for c in range(-4, 5) if c], repeat=n):
            if 0 in oracle.subset_sums(coeffs):
                continue
            key = min(tuple(sorted(coeffs)), tuple(sorted(-c for c in coeffs)))
            classes.setdefault(key, []).append(coeffs)
    return [classes[k] for k in sorted(classes)]


def _check_search(status, colors, N, solutions):
    def check(out):
        report, problem = _report(out)
        if problem:
            return problem
        problem = _decided(report)
        if problem:
            return problem
        if report["status"] != status:
            return "wrong", "%s, expected %s" % (report["status"], status)
        if status == "AVOIDING":
            bad = oracle.coloring_problem(report["coloring"], N, colors, solutions())
            if bad:
                return "wrong", bad
        return None

    return check


def _search_op(kind, text, N, colors, status, solutions, exclude_constant=False) -> Op:
    argv = ["search", "--expr", text, "--range", str(N), "--colors", str(colors)]
    if exclude_constant:
        argv.append("--exclude-constant")
    return Op(kind, "%s N=%d r=%d" % (text, N, colors), _cli(argv),
              _check_search(status, colors, N, solutions))


def _cached(f, *args):
    memo = []

    def get():
        if not memo:
            memo.append(f(*args))
        return memo[0]

    return get


UNIT_BOXES = (("-1,2", 6), ("2,3", 4), ("-1,3", 6), ("-1,2,3", 3), ("-1,2,5", 2))


def _unit_count_op(rng) -> Op:
    from prtoolkit import sunit

    a, b = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
    gens, bound = rng.choice(UNIT_BOXES)
    group = [Fraction(g) for g in gens.split(",")]
    want = _cached(oracle.unit_solutions, a, b, group, bound)

    def check(out):
        count, sols = out
        if count != len(want()) or list(sols) != want():
            return "wrong", "%d solutions, the recount gives %d" % (count, len(want()))
        return None

    return Op("units", "%d*x + %d*y = 1 over <%s>, |e| <= %d" % (a, b, gens, bound),
              lambda: sunit.count_unit_equation_solutions(a, b, group, bound), check)


def _rado_op(kind, coeffs, N) -> Op:
    """Rado's theorem: p - 1 colors avoid a NOT_PR equation when p divides no subset sum."""
    colors = oracle.rado_prime(coeffs) - 1
    text = "%s = 0" % _linear_text(coeffs, VARS)
    return _search_op(kind, text, N, colors, "AVOIDING", _cached(oracle.linear_solutions, coeffs, N))


def search(rng) -> List[Op]:
    # The 44 three-variable classes and the Pythagorean searches at
    # N = 40..50 cost about the same (an enumeration of N^2 prefixes): the
    # median lands among them.  The Pythagorean searches at N = 60..71
    # cost more, and only the four DFS-heavy searches cost more than they
    # do: the 90th percentile lands among them.  Every search here has a
    # known, small DFS; random NOT_PR equations were left out because a
    # few of them (-x + 7*y - 3*z = 0 with 4 colors) take minutes.
    ops = [_rado_op("rado", rng.choice(members), 50) for members in _rado_classes()]
    def pythagorean(n):
        return "pythagorean", "x^2 + y^2 = z^2", n, 2, False, oracle.pythagorean_triples

    known = [pythagorean(n) for n in (*range(40, 51), *range(60, 72))] + [
        pythagorean(rng.randint(90, 100)),
        ("schur", "x + y = z", 13, 3, False, lambda n: oracle.linear_solutions((1, 1, -1), n)),
        ("schur", "x + y = z", 14, 3, False, lambda n: oracle.linear_solutions((1, 1, -1), n)),
        ("ap3", "x + z = 2*y", 26, 3, True, lambda n: oracle.progressions(3, n)),
        ("ap3", "x + z = 2*y", 27, 3, True, lambda n: oracle.progressions(3, n)),
        ("ap4", "x + z = 2*y; y + w = 2*z", 34, 2, True, lambda n: oracle.progressions(4, n)),
        ("ap4", "x + z = 2*y; y + w = 2*z", 35, 2, True, lambda n: oracle.progressions(4, n)),
        ("x+y=4z", "x + y = 4*z", 50, 2, False, lambda n: oracle.linear_solutions((1, 1, -4), n)),
        # fails every time today: the recursive coloring search overflows the stack
        ("y=2x", "y = 2*x", 1500, 2, False, lambda n: oracle.linear_solutions((-2, 1), n)),
    ]
    for family, text, n, colors, exclude, sols in known:
        ops.append(_search_op(family, text, n, colors, oracle.expected_search_status(family, colors, n),
                              _cached(sols, n), exclude))
    ops += [_unit_count_op(rng) for _ in range(8)]
    return ops


WORKLOADS = {"decide_mix": decide_mix, "polyexp": polyexp, "search": search}

# modules whose import is the workload's set-up
ENTRY_MODULES = {
    "decide_mix": ("prtoolkit.cli",),
    "polyexp": ("prtoolkit.equations", "prtoolkit.polyexp"),
    "search": ("prtoolkit.cli", "prtoolkit.sunit"),
}


def build(name: str, seed: int) -> List[Op]:
    """One round of the workload; the same seed gives the same operations in the same order."""
    rng = random.Random("%s:%d" % (name, seed))
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
