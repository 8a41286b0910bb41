"""Command-line interface: report shape, exit codes, serialization rules.

Most invocations go through main() in-process; a couple of subprocess
runs confirm the installed console script behaves identically.
"""

import decimal
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtoolkit import cli
from prtoolkit.cli import EXIT_BROKEN_PIPE, main
from prtoolkit.equations import _EXACT, _LEAF_BITS, ParseError, _num, parse_equation_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def walk(node):
    yield node
    if isinstance(node, dict):
        for v in node.values():
            yield from walk(v)
    elif isinstance(node, list):
        for v in node:
            yield from walk(v)


# --- decide -----------------------------------------------------------------


def test_decide_constant_witness(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "2*x - y = 7")
    assert code == 0
    assert rep["status"] == "PR_CONSTANT"
    assert rep["witness"] == "7"          # big integers travel as strings
    assert rep["infinitely_pr"] is False
    assert rep["witnesses"] == ["7"]
    assert isinstance(rep["time_ms"], int)
    assert "summary" in rep


def test_decide_schur_partition(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x + y = z")
    assert code == 0
    assert rep["status"] == "PR_COLUMNS"
    assert rep["certificates"]["partition"] == [[1, 3], [2]]


def test_decide_not_pr(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x + y = 3*z")
    assert code == 0  # decided, just negatively
    assert rep["status"] == "NOT_PR"
    assert rep["certificates"] == {}


def test_decide_infinitely_pr(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x - y = 0")
    assert code == 0
    assert rep["infinitely_pr"] is True
    assert rep["witnesses"] == "all"


def test_decide_polyexp_not_pr(capsys):
    code, rep = run_cli(
        capsys, "decide", "--expr",
        "(x*y - z + 2)*2^x*3^y + (x - y + 2*z + 2)*5^x*7^y"
        " + (x*y - z + 3)*11^x*13^y = 0",
    )
    assert code == 0
    assert rep["status"] == "NOT_PR"
    assert rep["diagonal"]["bases"] == ["6", "35", "143"]
    assert rep["diagonal"]["coeffs"] == [["2", "-1", "1"], ["2", "2"], ["3", "-1", "1"]]
    dom = rep["certificates"]["dominance"]
    assert dom["s_plus"] == "4" and dom["s_minus"] == "4"
    assert rep["hypothesis"]["trivial_for_all"] is True


def test_decide_large_square_without_factoring(capsys):
    # (10^9 + 7)(10^9 + 9) = 1000000008^2 - 1: no integer root, no factoring
    code, rep = run_cli(capsys, "decide", "--expr", "x^2 - 1000000016000000063 = 0")
    assert code == 0
    assert rep["status"] == "NOT_PR"
    assert rep["witnesses"] == []
    code, rep = run_cli(capsys, "decide", "--expr", "x^2 = 1000000016000000064")
    assert code == 0
    assert rep["status"] == "PR_CONSTANT"
    assert rep["witnesses"] == ["1000000008"]


def test_decide_general_system_unknown(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x*y + z = 4")
    assert code == 2
    assert rep["status"] == "UNKNOWN"


K = 10 ** 9 + 7


@pytest.mark.parametrize(
    "expr, witness, witnesses",
    [
        ("y = x^2; z = x^3", "1", ["1"]),
        ("x*y = z + 2", "2", ["2"]),
        ("x*y*z = 8", "2", ["2"]),
        ("x^2 + y^2 = 2*z^2", "1", "all"),
        # w^3 + w^2 = K^2 (K + 1) with K = 10^9 + 7 is beyond trial division,
        # but the linear diagonal 3w - 3K gives the witness in either order
        ("x*y*z + x*y = %d; x + y + z = %d" % (K ** 3 + K ** 2, 3 * K), str(K), [str(K)]),
        ("x + y + z = %d; x*y*z + x*y = %d" % (3 * K, K ** 3 + K ** 2), str(K), [str(K)]),
    ],
)
def test_decide_general_system_constant_witness(capsys, expr, witness, witnesses):
    code, rep = run_cli(capsys, "decide", "--expr", expr)
    assert code == 0
    assert rep["class"]["class"] == "general_poly_system"
    assert rep["status"] == "PR_CONSTANT"
    assert (rep["witness"], rep["witnesses"]) == (witness, witnesses)


def test_decide_general_system_constant_witness_over_z(capsys):
    # the diagonal w^2 - w - 2 = (w - 2)(w + 1): -1 joins over Z and is least
    code, rep = run_cli(capsys, "decide", "--expr", "x*y = z + 2", "--domain", "Z")
    assert code == 0
    assert (rep["status"], rep["witness"], rep["witnesses"]) == ("PR_CONSTANT", "-1", ["-1", "2"])


@pytest.mark.parametrize(
    "expr",
    [
        # no constant solution, yet not known to be NOT_PR: every 2-coloring
        # of [1..7825] has a monochromatic Pythagorean triple
        "x^2 + y^2 = z^2",
        # w^3 = (10^9 + 7)(10^9 + 9) has no integer root, found without factoring
        "x*y*z = 1000000016000000063",
        # w^3 + w - (10^9 + 7)(10^9 + 9) needs a factorization the budget cannot finish
        "x*y*z + x = 1000000016000000063",
    ],
)
def test_decide_general_system_without_witness_stays_unknown(capsys, expr):
    code, rep = run_cli(capsys, "decide", "--expr", expr)
    assert code == 2
    assert rep["status"] == "UNKNOWN"
    assert "witness" not in rep and "witnesses" not in rep
    assert rep["notes"] and rep["summary"] == "UNKNOWN (general polynomial system)"
    if expr == "x*y*z + x = 1000000016000000063":
        # the note names the stopped factorization, not a missing procedure
        assert rep["notes"] == [
            "the constant-solution search stopped on an incomplete factorization: "
            "factorization of -1000000016000000063 incomplete: cofactor "
            "1000000016000000063 exceeds budget^2 = 1000000000000"
        ]


@pytest.mark.parametrize(
    "expr, constant",
    [
        ("x*y = x*y + 1; x = y^2", "-1"),  # two variables reach this branch too
        ("x = y^2; x*y*z + 3 = x*y*z", "3"),
        ("x*y = z; x*y*z = x*y*z + 1/2", "-1/2"),
    ],
)
def test_decide_general_system_with_a_constant_equation_is_not_pr(capsys, expr, constant):
    # c = 0 with c != 0 holds nowhere, so no coloring has a solution
    for domain in ("N", "Z"):
        code, rep = run_cli(capsys, "decide", "--expr", expr, "--domain", domain)
        assert code == 0
        assert rep["class"]["class"] == "general_poly_system"
        assert rep["status"] == "NOT_PR"
        assert rep["notes"] == ["an equation reduces to %s = 0: no solution" % constant]
        assert rep["summary"] == "NOT_PR (general polynomial system)"


def test_decide_linear_row_without_a_constant_solution(capsys):
    # the row 0 = 1 holds at no constant: no witnesses, not infinitely PR
    code, rep = run_cli(capsys, "decide", "--expr", "x = x + 1")
    assert code == 0
    assert rep["status"] == "NOT_PR"
    assert (rep["witnesses"], rep["infinitely_pr"]) == ([], False)


def test_decide_sunit_route(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x + y - z = 0", "--group=-1,2")
    assert code == 0
    assert rep["status"] == "NOT_PR"
    assert rep["coefficient_sum"] == "1"
    code2, rep2 = run_cli(capsys, "decide", "--expr", "x + y - 2*z = 0", "--group=2,3")
    assert code2 == 0
    assert rep2["status"] == "PR_CONSTANT"
    assert rep2["rank"] == 2


def test_decide_domain_z(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", "x + y = 3*z", "--domain", "Z")
    assert code == 0
    assert rep["status"] == "PR_CONSTANT"
    assert rep["witness"] == "0"


def test_no_floats_anywhere(capsys):
    for argv in (
        ("decide", "--expr", "x + y = z"),
        ("decide", "--expr", "2^x - 3^x = 0"),
        ("search", "--expr", "x + y = z", "--range", "5", "--colors", "2"),
        ("rank", "--group=2,3"),
    ):
        _, rep = run_cli(capsys, *argv)
        assert not any(isinstance(v, float) for v in walk(rep)), argv


# --- search / enumerate ----------------------------------------------------------


def test_search_reports_verified_coloring(capsys):
    code, rep = run_cli(capsys, "search", "--expr", "x + y = z",
                        "--range", "4", "--colors", "2")
    assert code == 0
    assert rep["status"] == "AVOIDING"
    assert rep["coloring"] == [0, 1, 1, 0]
    assert rep["verified"] is True
    assert rep["solution_count"] == 6


def test_search_enumerates_once(capsys, monkeypatch):
    from prtoolkit import cli, ramsey

    calls = []
    enumerate_solutions = ramsey.enumerate_solutions
    spy = lambda *a, **k: calls.append(a) or enumerate_solutions(*a, **k)
    monkeypatch.setattr(ramsey, "enumerate_solutions", spy)
    monkeypatch.setattr(cli, "enumerate_solutions", spy)
    code, rep = run_cli(capsys, "search", "--expr", "x + y = z",
                        "--range", "13", "--colors", "3")
    assert (code, rep["status"], rep["verified"]) == (0, "AVOIDING", True)
    assert len(calls) == 1


def test_search_never_reports_a_coloring_that_fails_its_check(capsys, monkeypatch):
    from prtoolkit import ramsey

    monkeypatch.setattr(ramsey, "verify_coloring", lambda coloring, sols: (False, ((1, 1, 2),)))
    with pytest.raises(RuntimeError, match="failed re-verification"):
        main(["search", "--expr", "x + y = z", "--range", "4", "--colors", "2"])
    assert capsys.readouterr().out == ""


def test_search_forced(capsys):
    code, rep = run_cli(capsys, "search", "--expr", "x + y = z",
                        "--range", "5", "--colors", "2")
    assert code == 0
    assert rep["status"] == "FORCED"
    assert rep["coloring"] is None


def test_search_exclude_constant(capsys):
    code, rep = run_cli(capsys, "search", "--expr", "x + y = 2*z",
                        "--range", "8", "--colors", "2", "--exclude-constant")
    assert code == 0
    assert rep["min_injectivity"] == 2
    assert rep["status"] == "AVOIDING"


@pytest.mark.parametrize("argv", [
    # no solution at the first N, some at the second: the same error at both
    ("enumerate", "--expr", "x + y = z", "--range", "{N}", "--min-injectivity", "4"),
    ("search", "--expr", "x + y = z", "--range", "{N}", "--colors", "2", "--min-injectivity", "4"),
    ("search", "--expr", "x = 3", "--range", "{N}", "--colors", "2", "--exclude-constant"),
    ("enumerate", "--expr", "x = 3", "--range", "{N}", "--min-injectivity", "2"),
])
def test_injectivity_above_the_arity_is_a_usage_error(capsys, argv):
    for N in (1, 5):
        code = main([a.format(N=N) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: injectivity threshold exceeds tuple arity\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--expr", "x + y = z", "--range", "2", "--min-injectivity=-3"),
    ("enumerate", "--expr", "x + y = z", "--range", "2", "--min-injectivity", "0"),
    ("search", "--expr", "x + y = z", "--range", "2", "--colors", "2", "--min-injectivity", "0"),
    ("search", "--expr", "x + y = z", "--range", "2", "--colors", "2", "--min-injectivity=-3",
     "--exclude-constant"),
])
def test_injectivity_below_one_is_a_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "error: injectivity threshold must be at least 1\n"


def test_enumerate(capsys):
    code, rep = run_cli(capsys, "enumerate", "--expr", "x + y = z", "--range", "4")
    assert code == 0
    assert rep["count"] == 6
    assert [1, 1, 2] in rep["solutions"]
    assert rep["variables"] == ["x", "y", "z"]


@pytest.mark.parametrize("argv", [
    ("search", "--expr", "1 = 2", "--range", "5", "--colors", "2"),
    ("enumerate", "--expr", "1 = 2", "--range", "5"),
    ("search", "--expr", "0 = 0", "--range", "5", "--colors", "2"),
    ("decide", "--expr", "0 = 0"),
])
def test_system_without_variables_is_a_one_line_error(capsys, argv):
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the system has no variables\n")


@pytest.mark.parametrize("command", [("enumerate", "--range", "5"), ("decide",)])
def test_json_system_without_variables_is_a_one_line_error(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"A": [[]], "b": [1]}))
    assert main([*command, "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the system has no variables\n")


# --- certify / rank / bound --------------------------------------------------------


def test_certify_finds_modulus(capsys):
    code, rep = run_cli(capsys, "certify", "--expr", "4^x + 2 = 0")
    assert code == 0
    assert rep["found"] is True
    assert rep["certificate"] == {"modulus": "5", "period": "2", "residues": ["3", "1"]}
    assert rep["verified"] is True


def test_decide_tries_only_certificates_shorter_than_the_window(capsys):
    # the window [-1, 2] has 4 points, and the least certificate, modulus
    # 53, has period 26: decide prints none, certify still finds it
    eq = "16*7^x + 25*10^x - 29 = 0"
    code, rep = run_cli(capsys, "decide", "--expr", eq)
    assert (code, rep["status"]) == (0, "NOT_PR")
    assert rep["constant_solution"]["window"] == ["-1", "2"]
    assert "modular" not in rep["certificates"] and "dominance" in rep["certificates"]
    code, rep = run_cli(capsys, "certify", "--expr", eq)
    assert (code, rep["found"], rep["verified"]) == (0, True, True)
    assert (rep["certificate"]["modulus"], rep["certificate"]["period"]) == ("53", "26")


def test_certify_absent_is_unknown_exit(capsys):
    # (s^2+1)*2^s has no integer zero but also no modular proof: s^2+1
    # hits 0 mod M for M with -1 a quadratic residue, and small M without
    # that property still see zeros of the full sum? keep mmax tiny
    code, rep = run_cli(capsys, "certify", "--expr", "(x - 1)*2^x = 0", "--mmax", "20")
    assert code == 2
    assert rep["found"] is False


def test_certify_on_a_sum_with_a_zero_runs_no_search(capsys):
    # g(1) = 0, so no modulus can certify the sum: the window scan finds
    # the zero and the search over 10^9 moduli is not run
    t0 = time.monotonic()
    code, rep = run_cli(capsys, "certify", "--expr", "2^x - 2 = 0", "--mmax", "1000000000")
    assert time.monotonic() - t0 < 1.0
    assert (code, rep["found"]) == (2, False)
    assert rep["note"].startswith("g(1) = 0, ")
    assert "certificate" not in rep


def test_certify_searches_when_the_window_needs_an_incomplete_factorization(capsys):
    # the roots of the one coefficient need 1000000016000000063 factored,
    # beyond the budget: no window, so the search runs as before
    code, rep = run_cli(capsys, "certify", "--expr", "(x - 1000000007)*(x - 1000000009)*2^x = 0",
                        "--mmax", "50")
    assert (code, rep["found"]) == (2, False)
    assert rep["note"].startswith("no modulus up to the cap")


def test_rank(capsys):
    code, rep = run_cli(capsys, "rank", "--group=-1,2,3/5")
    assert code == 0
    assert rep["rank"] == 2
    assert rep["primes"] == ["2", "3", "5"]
    assert rep["solution_bound"] == str(2 ** 48)


def test_bound(capsys):
    code, rep = run_cli(capsys, "bound", "--expr", "2^x + 3^x + 5^x = 0")
    assert code == 0
    assert rep["A"] == "3" and rep["B"] == "3"
    assert rep["bell_m"] == "5"
    assert rep["bound"] == str(5 * 2 ** (35 * 27))


def test_bound_factored_when_huge(capsys):
    # A = B = 30, so 2^(35 B^3) has 945,000 bits, above _MAX_BOUND_BITS
    eq = "(x^9 + 1)*2^x + (x^9 - 1)*3^x + x^9*5^x = 0"
    code, rep = run_cli(capsys, "bound", "--expr", eq)
    assert code == 0
    assert "bound" not in rep
    assert rep["bound_factored"] == {
        "bell_m": "5",
        "power_of_two_exponent": "945000",
        "degree": "1",
        "degree_exponent": "5400",
    }


def test_main_restores_the_digit_limit(capsys):
    # main raises the int/str digit limit only while it runs
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit in this interpreter")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["decide", "--expr", "x + y = z"]) == 0
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == 4300
        with pytest.raises(ParseError):
            parse_equation_text("x = " + "9" * 5000)
    finally:
        sys.set_int_max_str_digits(old)


# --- rendering of report numbers ----------------------------------------------------


@contextmanager
def unlimited_int_str():
    """Lift the interpreter's int -> str digit limit, so str(n) is a reference."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_WIDTHS = st.one_of(
    st.integers(0, 80_000),
    st.integers(_LEAF_BITS - 40, _LEAF_BITS + 40),
    st.integers(2 * _LEAF_BITS - 40, 2 * _LEAF_BITS + 40),
)


# below 2^w: hypothesis' own draw leans to small and structured values,
# getrandbits gives dense ones of about w bits
_INTS = _WIDTHS.flatmap(lambda w: st.one_of(
    st.integers(0, 2 ** w),
    st.randoms(use_true_random=False).map(lambda r: r.getrandbits(w)),
))


@settings(max_examples=200, deadline=None)
@given(_INTS, st.booleans())
def test_num_matches_str(n, negative):
    if negative:
        n = -n
    with unlimited_int_str():
        assert _num(n) == str(n)


@pytest.mark.parametrize("k", [_LEAF_BITS - 1, _LEAF_BITS, _LEAF_BITS + 1, 3 * _LEAF_BITS])
def test_num_at_powers_of_two_and_ten(k):
    with unlimited_int_str():
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1, 10 ** k - 1, 10 ** k):
            assert _num(n) == str(n) and _num(-n) == str(-n)


def test_num_fractions_and_passthrough():
    f = Fraction(3 ** 20_000 + 1, 7 ** 9_000)
    with unlimited_int_str():
        assert _num(f) == "%d/%d" % (f.numerator, f.denominator)
        assert _num(-f) == "-%d/%d" % (f.numerator, f.denominator)
        assert _num(Fraction(-(5 ** 9_000))) == str(-(5 ** 9_000))
    assert _num(Fraction(-3, 4)) == "-3/4"
    assert _num("any") == "any"


def test_num_arithmetic_is_exact_or_raises():
    # the context keeps every digit, and a result that would be rounded raises;
    # a 5-digit copy with the same traps shows the raise
    assert _EXACT.prec == decimal.MAX_PREC and _EXACT.Emax == decimal.MAX_EMAX
    narrow = _EXACT.copy()
    narrow.prec = 5
    with pytest.raises((decimal.Inexact, decimal.Rounded)):
        narrow.multiply(123456, 7)
    narrow.traps[decimal.Inexact] = False
    with pytest.raises(decimal.Rounded):
        narrow.multiply(123456, 7)


def test_decide_renders_the_full_solution_bound(capsys):
    # A = B = 22: Bell(2) * 2^(35 * 22^3) has 372,681 bits and 112,189 digits
    code, rep = run_cli(capsys, "decide", "--expr", "3*x^20*2^x - 4*3^x = 0")
    assert code == 0
    assert rep["constants"] == {"A": "22", "B": "22"}
    with unlimited_int_str():
        assert rep["solution_bound"] == str(2 * 2 ** 372680)
    assert len(rep["solution_bound"]) == 112189


# --- input channels and errors ----------------------------------------------------


def test_file_and_json_inputs(tmp_path, capsys):
    f = tmp_path / "eq.txt"
    f.write_text("x + y = z")
    code, rep = run_cli(capsys, "decide", "--file", str(f))
    assert code == 0 and rep["status"] == "PR_COLUMNS"

    j = tmp_path / "eq.json"
    j.write_text(json.dumps(rep["class"]))
    code2, rep2 = run_cli(capsys, "decide", "--json", str(j))
    assert code2 == 0 and rep2["status"] == "PR_COLUMNS"
    assert rep2["class"] == rep["class"]


def test_usage_errors_exit_one(capsys):
    assert main(["decide"]) == 1
    capsys.readouterr()
    assert main(["decide", "--expr", "x + = 1"]) == 1
    capsys.readouterr()
    assert main(["decide", "--expr", "x = 1", "--file", "nope.txt"]) == 1
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["decide", "--file", "/no/such/file.txt"]) == 1
    capsys.readouterr()


def test_deep_nesting_is_a_one_line_error(capsys):
    for text in ("(" * 2000 + "x" + ")" * 2000 + " = y", "-" * 3000 + "x = y"):
        assert main(["decide", "--expr", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: more than 100 nested")


def test_long_sums_and_products_are_decided(capsys):
    code, rep = run_cli(capsys, "decide", "--expr", " + ".join(["x"] * 1500) + " = y")
    assert (code, rep["status"]) == (0, "NOT_PR")
    assert rep["class"]["A"] == [["1500", "-1"]]
    code, rep = run_cli(capsys, "decide", "--expr", "*".join(["x"] * 1500) + " = y")
    assert (code, rep["status"], rep["witness"]) == (0, "PR_CONSTANT", "1")


def test_power_of_a_sum_is_expanded_quickly(capsys):
    # 2^40 (w^40 - 1) on the diagonal; like terms combine at every product
    start = time.perf_counter()
    code, rep = run_cli(capsys, "decide", "--expr", "*".join(["(x + y)"] * 40) + " = %d" % 2 ** 40)
    assert time.perf_counter() - start < 1.0
    assert (code, rep["status"], rep["witness"]) == (0, "PR_CONSTANT", "1")


def test_expansion_over_budget_is_a_one_line_error(capsys):
    text = "*".join(["(a + b + c + d + e + f + g + h)"] * 10) + " = 1"
    assert main(["decide", "--expr", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expanding the products needs at least 10288 term products (cap 10000)\n"


def test_group_needs_three_variable_equation(capsys):
    assert main(["decide", "--expr", "x + y = z ; x - y = 0", "--group=2"]) == 1
    capsys.readouterr()


# --- console script ------------------------------------------------------------------


def test_console_script_matches_main():
    p = subprocess.run(
        [sys.executable, "-m", "prtoolkit.cli", "decide", "--expr", "x + y = z"],
        capture_output=True, text=True,
    )
    assert p.returncode == 0
    rep = json.loads(p.stdout)
    assert rep["status"] == "PR_COLUMNS"


def test_console_script_usage_error():
    p = subprocess.run(
        [sys.executable, "-m", "prtoolkit.cli", "decide", "--expr", "x +"],
        capture_output=True, text=True,
    )
    assert p.returncode == 1
    assert p.stdout.strip() == ""
    assert "error" in p.stderr


def test_closed_pipe_is_a_clean_exit_in_both_buffer_modes():
    # the 112,189-digit report is larger than a pipe buffer, so the write
    # meets EPIPE, both through the buffer and unbuffered (-u)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for flags in ([], ["-u"]):
        p = subprocess.Popen(
            [sys.executable, *flags, "-m", "prtoolkit.cli", "decide",
             "--expr", "3*x^20*2^x - 4*3^x = 0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert p.stdout.read(100).startswith(b"{")
        p.stdout.close()
        err = p.stderr.read().decode()
        p.stderr.close()
        assert p.wait(timeout=60) == EXIT_BROKEN_PIPE == 1, (flags, err)
        assert "Traceback" not in err, (flags, err)


class _ClosedStream(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stderr_leaves_stdout_descriptor_alone(tmp_path, monkeypatch):
    # only a closed stdout is the clean exit; an open stdout with a real
    # descriptor must not be pointed at the null device
    path = tmp_path / "out"
    with open(path, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", _ClosedStream())
        with pytest.raises(BrokenPipeError):
            main(["decide"])
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(path))
        monkeypatch.setattr(sys, "stderr", io.StringIO())
        assert main(["decide", "--expr", "x + y = z"]) == 0
    assert json.loads(path.read_text())["status"] == "PR_COLUMNS"


def test_closed_stdout_in_process_returns_broken_pipe_code(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStream())
    assert main(["decide", "--expr", "x + y = z"]) == EXIT_BROKEN_PIPE


@pytest.mark.parametrize("doc", [
    {"class": "linear_system", "A": [[1, 1, -1]], "vars": 7},
    {"class": "polyexp_equation", "vars": 5, "exp_vars": ["x"], "terms": []},
    {"class": "polyexp_equation", "vars": ["x"], "exp_vars": ["x"], "param": None,
     "terms": [{"characters": 5, "poly": [{"coeff": "1", "exps": [0]}]}]},
])
def test_malformed_json_fields_are_one_line_errors(tmp_path, capsys, doc):
    j = tmp_path / "bad.json"
    j.write_text(json.dumps(doc))
    assert main(["decide", "--json", str(j)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


# --- one parser per process ---------------------------------------------------


def _masked(rc, out, err):
    return rc, re.sub(r'"time_ms": \d+', '"time_ms": 0', out), err


def test_reused_parser_keeps_calls_independent():
    # each call must print what it prints when it is the first in its process
    eq = "20*9^x + 21*8^x - 19 = 0"   # reacts to both --bound 5 and --mmax 50
    calls = [
        ["search", "--expr", "x + y = z", "--range", "5", "--colors", "2", "--exclude-constant"],
        ["search", "--expr", "x + y = z", "--range", "5", "--colors", "2"],
        ["decide", "--expr", eq, "--bound", "5"],
        ["decide", "--expr", eq],
        ["decide"],
        ["decide", "--expr", "x + y = z"],
        ["decide", "--expr", eq, "--mmax", "50"],
        ["decide", "--expr", eq],
    ]
    in_process = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        in_process.append(_masked(rc, out.getvalue(), err.getvalue()))
    assert json.loads(in_process[1][1])["min_injectivity"] == 1
    assert in_process[2] != in_process[3] and in_process[6] != in_process[7]
    for argv, got in zip(calls, in_process):
        p = subprocess.run([sys.executable, "-m", "prtoolkit.cli", *argv],
                           capture_output=True, text=True)
        assert got == _masked(p.returncode, p.stdout, p.stderr), argv


def test_parser_is_built_once_per_process():
    cli._build_parser.cache_clear()
    with redirect_stdout(io.StringIO()):
        for _ in range(10):
            assert main(["decide", "--expr", "x + y = z"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 9)
