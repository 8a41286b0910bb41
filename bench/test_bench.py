"""Tests of the benchmark's own checks and harness.

Run from the root of the repository:  python3 -m pytest bench
The oracle checks are tested on cases small enough to scan every
coloring or every candidate outright.
"""

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import workloads
from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def colorable(solutions, N, colors):
    """Whether some coloring of [1..N] avoids every solution: a full scan."""
    return any(
        oracle.coloring_problem(list(c), N, colors, solutions) is None
        for c in itertools.product(range(colors), repeat=N)
    )


@pytest.mark.parametrize("N, avoiding", [(4, True), (5, False)])
def test_two_color_schur_boundary(N, avoiding):
    assert colorable(oracle.linear_solutions((1, 1, -1), N), N, 2) == avoiding


@pytest.mark.parametrize("N", [9, 10])
def test_quadruple_equation_forced_from_ten(N):
    sols = oracle.linear_solutions((1, 1, -4), N)
    want = oracle.expected_search_status("x+y=4z", 2, N)
    assert ("AVOIDING" if colorable(sols, N, 2) else "FORCED") == want


@pytest.mark.parametrize("N, avoiding", [(8, True), (9, False)])
def test_progressions_give_w_3_2(N, avoiding):
    # W(3;2) = 9 checks the progression enumerator used for W(3;3) and W(4;2)
    assert colorable(oracle.progressions(3, N), N, 2) == avoiding


def test_progressions_are_all_nonconstant_ones():
    brute = [t for t in itertools.product(range(1, 13), repeat=4)
             if len(set(t)) > 1 and t[0] + t[2] == 2 * t[1] and t[1] + t[3] == 2 * t[2]]
    assert sorted(oracle.progressions(4, 12)) == brute


def test_pythagorean_triples_match_a_triple_loop():
    brute = [(x, y, z) for x, y, z in itertools.product(range(1, 31), repeat=3) if x * x + y * y == z * z]
    assert oracle.pythagorean_triples(30) == brute


def test_rado_coloring_avoids_every_class():
    classes = workloads._rado_classes()
    assert len(classes) == 60
    for members in classes:
        for coeffs in members:
            p = oracle.rado_prime(coeffs)
            coloring = oracle.rado_coloring(p, 50)
            assert oracle.coloring_problem(coloring, 50, p - 1, oracle.linear_solutions(coeffs, 50)) is None


def test_coloring_problem_flags_a_monochromatic_solution():
    sols = oracle.linear_solutions((1, 1, -1), 4)
    assert oracle.coloring_problem([0, 1, 1, 0], 4, 2, sols) is None
    assert "monochromatic" in oracle.coloring_problem([0, 0, 1, 1], 4, 2, sols)
    assert oracle.coloring_problem([0, 1, 2, 0], 4, 2, sols) is not None
    assert oracle.coloring_problem([0, 1, 1], 4, 2, sols) is not None


def test_subset_sum_rule_matches_the_partition_search():
    for n in (1, 2, 3):
        for coeffs in itertools.product([c for c in range(-3, 4) if c], repeat=n):
            status, _ = oracle.linear_expectation(coeffs, 0, "N")
            assert (status != "NOT_PR") == oracle.columns_condition_holds([list(coeffs)]), coeffs


def test_constant_solution_rule_on_small_equations():
    # x + 2y = 6 has the constant solution 2; 2x + 3y = 7 has none in Z
    assert oracle.linear_expectation([1, 2], 6, "N") == ("PR_CONSTANT", 2)
    assert oracle.linear_expectation([2, 3], 7, "Z") == ("NOT_PR", None)
    # x - y + 2z = -4: the constant -2 lies in Z only, and {x, y} sums to 0
    assert oracle.linear_expectation([1, -1, 2], -4, "N") == ("PR_COLUMNS", None)
    assert oracle.linear_expectation([1, -1], 3, "N") == ("NOT_PR", None)
    assert oracle.diagonal_witnesses([1, -1], 0, "N") == "all"
    assert oracle.diagonal_witnesses([3, 2], -10, "N") == ()
    assert oracle.diagonal_witnesses([3, 2], -10, "Z") == (-2,)


def test_partition_check():
    matrix = [[1, -1, 2, 0], [0, 0, 1, -1]]
    assert oracle.partition_valid(matrix, [[1, 2], [3, 4]])
    assert not oracle.partition_valid(matrix, [[3, 4], [1, 2]])
    assert not oracle.partition_valid(matrix, [[1, 2], [3]])
    assert oracle.columns_condition_holds(matrix)
    assert not oracle.columns_condition_holds([[1, 1, 1]])


def test_square_roots_and_planted_witnesses():
    assert oracle.square_roots(10 ** 10, "N") == (10 ** 5,)
    assert oracle.square_roots(10 ** 10, "Z") == (-10 ** 5, 10 ** 5)
    assert oracle.square_roots(1000000016000000063, "N") == ()
    assert oracle.planted_witnesses([-3, 0, 4, 4], "N") == (4,)


def test_group_rank():
    assert oracle.group_rank([Fraction(2), Fraction(3)]) == 2
    assert oracle.group_rank([Fraction(4), Fraction(8)]) == 1
    assert oracle.group_rank([Fraction(-1)]) == 0
    assert oracle.group_rank([Fraction(2, 3), Fraction(5)]) == 2


def test_diagonal_and_zero_scan():
    # (x*y - z + 2)*2^x*3^y + ... collapses to (6, s^2 - s + 2), (35, 2s + 2), (143, s^2 - s + 3)
    diag = oracle.diagonal(oracle.merge_terms(workloads.CRITERION_3[1]))
    assert diag == {6: [2, -1, 1], 35: [2, 2], 143: [3, -1, 1]}
    assert oracle.diag_zeros(diag) == []
    diag = oracle.diagonal([((2,), {(0,): 1}), ((1,), {(0,): -4})])  # 2^s - 4
    assert oracle.diag_zeros(diag) == [2]
    assert oracle.diag_eval(diag, -1) == Fraction(-7, 2)


def test_hypothesis_pairs():
    assert oracle.hypothesis_holds([(2, 3), (5, 7), (11, 13)])
    assert not oracle.hypothesis_holds([(2,), (-2,)])
    assert oracle.hypothesis_holds([(2,), (4,)])
    assert not oracle.hypothesis_holds([(1,), (-1,)])
    assert oracle.hypothesis_holds([(2, 3), (4, 9)])
    assert not oracle.hypothesis_holds([(2, 3), (3, 2)])  # 2^t 3^t = 3^t 2^t for every t


def test_polyexp_verdict_rules():
    diag = {2: [0, 1], 3: [1]}  # s 2^s + 3^s
    assert oracle.polyexp_verdict_problem(diag, True, "NOT_PR", None, []) is None
    assert oracle.polyexp_verdict_problem(diag, False, "NOT_PR", None, [])[0] == "wrong"
    assert oracle.polyexp_verdict_problem(diag, True, "UNKNOWN", None, [])[0] == "error"
    assert oracle.polyexp_verdict_problem(diag, False, "UNKNOWN", None, []) is None
    zero = {2: [1], 1: [-4]}
    assert oracle.polyexp_verdict_problem(zero, True, "PR_CONSTANT", 2, [2]) is None
    assert oracle.polyexp_verdict_problem(zero, True, "PR_CONSTANT", 3, [2])[0] == "wrong"
    assert oracle.polyexp_verdict_problem(zero, True, "NOT_PR", None, [2])[0] == "wrong"


def test_modular_certificate_check():
    diag = {3: [2], 1: [1]}  # 2 * 3^s + 1 is odd
    assert oracle.modular_certificate_valid(diag, 2, 1, [1])
    assert not oracle.modular_certificate_valid(diag, 2, 1, [0])
    assert not oracle.modular_certificate_valid(diag, 3, 1, [1])  # 3 is a base
    diag = {2: [0, 1], 3: [1]}  # s 2^s + 3^s: period must cover 5 too
    assert not oracle.modular_certificate_valid(diag, 5, 4, [1, 0, 3, 4])


def test_unit_recount_matches_a_double_loop():
    gens = [Fraction(-1), Fraction(2)]
    assert oracle.unit_solutions(1, 1, gens, 6) == sorted(
        [(Fraction(2), Fraction(-1)), (Fraction(-1), Fraction(2)), (Fraction(1, 2), Fraction(1, 2))])
    box = oracle.box_elements([Fraction(-1), Fraction(2), Fraction(3)], 2)
    for a, b in ((2, -3), (1, 3)):
        brute = sorted((x, y) for x in box for y in box if a * x + b * y == 1)
        assert oracle.unit_solutions(a, b, [-1, 2, 3], 2) == brute


def test_checks_reject_wrong_reports():
    check = workloads._check_linear([1, 1, -1], 0, "N")
    good = {"status": "PR_COLUMNS", "witness": None, "certificates": {"partition": [[1, 3], [2]]}}
    assert check((0, json.dumps(good), "")) is None
    bad_status = dict(good, status="NOT_PR", certificates={})
    assert check((0, json.dumps(bad_status), ""))[0] == "wrong"
    bad_partition = dict(good, certificates={"partition": [[1, 2], [3]]})
    assert check((0, json.dumps(bad_partition), ""))[0] == "wrong"
    assert check((2, "", "unknown: budget"))[0] == "error"


def test_workloads_are_seeded_and_fixed_failures_are_not():
    for name in workloads.WORKLOADS:
        a = [op.label for op in workloads.build(name, 7)]
        assert a == [op.label for op in workloads.build(name, 7)]
        b = [op.label for op in workloads.build(name, 8)]
        assert a != b and len(a) == len(b) >= 100
    fixed = {op.label for op in workloads._fixed_decide_failures()}
    assert fixed <= {op.label for op in workloads.build("decide_mix", 1)}
    assert fixed <= {op.label for op in workloads.build("decide_mix", 2)}


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in LAYER_METRICS]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", ["0", "1"])
def test_harness_prints_the_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench("--workload", "decide_mix", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    per_round = len(workloads.build("decide_mix", 3))
    rounds = result["attempted"] // per_round
    assert result["attempted"] == per_round * rounds and result["failed"] == 3 * rounds
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_harness_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
