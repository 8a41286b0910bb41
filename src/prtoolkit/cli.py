"""Command-line front end: decide, search, enumerate, certify, rank, bound.

Reports are JSON on standard output.  Exit codes: 0 when a question was
decided (either way), 2 when the outcome is UNKNOWN, 1 for usage or
parse errors and when standard output is closed before the report is
written (``prtoolkit ... | head``).  Every numeric value that can grow
beyond 53 bits is serialized as a decimal string; nothing is ever
emitted as a float.
Certificates embedded in a report are re-verified before emission.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional, Sequence

from .algebra import IncompleteFactorization, constant_solutions, least_witness
from .diophantine import decide_twovar
from .equations import (
    ClassifyError,
    GeneralPolySystem,
    LinearSystem,
    ParseError,
    SchemaError,
    TwoVarPolySystem,
    _num,
    class_from_json,
    class_to_json,
    classify,
    parse_equation_text,
)
from .polyexp import (
    DEFAULT_MODULUS_CAP,
    ConstantSolutionResult,
    DominanceCertificate,
    ExpSum,
    HypothesisReport,
    ModularCertificate,
    PolyExpEquation,
    bell_number,
    compute_constants,
    decide_constant_solution,
    decide_polyexp_pr,
    diagonalize,
    modular_certificate_search,
    solution_count_bound,
    verify_modular,
)
from .rado import DEFAULT_COLUMN_CAP, decide_linear, verify_columns_condition
from .ramsey import (
    BudgetExceeded,
    enumerate_solutions,
    filter_injectivity,
    search_avoiding_coloring,
)
from .sunit import (
    make_group,
    sunit_solution_bound,
    decide_sunit_3var,
    two_term_unit_bound,
)

EXIT_DECIDED = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
# a reader that closes the pipe early: 1, as in the SIGPIPE note of the
# Python `signal` docs
EXIT_BROKEN_PIPE = 1

# certified bounds above this many bits (about 180,000 digits) are
# reported in factored form instead of in full
_MAX_BOUND_BITS = 600_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # shared by later calls: no argument has a mutable default
    p = _Parser(prog="prtoolkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--expr", help="equation text, e.g. 'x + y = z'")
        sp.add_argument("--file", help="file containing equation text")
        sp.add_argument("--json", help="file containing a classified-equation JSON")

    d = sub.add_parser("decide", help="decide partition regularity")
    add_input(d)
    d.add_argument("--domain", choices=["N", "Z"], default="N")
    d.add_argument("--group", help="comma-separated generators: decide over this subgroup of Q*")
    d.add_argument("--bound", type=int, help="user search bound for the constant-solution scan")
    d.add_argument("--mmax", type=int, default=DEFAULT_MODULUS_CAP,
                   help="modulus cap for a modular certificate of period <= window width")
    d.add_argument("--cap", type=int, default=DEFAULT_COLUMN_CAP,
                   help="column cap of the columns-condition search for systems "
                   "of two or more equations")

    s = sub.add_parser("search", help="search for an avoiding coloring of [1..N]")
    add_input(s)
    s.add_argument("--range", type=int, required=True, metavar="N")
    s.add_argument("--colors", type=int, required=True)
    s.add_argument("--min-injectivity", type=int, default=1)
    s.add_argument("--exclude-constant", action="store_true",
                   help="ignore constant solutions (injectivity >= 2)")

    e = sub.add_parser("enumerate", help="list all solutions inside [1..N]")
    add_input(e)
    e.add_argument("--range", type=int, required=True, metavar="N")
    e.add_argument("--min-injectivity", type=int, default=1)

    c = sub.add_parser("certify", help="search a modular certificate for the diagonal sum")
    add_input(c)
    c.add_argument("--mmax", type=int, default=DEFAULT_MODULUS_CAP)

    r = sub.add_parser("rank", help="rank and bounds for a subgroup of Q*")
    r.add_argument("--group", required=True, help="comma-separated generators, e.g. '-1,2,3/5'")

    b = sub.add_parser("bound", help="solution-count bound for a polyexponential equation")
    add_input(b)
    b.add_argument("--degree", type=int, default=1, help="number-field degree d")

    return p


def _load_class(args):
    sources = [s for s in (args.expr, args.file, getattr(args, "json", None)) if s]
    if len(sources) != 1:
        raise _UsageError("exactly one of --expr, --file, --json is required")
    if args.expr is not None:
        return classify(parse_equation_text(args.expr))
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            return classify(parse_equation_text(fh.read()))
    with open(args.json, "r", encoding="utf-8") as fh:
        return class_from_json(json.load(fh))


def _parse_group(text: str) -> List[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise _UsageError("bad group generators %r: %s" % (text, e))


# ---------------------------------------------------------------------
# certificate serialization


def _expsum_json(g: ExpSum) -> dict:
    return {
        "bases": [_num(b) for b, _ in g.terms],
        "coeffs": [[_num(c) for c in p.coeffs] for _, p in g.terms],
    }


def _dominance_json(cert: DominanceCertificate) -> dict:
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


def _modular_json(cert: ModularCertificate) -> dict:
    return {
        "modulus": _num(cert.modulus),
        "period": _num(cert.period),
        "residues": [_num(r) for r in cert.residues],
    }


def _hypothesis_json(h: HypothesisReport) -> dict:
    failing = None
    if h.failing_partition is not None:
        failing = [[i + 1 for i in block] for block in h.failing_partition]
    return {
        "checked_partitions": h.checked_partitions,
        "trivial_for_all": h.trivial_for_all,
        "failing_partition": failing,
        "coprime": h.coprime,
        "unit_entry_warning": h.unit_entry_warning,
        "degenerate_possible": h.degenerate_possible,
    }


def _witness_json(report: dict, witness, witnesses) -> None:
    report["witness"] = None if witness is None else _num(witness)
    report["witnesses"] = witnesses if witnesses == "all" else [_num(w) for w in witnesses]


def _constant_result_json(res: ConstantSolutionResult) -> dict:
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


# ---------------------------------------------------------------------
# subcommands


def _cmd_decide(args) -> int:
    t0 = time.monotonic()
    cls = _load_class(args)
    report = {
        "command": "decide",
        "class": class_to_json(cls),
        "domain": args.domain,
        "certificates": {},
        "notes": [],
    }

    if args.group:
        gens = _parse_group(args.group)
        if not (
            isinstance(cls, LinearSystem)
            and cls.matrix.m == 1
            and cls.matrix.n == 3
            and all(v == 0 for v in cls.rhs)
            and all(c != 0 for c in cls.matrix.rows[0])
        ):
            raise _UsageError(
                "--group applies to a single homogeneous linear equation "
                "in three variables with nonzero coefficients"
            )
        a, b, c = cls.matrix.rows[0]
        verdict = decide_sunit_3var(a, b, c, group=gens)
        report["group"] = [_num(g) for g in gens]
        report["status"] = verdict.status
        report["coefficient_sum"] = _num(verdict.coefficient_sum)
        report["rank"] = verdict.rank
        report["solution_bound"] = None if verdict.bound is None else _num(verdict.bound)
        report["notes"].append(verdict.note)
        report["summary"] = "%s over the given group (coefficient sum %s)" % (
            verdict.status, report["coefficient_sum"])
        report["time_ms"] = int((time.monotonic() - t0) * 1000)
        _emit(report)
        return EXIT_DECIDED

    if isinstance(cls, LinearSystem):
        verdict = decide_linear(cls, domain=args.domain, cap=args.cap)
        report["status"] = verdict.status
        report["homogeneous"] = verdict.homogeneous
        report["witness"] = None if verdict.witness is None else _num(verdict.witness)
        if verdict.partition is not None:
            if not verify_columns_condition(cls.matrix, verdict.partition):
                raise RuntimeError("internal error: partition failed re-verification")
            report["certificates"]["partition"] = [list(b) for b in verdict.partition]
        if verdict.integer_constant is not None:
            report["integer_constant"] = _num(verdict.integer_constant)
        if verdict.note:
            report["notes"].append(verdict.note)
        if len(cls.variables) <= 2:
            # each row's diagonal has degree at most 1, so the witness is
            # the only one, or every constant is one
            w = verdict.witness
            report["infinitely_pr"] = w == "all"
            report["witnesses"] = "all" if w == "all" else [] if w is None else [_num(w)]
        report["summary"] = "%s (linear system over %s)" % (verdict.status, args.domain)

    elif isinstance(cls, TwoVarPolySystem):
        verdict = decide_twovar(cls, domain=args.domain)
        report["status"] = verdict.status
        _witness_json(report, verdict.witness, verdict.witnesses)
        report["infinitely_pr"] = verdict.infinitely_pr
        report["divisible_by_x_minus_y"] = verdict.infinitely_pr
        report["summary"] = "%s (two-variable polynomial system over %s)" % (
            verdict.status, args.domain)

    elif isinstance(cls, PolyExpEquation):
        if args.domain == "N":
            report["notes"].append(
                "polyexponential equations are decided over Z (ground set of "
                "the constant-solution criterion)"
            )
        verdict = decide_polyexp_pr(cls, user_bound=args.bound, m_max=args.mmax)
        report["status"] = verdict.status
        if verdict.hypothesis is not None:
            report["hypothesis"] = _hypothesis_json(verdict.hypothesis)
        if verdict.diagonal is not None:
            report["diagonal"] = _expsum_json(verdict.diagonal)
        if verdict.result is not None:
            report["constant_solution"] = _constant_result_json(verdict.result)
            if verdict.result.dominance is not None:
                report["certificates"]["dominance"] = _dominance_json(
                    verdict.result.dominance)
            if verdict.result.modular is not None:
                report["certificates"]["modular"] = _modular_json(
                    verdict.result.modular)
        constants = compute_constants(cls)
        report["constants"] = {"A": _num(constants.A), "B": _num(constants.B)}
        bits = 35 * constants.B ** 3
        if bits <= _MAX_BOUND_BITS:
            report["solution_bound"] = _num(solution_count_bound(cls))
        else:
            report["notes"].append(
                "solution-count bound omitted: 2^(35 B^3) needs %d bits" % bits)
        report["notes"].extend(verdict.notes)
        report["summary"] = "%s (polyexponential equation over Z)" % verdict.status

    elif isinstance(cls, GeneralPolySystem):
        # PR by a constant solution, NOT_PR by an equation c = 0 (c != 0), else UNKNOWN
        constant = [p.eval([0] * len(cls.variables)) for p in cls.polys if p.degree() == 0]
        incomplete = None
        try:
            found = constant_solutions([p.diagonal() for p in cls.polys], args.domain)
        except IncompleteFactorization as exc:
            found, incomplete = (), exc
        if constant:
            report["status"] = "NOT_PR"
            report["notes"].append("an equation reduces to %s = 0: no solution" % _num(constant[0]))
        elif found:
            report["status"] = "PR_CONSTANT"
            ground_least = 1 if args.domain == "N" else 0
            _witness_json(report, ground_least if found == "all" else least_witness(found), found)
        else:
            report["status"] = "UNKNOWN"
            report["notes"].append(
                "no decision procedure for this polynomial system beyond its "
                "constant solutions; try `search` for finite evidence"
                if incomplete is None else
                "the constant-solution search stopped on an incomplete "
                "factorization: %s" % incomplete
            )
        report["summary"] = "%s (general polynomial system)" % report["status"]

    else:
        raise _UsageError("unsupported equation class")

    report["time_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    return EXIT_DECIDED if report["status"] != "UNKNOWN" else EXIT_UNKNOWN


def _cmd_search(args) -> int:
    t0 = time.monotonic()
    cls = _load_class(args)
    if args.min_injectivity < 1:
        raise _UsageError("injectivity threshold must be at least 1")
    min_inj = max(args.min_injectivity, 2 if args.exclude_constant else 1)
    result = search_avoiding_coloring(cls, args.range, args.colors,
                                      min_injectivity=min_inj)
    report = {
        "command": "search",
        "class": class_to_json(cls),
        "N": args.range,
        "colors": args.colors,
        "min_injectivity": min_inj,
        "status": result.status,
        "coloring": None if result.coloring is None else list(result.coloring),
        "nodes": result.nodes,
        "solution_count": result.solution_count,
    }
    if result.note:
        report["note"] = result.note
    if result.status == "AVOIDING":
        report["verified"] = True  # search_avoiding_coloring checked it
    report["time_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    return EXIT_DECIDED if result.status != "UNKNOWN" else EXIT_UNKNOWN


def _cmd_enumerate(args) -> int:
    t0 = time.monotonic()
    cls = _load_class(args)
    if args.min_injectivity < 1:
        raise _UsageError("injectivity threshold must be at least 1")
    if args.min_injectivity > len(cls.variables):
        raise _UsageError("injectivity threshold exceeds tuple arity")
    try:
        solutions = enumerate_solutions(cls, args.range)
    except BudgetExceeded as e:
        _emit({
            "command": "enumerate",
            "class": class_to_json(cls),
            "N": args.range,
            "status": "UNKNOWN",
            "note": str(e),
        })
        return EXIT_UNKNOWN
    if args.min_injectivity > 1:
        solutions = filter_injectivity(solutions, args.min_injectivity)
    _emit({
        "command": "enumerate",
        "class": class_to_json(cls),
        "N": args.range,
        "min_injectivity": args.min_injectivity,
        "variables": list(cls.variables),
        "count": len(solutions),
        "solutions": [list(s) for s in solutions],
        "time_ms": int((time.monotonic() - t0) * 1000),
    })
    return EXIT_DECIDED


def _cmd_certify(args) -> int:
    t0 = time.monotonic()
    cls = _load_class(args)
    if not isinstance(cls, PolyExpEquation):
        raise _UsageError("certify expects a polyexponential equation")
    g = diagonalize(cls)
    # a zero of g rules out every modulus, so one is looked for first in
    # the certified window, as decide does; m_max=1 tries no modulus there
    try:
        scan = decide_constant_solution(g, m_max=1)
    except IncompleteFactorization:  # no window, so the search decides alone
        scan = ConstantSolutionResult("UNKNOWN")
    cert = None if scan.status == "FOUND" else modular_certificate_search(g, args.mmax)
    report = {
        "command": "certify",
        "class": class_to_json(cls),
        "diagonal": _expsum_json(g),
        "mmax": args.mmax,
        "found": cert is not None,
        "time_ms": int((time.monotonic() - t0) * 1000),
    }
    if cert is None:
        report["note"] = (
            "g(%s) = 0, so no modulus certifies the sum nonvanishing; none was tried"
            % _num(scan.witness)
            if scan.status == "FOUND"
            else "no modulus up to the cap certifies the sum nonvanishing; absence proves nothing"
        )
        _emit(report)
        return EXIT_UNKNOWN
    if not verify_modular(g, cert):
        raise RuntimeError("internal error: modular certificate failed re-verification")
    report["certificate"] = _modular_json(cert)
    report["verified"] = True
    _emit(report)
    return EXIT_DECIDED


def _cmd_rank(args) -> int:
    t0 = time.monotonic()
    gens = _parse_group(args.group)
    spec = make_group(gens)
    _emit({
        "command": "rank",
        "generators": [_num(g) for g in spec.generators],
        "primes": [_num(p) for p in spec.primes],
        "exponents": [[_num(e) for e in row] for row in spec.exponents],
        "signs": list(spec.signs),
        "rank": spec.rank,
        "solution_bound": _num(sunit_solution_bound(spec.rank)),
        "two_term_bound": _num(two_term_unit_bound(spec.rank)),
        "time_ms": int((time.monotonic() - t0) * 1000),
    })
    return EXIT_DECIDED


def _cmd_bound(args) -> int:
    t0 = time.monotonic()
    cls = _load_class(args)
    if not isinstance(cls, PolyExpEquation):
        raise _UsageError("bound expects a polyexponential equation")
    if args.degree < 1:
        raise _UsageError("--degree must be at least 1")
    constants = compute_constants(cls)
    m = len(cls.terms)
    bell = bell_number(m)
    report = {
        "command": "bound",
        "class": class_to_json(cls),
        "m": m,
        "n": len(cls.exp_vars),
        "degree": args.degree,
        "A": _num(constants.A),
        "B": _num(constants.B),
        "bell_m": _num(bell),
    }
    B = constants.B
    bits = 35 * B ** 3 + 6 * B ** 2 * max(args.degree.bit_length() - 1, 0)
    if bits <= _MAX_BOUND_BITS:
        report["bound"] = _num(solution_count_bound(cls, args.degree))
    else:
        report["bound_factored"] = {
            "bell_m": _num(bell),
            "power_of_two_exponent": _num(35 * B ** 3),
            "degree": _num(args.degree),
            "degree_exponent": _num(6 * B ** 2),
        }
        report["note"] = "full decimal expansion suppressed (%d bits)" % bits
    report["time_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    return EXIT_DECIDED


class _StdoutClosed(Exception):
    """Standard output was closed before the report was written."""


def _emit(report: dict) -> None:
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        # a closed pipe raises here, inside main, and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()
        raise _StdoutClosed from None


_HANDLERS = {
    "decide": _cmd_decide,
    "search": _cmd_search,
    "enumerate": _cmd_enumerate,
    "certify": _cmd_certify,
    "rank": _cmd_rank,
    "bound": _cmd_bound,
}


def _discard_stdout() -> None:
    # Python flushes stdout again at exit: send that flush to the null
    # device.  A stdout without a descriptor (a StringIO) is left alone.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # input literals may exceed the default int/str digit limit; the
    # caller's limit is restored on return, for the rest of its process
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(400_000)
    try:
        return _dispatch(argv)
    except _StdoutClosed:
        return EXIT_BROKEN_PIPE
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (_UsageError, ParseError, ClassifyError, SchemaError, FileNotFoundError,
            ValueError, json.JSONDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (IncompleteFactorization, BudgetExceeded) as e:
        print("unknown: %s" % e, file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
