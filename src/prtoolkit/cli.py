"""Command-line front end: decide, search, enumerate, certify, rank, bound.

Reports are JSON on standard output, each ending with its `time_ms`.
Exit codes: 0 when a question was decided (either way), 2 when the
report's `status` is UNKNOWN or its `found` is false, 1 for usage or
parse errors and when standard output is closed before the report is
written (``prtoolkit ... | head``).  Every numeric value that can grow
beyond 53 bits is serialized as a decimal string; nothing is ever
emitted as a float.  Each handler only builds its report; `_dispatch`
alone times, writes and scores it.  A certificate in a report was
re-verified by the function that made it before that function returned.
When the first argument names a subcommand, only its parser reads the
rest; other argument lists go through the full parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# Only the modules every subcommand needs are imported here; each
# handler imports the decision module it calls, so `decide` on a linear
# system never loads polyexp, ramsey, sunit or diophantine.
from .algebra import BudgetExceeded, IncompleteFactorization, Record
from .equations import (
    ClassifyError,
    GeneralPolySystem,
    LinearSystem,
    ParseError,
    PolyExpEquation,
    SchemaError,
    TwoVarPolySystem,
    _num,
    class_from_json,
    class_to_json,
    classify,
    parse_equation_text,
)

if TYPE_CHECKING:
    from .polyexp import ConstantSolutionResult, ExpSum, HypothesisReport

EXIT_DECIDED = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
# a reader that closes the pipe early: 1, as in the SIGPIPE note of the
# Python `signal` docs
EXIT_BROKEN_PIPE = 1

# `bound` writes the solution-count bound in full up to this many bits
# (about 180,000 digits), and by its factors above
_MAX_BOUND_BITS = 600_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    """The full parser, and each subcommand's own parser by name."""
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
    d.add_argument("--group", help="comma-separated generators: decide over this subgroup of Q*, "
                   "e.g. --group=-1,2,3/5")
    d.add_argument("--bound", type=int, help="user search bound for the constant-solution scan")
    # None stands for the deciding module's own default, so that building
    # the parser imports neither polyexp nor rado
    d.add_argument("--mmax", type=int,
                   help="modulus cap for a modular certificate of period <= window width")
    d.add_argument("--cap", type=int,
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
    c.add_argument("--mmax", type=int)

    r = sub.add_parser("rank", help="rank and bounds for a subgroup of Q*")
    r.add_argument("--group", required=True, help="comma-separated generators, e.g. --group=-1,2,3/5")

    b = sub.add_parser("bound", help="solution-count bound for a polyexponential equation")
    add_input(b)
    b.add_argument("--degree", type=int, default=1, help="number-field degree d")

    return p, {"decide": d, "search": s, "enumerate": e, "certify": c, "rank": r, "bound": b}


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The full parser's Namespace for `argv`.  When argv[0] names a
    subcommand, its parser reads the rest, as the full parser would hand
    it over; any other argv goes through the full parser."""
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv)


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


def _record_json(rec: Record) -> dict:
    """The fields of a record, in declaration order, as report values:
    tuples become lists, str, bool and None pass through, nested records
    recurse, and numbers become exact decimal strings by `_num`."""
    return {f: _json_value(getattr(rec, f)) for f in rec._fields}


def _json_value(v):
    """`v` as a report value, by the rules of `_record_json`."""
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, Record):
        return _record_json(v)
    return _num(v)


def _hypothesis_json(h: HypothesisReport) -> dict:
    out = _record_json(h)
    if h.failing_partition is not None:  # blocks of 1-based term numbers
        out["failing_partition"] = [[i + 1 for i in block] for block in h.failing_partition]
    return out


def _constant_result_json(res: ConstantSolutionResult, certificates: dict) -> dict:
    """`res` as a report's constant_solution; its certificates move to `certificates`."""
    out = _record_json(res)
    for kind in ("dominance", "modular"):
        cert = out.pop(kind)
        if cert is not None:
            certificates[kind] = cert
    if not res.note:
        del out["note"]
    return out


# ---------------------------------------------------------------------
# subcommands


def _require_positive(args, name: str) -> None:
    value = getattr(args, name)
    if value is not None and value < 1:
        raise _UsageError("--%s must be at least 1" % name)


def _cmd_decide(args) -> dict:
    _require_positive(args, "mmax")
    _require_positive(args, "cap")
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
        from .sunit import decide_sunit_3var

        a, b, c = cls.matrix.rows[0]
        verdict = decide_sunit_3var(a, b, c, group=gens)
        report["group"] = [_num(g) for g in gens]
        report["status"] = verdict.status
        # x = y = z = g solves a zero-sum equation for every g in the group
        report["witness"] = "all" if verdict.status == "PR_CONSTANT" else None
        report["coefficient_sum"] = _num(verdict.coefficient_sum)
        report["rank"] = verdict.rank
        report["solution_bound"] = _json_value(verdict.bound)
        report["notes"].append(verdict.note)
        report["summary"] = "%s over the given group (coefficient sum %s)" % (
            verdict.status, report["coefficient_sum"])

    elif isinstance(cls, LinearSystem):
        from .rado import DEFAULT_COLUMN_CAP, decide_linear

        verdict = decide_linear(cls, domain=args.domain, cap=args.cap or DEFAULT_COLUMN_CAP)
        report["status"] = verdict.status
        report["homogeneous"] = verdict.homogeneous
        report["witness"] = _json_value(verdict.witness)
        if verdict.partition is not None:
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

    elif isinstance(cls, (TwoVarPolySystem, GeneralPolySystem)):
        from .diophantine import decide_twovar

        verdict = decide_twovar(cls, domain=args.domain)
        two_var = isinstance(cls, TwoVarPolySystem)
        report["status"] = verdict.status
        if verdict.note:
            report["notes"].append(verdict.note)
        if two_var or verdict.status == "PR_CONSTANT":
            report["witness"] = _json_value(verdict.witness)
            report["witnesses"] = _json_value(verdict.witnesses)
        if two_var:
            report["infinitely_pr"] = verdict.infinitely_pr
            report["divisible_by_x_minus_y"] = verdict.infinitely_pr
            report["summary"] = "%s (two-variable polynomial system over %s)" % (
                verdict.status, args.domain)
        else:
            report["summary"] = "%s (general polynomial system)" % verdict.status

    elif isinstance(cls, PolyExpEquation):
        from .polyexp import DEFAULT_MODULUS_CAP, bell_number, compute_constants, decide_polyexp_pr

        if args.domain == "N":
            report["notes"].append(
                "polyexponential equations are decided over Z (ground set of "
                "the constant-solution criterion)"
            )
        verdict = decide_polyexp_pr(cls, user_bound=args.bound,
                                    m_max=args.mmax or DEFAULT_MODULUS_CAP)
        report["status"] = verdict.status
        if verdict.hypothesis is not None:
            report["hypothesis"] = _hypothesis_json(verdict.hypothesis)
        if verdict.diagonal is not None:
            report["diagonal"] = _expsum_json(verdict.diagonal)
        if verdict.result is not None:
            report["constant_solution"] = _constant_result_json(
                verdict.result, report["certificates"])
        constants = compute_constants(cls)
        report["constants"] = {"A": _num(constants.A), "B": _num(constants.B)}
        report["solution_bound_factored"] = _bound_factored(
            bell_number(len(cls.terms)), constants.B, 1)
        report["notes"].extend(verdict.notes)
        report["summary"] = "%s (polyexponential equation over Z)" % verdict.status

    else:
        raise _UsageError("unsupported equation class")
    return report


def _cmd_search(args) -> dict:
    from .ramsey import search_avoiding_coloring

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
    return report


def _cmd_enumerate(args) -> dict:
    from .ramsey import enumerate_solutions, filter_injectivity

    cls = _load_class(args)
    if args.min_injectivity < 1:
        raise _UsageError("injectivity threshold must be at least 1")
    if args.min_injectivity > len(cls.variables):
        raise _UsageError("injectivity threshold exceeds tuple arity")
    report = {"command": "enumerate", "class": class_to_json(cls), "N": args.range}
    try:
        solutions = enumerate_solutions(cls, args.range)
    except BudgetExceeded as e:
        report.update(status="UNKNOWN", note=str(e))
        return report
    if args.min_injectivity > 1:
        solutions = filter_injectivity(solutions, args.min_injectivity)
    report.update(min_injectivity=args.min_injectivity, variables=list(cls.variables),
                  count=len(solutions), solutions=solutions)
    return report


def _cmd_certify(args) -> dict:
    from .polyexp import DEFAULT_MODULUS_CAP, diagonalize

    _require_positive(args, "mmax")
    m_max = args.mmax or DEFAULT_MODULUS_CAP
    cls = _load_class(args)
    if not isinstance(cls, PolyExpEquation):
        raise _UsageError("certify expects a polyexponential equation")
    g = diagonalize(cls)
    cert, note = _least_certificate(g, m_max)
    report = {
        "command": "certify",
        "class": class_to_json(cls),
        "diagonal": _expsum_json(g),
        "mmax": m_max,
        "found": cert is not None,
    }
    if cert is None:
        report["note"] = note
    else:
        report["certificate"] = _record_json(cert)
        report["verified"] = True  # modular_certificate_search checked it
    return report


def _least_certificate(g, m_max: int):
    """(least modular certificate of g up to m_max, or None; the note for None).

    decide's call comes first: a zero rules out every modulus, and its
    certificate never dies, so the full search stops at that modulus.
    """
    from .polyexp import ConstantSolutionResult, decide_constant_solution, modular_certificate_search

    try:
        res = decide_constant_solution(g, m_max=m_max)
    except IncompleteFactorization:  # no window, so the search decides alone
        res = ConstantSolutionResult("UNKNOWN")
    if res.status == "FOUND":
        return None, "g(%s) = 0, so no modulus certifies the sum nonvanishing" % _num(res.witness)
    try:
        cert = modular_certificate_search(g, res.modular.modulus if res.modular else m_max)
    except BudgetExceeded as e:
        return None, "%s; absence proves nothing" % e
    return cert, "no modulus up to the cap certifies the sum nonvanishing; absence proves nothing"


def _cmd_rank(args) -> dict:
    from .sunit import make_group, sunit_solution_bound, two_term_unit_bound

    spec = make_group(_parse_group(args.group))
    return {
        "command": "rank",
        "generators": [_num(g) for g in spec.generators],
        "primes": [_num(p) for p in spec.primes],
        "exponents": [[_num(e) for e in row] for row in spec.exponents],
        "signs": list(spec.signs),
        "rank": spec.rank,
        "solution_bound": _num(sunit_solution_bound(spec.rank)),
        "two_term_bound": _num(two_term_unit_bound(spec.rank)),
    }


def _bound_factored(bell: int, B: int, d: int) -> dict:
    """The paper's solution-count bound Bell(m) * 2^(35 B^3) * d^(6 B^2), by its factors."""
    return {
        "bell_m": _num(bell),
        "power_of_two_exponent": _num(35 * B ** 3),
        "degree": _num(d),
        "degree_exponent": _num(6 * B ** 2),
    }


def _cmd_bound(args) -> dict:
    from .polyexp import bell_number, compute_constants, solution_count_bound

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
    # a lower estimate, so that a huge --degree is never expanded: it
    # leaves out Bell(m) and rounds log2 d down
    bits = 35 * B ** 3 + 6 * B ** 2 * (args.degree.bit_length() - 1)
    if bits <= _MAX_BOUND_BITS:
        bound = solution_count_bound(cls, args.degree)
        bits = bound.bit_length()
    if bits <= _MAX_BOUND_BITS:
        report["bound"] = _num(bound)
    else:
        report["bound_factored"] = _bound_factored(bell, B, args.degree)
        report["note"] = "full decimal expansion suppressed (%d bits)" % bits
    return report


class _StdoutClosed(Exception):
    """Standard output was closed before the report was written."""


def _json_text(value, indent: str = "\n") -> str:
    """`value` as `json.dumps(value, indent=2)` writes it, by the C string encoder.

    Reports hold dicts with str keys, lists, tuples, str, int, bool and
    None; any other type, a float included, raises TypeError.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError("report keys are str, not %s" % type(key).__name__)
            items.append(_quote(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(item, inner) for item in value]) + indent + "]"
    raise TypeError("a report holds no %s" % type(value).__name__)


def _emit(report: dict) -> None:
    try:
        sys.stdout.write(_json_text(report))
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
    """Parse argv, run its handler, and time, write and score the report."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    t0 = time.monotonic()
    try:
        report = _HANDLERS[args.command](args)
    except (_UsageError, ParseError, ClassifyError, SchemaError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except (IncompleteFactorization, BudgetExceeded) as e:
        print("unknown: %s" % e, file=sys.stderr)
        return EXIT_UNKNOWN
    report["time_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(report)
    if report.get("status") == "UNKNOWN" or report.get("found") is False:
        return EXIT_UNKNOWN
    return EXIT_DECIDED

if __name__ == "__main__":
    sys.exit(main())
