"""Partition regularity of polynomial systems by their constant solutions.

A constant solution x = y = .. = w is monochromatic under every
coloring, so it proves a system partition regular over {1, 2, ...}.
PAPER.md's two-variable application of its main theorem gives the
converse in at most two variables, and NOT_PR there rests on it until a
coloring certificate is emitted (ROADMAP item 16).  In three or more
variables the lack of one proves nothing: x^2 + y^2 = z^2 has none,
yet every 2-coloring of [1..7825] has a monochromatic triple (Heule,
Kullmann and Marek, arXiv:1605.00723).

The witnesses are the common integer roots in the ground set of the
diagonals D_i(w) = P_i(w, .., w) (`algebra.constant_solutions`); every
w is one exactly when every D_i vanishes identically, i.e. in two
variables when (x - y) divides every P_i.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .algebra import IncompleteFactorization, Record, constant_solutions, least_witness
from .equations import GeneralPolySystem, TwoVarPolySystem, _num


class TwoVarVerdict(Record):
    """Constant-solution analysis of a polynomial system.

    `witnesses` is the marker "all" when every ground-set element is a
    witness (equivalently `infinitely_pr`), otherwise the finite tuple of
    witnesses in ascending order.  `witness` is the least by absolute
    value, nonnegative first.  `note` gives the reason for an UNKNOWN or
    for a NOT_PR by an equation c = 0 with c != 0.
    """

    status: str  # "PR_CONSTANT" | "NOT_PR" | "UNKNOWN"
    witnesses: Union[str, Tuple[int, ...]]
    witness: Optional[int]
    infinitely_pr: bool
    domain: str
    note: str = ""


def decide_twovar(
    system: Union[TwoVarPolySystem, GeneralPolySystem], domain: str = "N"
) -> TwoVarVerdict:
    """Decide partition regularity via constant solutions.

    Domain "N" admits witnesses w >= 1, domain "Z" any integer witness.
    An equation c = 0 with c != 0 holds nowhere: NOT_PR.  A witness
    gives PR_CONSTANT; none gives NOT_PR in at most two variables and
    UNKNOWN in more, as does a root search stopped by an incomplete
    factorization.
    """
    for p in system.polys:
        if p.degree() == 0:
            c = _num(p.eval([0] * len(system.variables)))
            return TwoVarVerdict("NOT_PR", (), None, False, domain,
                                 "an equation reduces to %s = 0: no solution" % c)
    try:
        found = constant_solutions([p.diagonal() for p in system.polys], domain)
    except IncompleteFactorization as e:
        return TwoVarVerdict("UNKNOWN", (), None, False, domain, "the constant-solution "
                             "search stopped on an incomplete factorization: %s" % e)
    if found == "all":
        return TwoVarVerdict("PR_CONSTANT", "all", 1 if domain == "N" else 0, True, domain)
    if found or len(system.variables) <= 2:
        return TwoVarVerdict("PR_CONSTANT" if found else "NOT_PR", found,
                             least_witness(found), False, domain)
    return TwoVarVerdict("UNKNOWN", (), None, False, domain,
                         "no decision procedure for this polynomial system beyond its "
                         "constant solutions; try `search` for finite evidence")
