"""Partition regularity of polynomial systems in at most two variables.

A system P_1(x, y) = 0, .., P_k(x, y) = 0 is partition regular over
{1, 2, ...} if and only if it has a constant solution x = y = w: the
coloring that gives every integer its own color admits only constant
monochromatic pairs in one direction, and a constant solution is
monochromatic under every coloring in the other.

So the decision reduces to the diagonal polynomials D_i(w) = P_i(w, w):
witnesses are their common integer roots in the ground set
(`algebra.constant_solutions`), and the system is infinitely partition
regular (arbitrarily large witnesses) exactly when every D_i vanishes
identically, i.e. when (x - y) divides every P_i.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .algebra import Record, constant_solutions, least_witness
from .equations import TwoVarPolySystem


class TwoVarVerdict(Record):
    """Constant-solution analysis of a two-variable polynomial system.

    `witnesses` is the marker "all" when every ground-set element is a
    witness (equivalently `infinitely_pr`, and (x - y) divides every
    P_i), otherwise the finite tuple of witnesses in ascending order.
    `witness` is the least by absolute value, nonnegative first.
    """

    status: str  # "PR_CONSTANT" | "NOT_PR"
    witnesses: Union[str, Tuple[int, ...]]
    witness: Optional[int]
    infinitely_pr: bool
    domain: str


def decide_twovar(system: TwoVarPolySystem, domain: str = "N") -> TwoVarVerdict:
    """Decide partition regularity via constant solutions x = y = w.

    Domain "N" admits witnesses w >= 1, domain "Z" any integer witness.
    Raises on constant nonzero polynomials (the system is then plainly
    unsatisfiable and carries no two-variable structure to analyze).
    """
    if any(p.degree() == 0 for p in system.polys):
        raise ValueError("constant nonzero equation: the system is unsatisfiable")
    found = constant_solutions([p.diagonal() for p in system.polys], domain)
    if found == "all":
        return TwoVarVerdict("PR_CONSTANT", "all", 1 if domain == "N" else 0, True, domain)
    return TwoVarVerdict(
        "PR_CONSTANT" if found else "NOT_PR", found, least_witness(found), False, domain
    )
