"""Partition regularity of polynomial systems in at most two variables.

A system P_1(x, y) = 0, .., P_k(x, y) = 0 is partition regular over
{1, 2, ...} if and only if it has a constant solution x = y = w: the
coloring that gives every integer its own color admits only constant
monochromatic pairs in one direction, and a constant solution is
monochromatic under every coloring in the other.

So the decision reduces to the diagonal polynomials D_i(w) = P_i(w, w):
witnesses are the common integer roots inside the ground set, and the
system is infinitely partition regular (arbitrarily large witnesses)
exactly when every D_i vanishes identically, i.e. when (x - y) divides
every P_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .algebra import MultiPoly, UniPoly, integer_roots, least_witness
from .equations import LinearSystem, TwoVarPolySystem, linear_polys


@dataclass(frozen=True)
class TwoVarVerdict:
    """Constant-solution analysis of a two-variable polynomial system.

    `witnesses` is the marker "all" when every ground-set element is a
    witness (equivalently `infinitely_pr`), otherwise the finite tuple
    of witnesses in ascending order.  `witness` is the least by
    absolute value, nonnegative first.
    """

    status: str  # "PR_CONSTANT" | "NOT_PR"
    witnesses: Union[str, Tuple[int, ...]]
    witness: Optional[int]
    infinitely_pr: bool
    all_divisible_by_x_minus_y: bool
    domain: str


def diagonal_polys(system: TwoVarPolySystem) -> List[UniPoly]:
    return [p.diagonal() for p in system.polys]


def decide_twovar(system: TwoVarPolySystem, domain: str = "N") -> TwoVarVerdict:
    """Decide partition regularity via constant solutions x = y = w.

    Domain "N" admits witnesses w >= 1, domain "Z" any integer witness.
    Raises on constant nonzero polynomials (the system is then plainly
    unsatisfiable and carries no two-variable structure to analyze).
    """
    if domain not in ("N", "Z"):
        raise ValueError("domain must be 'N' or 'Z'")
    polys = [p for p in system.polys if not p.is_zero()]
    if any(p.degree() == 0 for p in polys):
        raise ValueError("constant nonzero equation: the system is unsatisfiable")
    diagonals = [p.diagonal() for p in polys]
    if all(d.is_zero() for d in diagonals):
        return TwoVarVerdict(
            status="PR_CONSTANT",
            witnesses="all",
            witness=1 if domain == "N" else 0,
            infinitely_pr=True,
            all_divisible_by_x_minus_y=True,
            domain=domain,
        )
    candidates: Optional[List[int]] = None
    for d in diagonals:
        if d.is_zero():
            continue
        if d.degree == 0:
            candidates = []
            break
        roots = integer_roots(d)
        candidates = roots if candidates is None else [r for r in candidates if r in roots]
        if not candidates:
            break
    assert candidates is not None
    if domain == "N":
        candidates = [r for r in candidates if r >= 1]
    witnesses = tuple(sorted(candidates))
    return TwoVarVerdict(
        status="PR_CONSTANT" if witnesses else "NOT_PR",
        witnesses=witnesses,
        witness=least_witness(witnesses),
        infinitely_pr=False,
        all_divisible_by_x_minus_y=False,
        domain=domain,
    )


def twovar_from_linear(system: LinearSystem) -> TwoVarPolySystem:
    """View a linear system in at most two variables as a polynomial system.

    Lets the diagonal analysis (witnesses, infinite regularity) run on
    linear inputs; rows become polynomials sum_j a_j x_j - b.
    """
    if len(system.variables) > 2:
        raise ValueError("only systems in at most two variables convert")
    vars_ = system.variables
    polys = [p for p in linear_polys(system) if not p.is_zero()]
    return TwoVarPolySystem(variables=vars_, polys=tuple(polys) or (MultiPoly.zero(vars_),))


def decide_infinitely_pr(system: TwoVarPolySystem) -> bool:
    """True iff witnesses are unbounded, i.e. (x - y) divides every P_i."""
    polys = [p for p in system.polys if not p.is_zero()]
    return all(p.diagonal().is_zero() for p in polys)
