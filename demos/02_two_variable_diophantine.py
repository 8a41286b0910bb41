"""Two-variable polynomial systems: PR and infinitely PR.

P(x, y) = 0 is partition regular iff it has a constant solution
P(t, t) = 0, and infinitely so iff (x - y) divides P, in which case
every diagonal pair solves it.  Linear systems reach the same constant
solutions through decide_linear; a system in three or more variables
with a constant solution is PR too, but one without stays undecided.
"""

from prtoolkit.algebra import constant_solutions
from prtoolkit.diophantine import decide_twovar
from prtoolkit.equations import classify, parse_equation_text
from prtoolkit.rado import decide_linear


def show(text, domain="N"):
    cls = classify(parse_equation_text(text))
    if hasattr(cls, "matrix"):
        v = decide_linear(cls, domain=domain)
        print(f"{text!r} over {domain}: {v.status}, witness={v.witness}")
        return
    v = decide_twovar(cls, domain=domain)
    print(f"{text!r} over {domain}: {v.status}, infinitely_pr={v.infinitely_pr}, "
          f"witnesses={v.witnesses}")


show("x - y = 0")             # infinitely PR
show("x^2 - y^2 = 0")         # (x-y)(x+y): still infinitely PR
show("x*y = 4")               # only t = 2 on the diagonal
show("x*y = 4", domain="Z")   # t = -2 joins
show("x + y = 1")             # diagonal 2t = 1 has no integer root
show("x*y = 4 ; x + y = 4")   # intersection of two diagonals

# the diagonal is an ordinary univariate polynomial
cls = classify(parse_equation_text("x^2 - y = 0"))
print("diagonal of x^2 - y:", [str(c) for c in cls.polys[0].diagonal().coeffs])

# three variables: the constant solution t = 1 proves y = x^2; z = x^3 PR
cls = classify(parse_equation_text("y = x^2; z = x^3"))
print("y = x^2; z = x^3 witnesses:", constant_solutions([p.diagonal() for p in cls.polys]))
