"""Finite coloring search: avoiding colorings and forced certificates.

The searcher either exhibits a coloring of [1..N] with no monochromatic
solution, or proves by exhaustion that none exists.  Either outcome is
a machine-checkable certificate.
"""

from prtoolkit.equations import classify, parse_equation_text
from prtoolkit.ramsey import (
    enumerate_solutions,
    filter_injectivity,
    search_avoiding_coloring,
    verify_coloring,
)

schur = classify(parse_equation_text("x + y = z"))

# the Schur boundary for two colors sits between 4 and 5
for N in (4, 5):
    r = search_avoiding_coloring(schur, N, 2)
    print(f"N={N}, 2 colors: {r.status} ({r.nodes} nodes)")
    if r.coloring is not None:
        ok, offenders = verify_coloring(r.coloring, enumerate_solutions(schur, N))
        print(f"  coloring {r.coloring} verifies: {ok}, offenders: {offenders}")

# three colors push it out to 13
print("N=13, 3 colors:", search_avoiding_coloring(schur, 13, 3).status)
print("N=14, 3 colors:", search_avoiding_coloring(schur, 14, 3).status)

# x + y = 2z has constant solutions, so only injective ones are
# interesting: demand at least 2 distinct values per solution
progression = classify(parse_equation_text("x + y = 2*z"))
for N in (8, 9):
    r = search_avoiding_coloring(progression, N, 2, min_injectivity=2)
    print(f"3-term progressions, N={N}: {r.status}")

# a coloring written down rather than searched: powers of 2 by exponent
# parity avoid y = 2x on an exponentially long interval
doubling = classify(parse_equation_text("2*x - y = 0"))
coloring = tuple((n.bit_length() - 1) % 2 for n in range(1, 2**12 + 1))
sols = filter_injectivity(enumerate_solutions(doubling, 2**12), 2)
ok, _ = verify_coloring(coloring, sols)
print("dyadic coloring avoids y = 2x up to 4096:", ok)
