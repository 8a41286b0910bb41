"""A fixed pure-Python reference loop, timed between operations.

The speed of a shared host drifts by a quarter or more within minutes,
and the drift hits the program and this loop alike.  The benchmark
reports times scaled to a host on which one pass of the loop takes
NOMINAL_SECONDS: a time t measured next to a pass that took r seconds
is reported as t * NOMINAL_SECONDS / r.

Most of the drift comes from contention for caches and memory, which
slows an interpreter that chases pointers through many small objects and
allocates many short-lived ones, as prtoolkit does, more than a loop
over a few hot values.  So a pass has three parts: reads of a tuple and
a string at pseudo-random places in a table of 65536 of them (about
9 MB), products of small polynomials whose coefficients are objects with
Python-level arithmetic, and plain int arithmetic.  Against chunks of
`decide_mix` and `search` operations on a shared two-core host, a small-int
loop alone followed about half of the drift (log-log slope 0.4 to 0.5),
and the table alone over-followed it for the arithmetic-heavy `polyexp`
workload.  The pass uses builtins only, so timing it before an import
does not preload a module the import would load.
"""

from __future__ import annotations

import time

NOMINAL_SECONDS = 0.01
_TABLE_BITS = 16
_TABLE_STEPS = 12000
_PRODUCTS = 200
_ARITHMETIC = 600


class _Mod:
    """An integer mod a prime, with arithmetic in Python and a fresh object per result."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 1000003

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


class ReferenceLoop:
    """The table, built once; `seconds()` times one pass."""

    def __init__(self):
        self._table = [(i, str(i)) for i in range(1 << _TABLE_BITS)]

    def seconds(self) -> float:
        table = self._table
        mask = len(table) - 1
        t0 = time.perf_counter()
        acc = 0
        j = 7
        for _ in range(_TABLE_STEPS):
            j = (j * 1103515245 + 12345) & mask
            a, s = table[j]
            acc += a + len(s)
        poly = {0: _Mod(1), 1: _Mod(2), 2: _Mod(-5)}
        zero = _Mod(0)
        for rep in range(_PRODUCTS):
            product = {}
            for a, c in poly.items():
                for b, d in poly.items():
                    k = (a + b + rep) % 7
                    product[k] = product.get(k, zero) + c * d
        for i in range(_ARITHMETIC):
            acc += 3 ** (i % 60) % 1009 + len(str(i))
            for j in range(8):
                acc = (acc * 31 + j) % 1000003
        return time.perf_counter() - t0
