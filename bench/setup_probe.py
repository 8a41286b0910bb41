"""Time the import of prtoolkit modules in a fresh interpreter.

Usage: python3 bench/setup_probe.py MODULE [MODULE ...]   (with src on PYTHONPATH)

Prints one JSON object: the import's wall time, and the mean time of the
reference loop run right before and right after it, for scaling to the nominal host.
"""

import importlib
import json
import sys
import time

from hostspeed import ReferenceLoop

reference = ReferenceLoop()
before = reference.seconds()
t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
import_s = time.perf_counter() - t0
after = reference.seconds()
print(json.dumps({"import_s": import_s, "ref_s": (before + after) / 2}))
