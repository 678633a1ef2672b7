"""Set-up probe: run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py SRC_DIR

Imports satforge (kernels first, then the package and its CLI) from SRC_DIR,
finishes the lazy first-call set-up (the certification of the family's
9-vertex core and the first call of each kernel), and prints the stage times
in seconds as one JSON object.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import satforge.kernels  # noqa: E402  (timed on its own: it pulls in numpy)

t1 = perf_counter()
import satforge  # noqa: E402
import satforge.cli  # noqa: E402,F401

t2 = perf_counter()
core, _ = satforge.build_construction(9)
satforge.is_saturated_fast(core, 6)
t3 = perf_counter()
print(json.dumps({"kernels_import_s": t1 - t0, "import_s": t2 - t1,
                  "first_call_s": t3 - t2}))
