"""flowbench — the one measuring instrument for the FlowCube store.

``python3 -m benchmarks.flowbench run --workload NAME --seed N --seconds S
--trace 0|1`` drives the unmodified program through its public API
(``repro.synth``, ``repro.store``, ``repro.query``, ``flowcube-store
serve`` over a real socket), checks its outputs, and prints every metric
named in ``BENCHMARK.json``.  ``python3 -m benchmarks.flowbench aa`` runs
two sets of the same code back to back and compares them against the
bounds.  See ``README.md`` in this directory for the metric → layer map.

The repository is not pip-installed where the benchmark runs, so the
package puts ``<root>/src`` on ``sys.path`` itself.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout the benchmark runs in (``benchmarks/flowbench`` is two below).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Where a run keeps its stores and traces (inside the checkout, ignored).
WORK = ROOT / ".flowbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
