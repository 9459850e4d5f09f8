"""Self-tests of the measurement spine.

Run with ``python -m pytest benchmarks/spine/tests -q`` from the
repository root; tier-1's ``testpaths`` does not include this directory.
"""

import sys
from pathlib import Path

BENCHMARKS_DIR = Path(__file__).resolve().parents[2]
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))
