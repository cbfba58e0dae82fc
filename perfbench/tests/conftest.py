"""Import paths for the benchmark's own tests.

Run from the root of a checkout with::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
