"""Makes ``spine`` (this benchmark) and ``repro`` (the program) importable.

Run with ``PYTHONPATH=src python -m pytest benchmarks/spine/tests -q``
(``benchmarks/conftest.py`` above imports ``repro``); not part of tier-1.
"""

import os
import sys

BENCHMARKS = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (BENCHMARKS, os.path.join(os.path.dirname(BENCHMARKS), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
