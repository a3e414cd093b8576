"""Put the harness modules and the program on ``sys.path``, whichever
directory pytest was started from (``pytest benchmarks/`` collects these
tests too)."""

import sys
from pathlib import Path

_E2E = Path(__file__).resolve().parent.parent
for _path in (_E2E.parent.parent / "src", _E2E):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
