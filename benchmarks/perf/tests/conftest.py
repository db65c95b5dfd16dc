"""Make the harness modules and the program importable for the tests."""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
