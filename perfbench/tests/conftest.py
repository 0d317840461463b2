"""Make the benchmark modules and the checkout's `stslab` importable."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_BENCH))
sys.path.insert(0, str(_BENCH.parent / "src"))
