"""Import the benchmark and the program from this checkout."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[name]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
