import os
from pathlib import Path

import diverkit

# Tests that start `python -m diverkit.cli` in a child process need it to import
# this same source tree, also when only pytest's `pythonpath` setting put it on
# sys.path.
_SRC = str(Path(diverkit.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

