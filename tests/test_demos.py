import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# each demo's stdout, pinned by its sha256: the demos walk the enumeration,
# exchange and the polygon model, so a change to any of them shows here
STDOUT_SHA256 = {
    "hom_hammocks": "8b6bb67a03fc256156d0235990775f96d0e90fb0b09191df6e494e2b37e1c415",
    "exchange_graph_walk": "2640d23608b557109f95dea7d69b3652222d0ab7e68bbc44d3f5596acfd85310",
    "polygon_model": "c0dcf17848b8f73d5b5501f3f70e7dc98855950f2a238d254b43a614f361419e",
}


@pytest.mark.parametrize("name", ["hom_hammocks", "exchange_graph_walk", "polygon_model"])
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[name]
