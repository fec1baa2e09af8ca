import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _src_importable_in_subprocesses():
    """Child interpreters started by the tests import clustertube from
    src/ too, so a bare ``pytest`` works without installing the package."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture
def clear_package_caches():
    """A callable that empties every ``lru_cache`` of the package: a cold start."""

    def clear():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "clustertube":
                for fn in vars(module).values():
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()

    return clear
