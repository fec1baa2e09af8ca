"""The cache policy: only facts computed once per rank are memoised, plus
the oracle's bounded representation cache.  Hom, Ext and crossing counts
are O(1) formulas that cost about as much as a cache lookup."""

import importlib
import pkgutil
import sys

import clustertube

CACHED = {
    "clustertube.rigid.rigid_table": None,
    "clustertube.rigid.maximal_rigid_masks": None,
    "clustertube.mutation.build_exchange_graph": None,
    "clustertube.polygon.polygon_table": None,
    "clustertube.polygon.flip_graph": None,
    "clustertube.reps.build_rep": 128,
}


def test_only_rank_level_facts_are_cached():
    # every module is imported, then walked as the clear_package_caches
    # fixture walks them
    for info in pkgutil.iter_modules(clustertube.__path__):
        if info.name != "__main__":
            importlib.import_module(f"clustertube.{info.name}")
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "clustertube":
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    key = f"{fn.__module__}.{fn.__qualname__}"
                    found[key] = fn.cache_parameters()["maxsize"]
    assert found == CACHED
