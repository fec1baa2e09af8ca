"""Span recorder and per-layer accounting for the traced benchmark run.

Spans are recorded from outside the package: every public function named
in ``SPANS`` is replaced, at every module attribute (and module-level dict
value) that refers to it, by a wrapper that records a span.  Functions too
hot for a span are only counted (``COUNTED``), and the memoised leaves of
``tube`` and ``polygon`` are read through ``cache_info()`` deltas.
Nothing here imports ``clustertube``; it works on the modules already in
``sys.modules``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

PACKAGE = "clustertube"

# module -> functions that get a span each call
SPANS = {
    "reps": ("hom_dim_oracle",),
    "linalg": ("integer_rank",),
    "rigid": ("enumerate_maximal_rigid", "compatibility", "complements"),
    "mutation": ("build_exchange_graph", "exchange", "fz_mutate"),
    "polygon": ("flip", "flip_graph", "_all_triangulations", "graphs_isomorphic_via_delta"),
    "verify": (
        "run_suite",
        "suite_hom",
        "suite_counts",
        "suite_mutation",
        "suite_polygon",
        "suite_no_ct",
    ),
}
# module -> functions that are only counted (75k calls at rank 8)
COUNTED = {"rigid": ("is_rigid_set",)}
# (module, class): constructions are counted through __post_init__
COUNTED_CLASSES = (("polygon", "CsTriangulation"),)

SUITES = ("hom", "counts", "mutation", "polygon", "no-ct")
CLI_COMMANDS = ("hom", "polygon", "bmatrix", "mutate", "verify")


def _short(fn) -> str:
    return f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__name__}"


def package_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def package_caches() -> dict:
    """Every ``lru_cache`` of the package, found by walking its modules."""
    caches = {}
    for module in package_modules():
        for fn in vars(module).values():
            # a traced wrapper hides the cache one level down
            while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
                fn = fn.__wrapped__
            if hasattr(fn, "cache_clear"):
                caches[_short(fn)] = fn
    return caches


def clear_caches() -> None:
    for fn in package_caches().values():
        fn.cache_clear()


def cache_snapshot() -> dict:
    out = {}
    for name, fn in package_caches().items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Recorder:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.graphs: dict[int, tuple[int, int]] = {}
        self._restore: list = []
        self._caches_before: dict = {}

    # -- installation -------------------------------------------------
    def _span_wrapper(self, fn):
        name = _short(fn)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack,
        )
        graphs = self.graphs
        observe = name == "mutation.build_exchange_graph"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if observe:
                # one entry per distinct graph, so cache hits add nothing
                graphs[id(result)] = (len(result.edges), len(result.nodes))
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever the package refers to them."""
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, None)):
            for mod, fnames in table.items():
                module = sys.modules.get(f"{PACKAGE}.{mod}")
                for fname in fnames if module else ():
                    fn = getattr(module, fname)
                    wrappers[id(fn)] = (
                        make(fn) if make else self._count_wrapper(fn, _short(fn))
                    )
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((setattr, module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._restore.append((dict.__setitem__, value, key, item))
                            value[key] = wrappers[id(item)]
        for mod, cls_name in COUNTED_CLASSES:
            module = sys.modules.get(f"{PACKAGE}.{mod}")
            if module is None:
                continue
            cls = getattr(module, cls_name)
            original = cls.__post_init__
            self._restore.append((setattr, cls, "__post_init__", original))
            cls.__post_init__ = self._count_wrapper(original, f"{mod}.{cls_name}")
        self._caches_before = cache_snapshot()

    def uninstall(self) -> None:
        while self._restore:
            setter, owner, key, value = self._restore.pop()
            setter(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summary ------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, total and self time; counters; cache deltas."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        spans: dict[str, list] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[i]
        after = cache_snapshot()
        caches = {}
        for name, (hits, misses) in after.items():
            h0, m0 = self._caches_before.get(name, (0, 0))
            caches[name] = [hits - h0, misses - m0]
        revisits = sum(e - v + 1 for e, v in self.graphs.values())
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "caches": caches,
            "revisits": revisits,
        }


def merge(summaries) -> dict:
    """Sum several summaries (e.g. one per child process of a unit)."""
    out = {"spans": {}, "counts": {}, "caches": {}, "revisits": 0}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, n in s["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + n
        for name, row in s["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += row[0]
            acc[1] += row[1]
        out["revisits"] += s["revisits"]
    return out


def scaled(summary: dict, factor: float) -> dict:
    """The summary with its span times multiplied by ``factor``."""
    spans = {
        name: [calls, total * factor, own * factor]
        for name, (calls, total, own) in summary["spans"].items()
    }
    return dict(summary, spans=spans)


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time in microseconds of the top-level packages
    clustertube, numpy and networkx, from ``-X importtime`` output."""
    out = {"clustertube": 0, "numpy": 0, "networkx": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in out:
            out[name] = max(out[name], int(parts[1]))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median_ms(values) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def layer_metrics(summary: dict, cli_samples: list, checks: dict) -> dict:
    """The per-layer metrics of one traced unit.

    ``cli_samples`` holds one dict per CLI child (``cmd``, ``wall_s``,
    ``import_us``, ``main_s``); ``checks`` maps a verify suite to the number
    of checks it reported.  A layer that did no work reads 0.
    """
    spans, counts, caches = summary["spans"], summary["counts"], summary["caches"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def cache(name):
        return caches.get(name, (0, 0))

    m = {}
    imports = [s["import_us"] for s in cli_samples]
    m["cli.import_ms"] = _median_ms([i["clustertube"] / 1e6 for i in imports])
    m["cli.import_numpy_ms"] = _median_ms([i["numpy"] / 1e6 for i in imports])
    m["cli.import_networkx_ms"] = _median_ms([i["networkx"] / 1e6 for i in imports])
    m["cli.process_ms"] = _median_ms(
        [s["wall_s"] - s["import_us"]["clustertube"] / 1e6 - s["main_s"] for s in cli_samples]
    )
    for cmd in CLI_COMMANDS:
        m[f"cli.main_ms.{cmd}"] = _median_ms(
            [s["main_s"] for s in cli_samples if s["cmd"] == cmd]
        )

    ext_hits, ext_misses = cache("tube.ext_dim_cluster")
    m["tube.ext_calls"] = ext_hits + ext_misses
    m["tube.ext_cache_hit_rate"] = _ratio(ext_hits, ext_hits + ext_misses)
    m["tube.hom_calls"] = sum(cache("tube.hom_dim_tube"))

    m["reps.oracle_calls"] = calls("reps.hom_dim_oracle")
    m["reps.oracle_s"] = total("reps.hom_dim_oracle")
    m["linalg.rank_calls"] = calls("linalg.integer_rank")
    m["linalg.rank_s"] = total("linalg.integer_rank")

    m["rigid.enumerate_s"] = total("rigid.enumerate_maximal_rigid")
    m["rigid.compatibility_s"] = total("rigid.compatibility")
    m["rigid.complements_calls"] = calls("rigid.complements")
    m["rigid.complements_s"] = total("rigid.complements")
    m["rigid.rigid_checks_per_complement"] = _ratio(
        counts.get("rigid.is_rigid_set", 0), calls("rigid.complements")
    )

    m["mutation.bfs_self_s"] = self_s("mutation.build_exchange_graph")
    m["mutation.exchange_s"] = total("mutation.exchange")
    m["mutation.fz_mutate_calls"] = calls("mutation.fz_mutate")
    m["mutation.fz_mutate_s"] = total("mutation.fz_mutate")
    m["mutation.revisits"] = summary["revisits"]

    attempts = counts.get("polygon.CsTriangulation", 0)
    m["polygon.flip_calls"] = calls("polygon.flip")
    m["polygon.flip_s"] = total("polygon.flip")
    m["polygon.triangulation_attempts"] = attempts
    m["polygon.flip_useful_ratio"] = _ratio(calls("polygon.flip"), attempts)
    m["polygon.all_triangulations_s"] = total("polygon._all_triangulations")
    m["polygon.iso_self_s"] = self_s("polygon.graphs_isomorphic_via_delta")
    cr_hits, cr_misses = cache("polygon.crossing_points")
    m["polygon.crossing_cache_hit_rate"] = _ratio(cr_hits, cr_hits + cr_misses)

    for suite in SUITES:
        m[f"verify.suite_self_s.{suite}"] = self_s(
            "verify.suite_" + suite.replace("-", "_")
        )
        m[f"verify.checks.{suite}"] = checks.get(suite, 0)
    return m
