"""The four benchmark workloads and the independent checks of their outputs.

Each workload is a closed loop with one client.  ``unit(i)`` runs the i-th
unit of work untraced and returns its operations, each timed at reference
speed (see speed.py) and already checked; ``trace_unit(traced)`` runs the
fixed piece of work the traced run compares with and without spans.  Checks
run after the clock stops and never reuse the code path that produced the
answer.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path

import tracing
from speed import SpeedSampler

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "shim.py"
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    kind: str
    seconds: float  # at reference speed
    wall: float
    ok: bool
    detail: str = ""


@dataclass
class Unit:
    ops: list
    layers: dict | None = None  # per-layer metrics, traced units only

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)


def run_child(cmd: list) -> tuple:
    """Run one child to completion; (seconds, exit code or None, stdout, stderr)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(
            cmd, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, "", "timed out"
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


def run_cli(argv: list, traced: bool) -> tuple:
    """A cold CLI process, run through the shim.

    Returns (seconds at reference speed, wall seconds, exit code, stdout,
    shim record); the record is None if the child died before writing it.
    """
    mode = ["-X", "importtime", str(SHIM), "trace"] if traced else [str(SHIM), "run"]
    wall, code, out, err = run_child([sys.executable, *mode, *argv])
    marker = "BENCH "
    line = next(
        (ln for ln in reversed(err.splitlines()) if ln.startswith(marker)), None
    )
    if line is None:
        return wall, wall, code, out, None
    record = json.loads(line[len(marker):])
    if traced:
        record["import_us"] = tracing.parse_importtime(err)
    return wall / record["slowdown"], wall, code, out, record


def cli_sample(argv: list, seconds: float, record: dict) -> tuple:
    """(cli sample, span summary) of a traced child, at reference speed."""
    scale = 1 / record["slowdown"]
    sample = {
        "cmd": argv[0],
        "wall_s": seconds,
        "import_us": {k: v * scale for k, v in record["import_us"].items()},
        "main_s": record["main_s"] * scale,
    }
    return sample, tracing.scaled(record["summary"], scale)


def setup_probe(workload: str) -> float:
    """Seconds, at reference speed, a fresh interpreter needs to import
    clustertube and build the workload's prerequisites."""
    _, code, out, err = run_child([sys.executable, str(SHIM), "setup", workload])
    if code != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return float(out)


def _fmt(objs) -> str:
    return ";".join(f"{a},{b}" for a, b in objs)


def _canonical(objs) -> list:
    return sorted(objs, key=lambda ab: (ab[0], -ab[1]))


class _Workload:
    """A unit is ``_run(traced)``; the traced run repeats the same unit."""

    fixed_units = 0  # >0: a run is exactly this many units, see run.measure
    in_children = False  # True: the work runs in CLI child processes

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def unit(self, i: int) -> Unit:
        return self._run(False)

    def trace_unit(self, traced: bool) -> Unit:
        return self._run(traced)


# --- certify ------------------------------------------------------------

CERTIFY = (("hom", 6), ("counts", 8), ("mutation", 7), ("polygon", 6), ("no-ct", 8))

# A suite that gets faster by dropping a check fails this comparison.
EXPECTED_CHECKS = {
    "hom": (
        "formula-vs-oracle",
        "rigidity-boundary",
        "ext-symmetry",
        "cluster-hom-contains-tube-hom",
        "hammock-consistency",
    ),
    "counts": (
        "rigid-count",
        "maximal-rigid-count",
        "per-top-catalan",
        "tilting-roundtrip",
        "top-loop-dimension",
    ),
    "mutation": (
        "path-independence",
        "matrix-invariants",
        "graph-shape",
        "initial-seed",
        "unique-exchange",
    ),
    "polygon": (
        "delta-bijection",
        "crossing-equals-twice-ext",
        "triangulation-bijection",
        "flip-graph-isomorphism",
    ),
    "no-ct": ("witnesses",),
}


def check_verify(suite: str, rank: int, code, stdout: str) -> str:
    """'' when the run passed every expected check, else the reason."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if not lines or lines[-1] != f"PASS suite={suite} rank={rank}":
        return "missing or failed summary line"
    names = []
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        if status != "PASS" or not rest.startswith(suite + "/"):
            return f"unexpected line {line!r}"
        names.append(rest[len(suite) + 1:].split(":")[0])
    if tuple(names) != EXPECTED_CHECKS[suite]:
        return f"checks {names}, want {list(EXPECTED_CHECKS[suite])}"
    return ""


class Certify(_Workload):
    """Cold ``clustertube verify`` processes, one per suite."""

    name = "certify"
    in_children = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.order = list(CERTIFY)
        random.Random(seed).shuffle(self.order)

    def _run(self, traced: bool) -> Unit:
        ops, samples, summaries, checks = [], [], [], {}
        for suite, rank in self.order:
            argv = ["verify", "--rank", str(rank), "--suite", suite]
            seconds, wall, code, out, record = run_cli(argv, traced)
            reason = check_verify(suite, rank, code, out) or (
                "" if record else "no shim record"
            )
            if traced and record:
                sample, summary = cli_sample(argv, seconds, record)
                samples.append(sample)
                summaries.append(summary)
                checks[suite] = len(out.splitlines()) - 1
            ops.append(Op(f"verify_{suite}", seconds, wall, not reason, reason))
        unit = Unit(ops)
        if traced:
            unit.layers = tracing.layer_metrics(tracing.merge(summaries), samples, checks)
        return unit

    def named_metrics(self, units: list) -> dict:
        out = {"certify_s": statistics.median(u.seconds for u in units)}
        for suite, _ in CERTIFY:
            key = f"verify_{suite}"
            out[f"{key}_s"] = statistics.median(
                op.seconds for u in units for op in u.ops if op.kind == key
            )
        return out


# --- in-process workloads ---------------------------------------------


def _cold() -> None:
    """Cache hygiene between timed units."""
    tracing.clear_caches()
    gc.collect()


def _timed(kind: str, fn, check):
    """Time ``fn()`` at reference speed, then check its result."""
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        try:
            result = fn()
            error = ""
        except Exception as exc:  # a library failure is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    reason = error or check(result)
    return result, Op(kind, wall / sampler.slowdown, wall, not reason, reason)


def _traced_layers(recorder, ops) -> dict:
    """Per-layer metrics of an in-process unit, at reference speed."""
    scale = sum(op.seconds for op in ops) / sum(op.wall for op in ops)
    return tracing.layer_metrics(tracing.scaled(recorder.summary(), scale), [], {})


def _count_check(what: str, got: int, want: int) -> str:
    return "" if got == want else f"{what}: got {got}, want {want}"


class Exchange(_Workload):
    """enumerate_maximal_rigid(8) then build_exchange_graph(8), cold."""

    name = "exchange"
    RANK = 8

    def setup(self) -> None:
        self.rigid = importlib.import_module("clustertube.rigid")
        self.mutation = importlib.import_module("clustertube.mutation")

    def _run(self, traced: bool) -> Unit:
        n = self.RANK
        seeds = comb(2 * n - 2, n - 1)
        recorder = tracing.Recorder() if traced else None
        _cold()
        with recorder or contextlib.nullcontext():
            _, enum_op = _timed(
                "enumerate",
                lambda: self.rigid.enumerate_maximal_rigid(n),
                lambda objs: _count_check("maximal rigid objects", len(objs), seeds),
            )
            _, graph_op = _timed(
                "exchange_graph",
                lambda: self.mutation.build_exchange_graph(n),
                lambda g: _count_check("seeds", len(g.nodes), seeds)
                or _count_check("directed edges", len(g.edges), seeds * (n - 1)),
            )
        unit = Unit([enum_op, graph_op])
        if traced:
            unit.layers = _traced_layers(recorder, unit.ops)
        return unit

    def named_metrics(self, units: list) -> dict:
        seeds = comb(2 * self.RANK - 2, self.RANK - 1)
        return {
            "exchange_seeds_per_s": statistics.median(seeds / u.seconds for u in units),
            "enumerate_s": statistics.median(u.ops[0].seconds for u in units),
            "exchange_graph_s": statistics.median(u.ops[1].seconds for u in units),
        }


class Polygon(_Workload):
    """flip_graph(7), then the isomorphism check against the exchange graph
    built during setup."""

    name = "polygon"
    RANK = 7

    def setup(self) -> None:
        mutation = importlib.import_module("clustertube.mutation")
        self.polygon = importlib.import_module("clustertube.polygon")
        n = self.RANK
        self.eg = mutation.build_exchange_graph(n)
        seeds = comb(2 * n - 2, n - 1)
        if len(self.eg.nodes) != seeds or len(self.eg.edges) != seeds * (n - 1):
            raise RuntimeError("the rank-7 exchange graph has the wrong shape")

    def _run(self, traced: bool) -> Unit:
        n = self.RANK
        seeds = comb(2 * n - 2, n - 1)
        recorder = tracing.Recorder() if traced else None
        _cold()
        with recorder or contextlib.nullcontext():
            fg, flip_op = _timed(
                "flip_graph",
                lambda: self.polygon.flip_graph(n),
                lambda g: _count_check("triangulations", len(g.nodes), seeds)
                or _count_check("directed flips", len(g.edges), seeds * (n - 1)),
            )
            ops = [flip_op]
            if fg is not None:
                _, iso_op = _timed(
                    "iso_check",
                    lambda: self.polygon.graphs_isomorphic_via_delta(self.eg, fg),
                    lambda same: "" if same is True else "graphs not isomorphic",
                )
                ops.append(iso_op)
        unit = Unit(ops)
        if traced:
            unit.layers = _traced_layers(recorder, unit.ops)
        return unit

    def named_metrics(self, units: list) -> dict:
        def med(kind):
            return statistics.median(
                op.seconds for u in units for op in u.ops if op.kind == kind
            )

        return {"flip_graph_s": med("flip_graph"), "iso_check_s": med("iso_check")}


# --- queries ------------------------------------------------------------

BLOCK = 20
# A synthetic stream, not measured traffic: there is no usage data to draw
# it from.  It realises the shape "mostly hom and polygon, plus some
# bmatrix/mutate at ranks 5..7".  A block holds 9 hom, 6 polygon and 5
# graph-building queries; the rank-7 one alternates between bmatrix and
# mutate from block to block.  The one property the metrics need is that at
# least 10% of queries build a graph, so that p90 falls among them (here
# 25%).  A fixed block keeps the mix, and so unit_mean_s, the same for
# every seed.
_BLOCK_SLOTS = (
    [("hom", None)] * 9
    + [("polygon", None)] * 6
    + [("bmatrix", 5), ("bmatrix", 6), ("mutate", 5), ("mutate", 6)]
)


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def random_maximal_rigid(rng: random.Random, n: int) -> list:
    """A uniformly random maximal rigid object at rank n, built from the
    wing structure (a top of quasi-length n-1 over a tilting set of its
    wing), independently of the library's clique enumeration."""
    out = []

    def wing(a: int, m: int) -> None:
        if m == 0:
            return
        out.append((a, m))
        weights = [_catalan(j) * _catalan(m - 1 - j) for j in range(m)]
        j = rng.choices(range(m), weights)[0]
        wing(a, j)
        wing((a + j) % n + 1, m - 1 - j)

    wing(rng.randint(1, n), n - 1)
    rng.shuffle(out)
    return out


def query_stream(seed: int):
    """Endless seeded stream of (kind, rank, argv, payload) CLI queries."""
    rng = random.Random(seed)
    block = 0
    while True:
        slots = _BLOCK_SLOTS + [(("bmatrix", "mutate")[block % 2], 7)]
        rng.shuffle(slots)
        for kind, rank in slots:
            if kind == "hom":
                n = rng.randint(3, 12)
                x = (rng.randint(1, n), rng.randint(1, 2 * n))
                y = (rng.randint(1, n), rng.randint(1, 2 * n))
                argv = ["hom", "--rank", str(n), "--from", _fmt([x]), "--to", _fmt([y])]
                yield kind, n, argv, (x, y)
                continue
            n = rank or rng.randint(3, 8)
            obj = random_maximal_rigid(rng, n)
            argv = [kind, "--rank", str(n), "--object", _fmt(obj)]
            at = None
            if kind == "mutate":
                at = rng.choice(obj)
                argv += ["--at", _fmt([at])]
            yield kind, n, argv, (obj, at)
        block += 1


def _tau(x, n, k=1):
    return ((x[0] - k - 1) % n + 1, x[1])


def expected_hom(x, y, n) -> dict:
    """Hom/Ext triple assembled from the intertwiner oracle and tau."""
    from clustertube.reps import hom_dim_oracle
    from clustertube.tube import TubeObject

    def oracle(u, v):
        return hom_dim_oracle(TubeObject(*u, n), TubeObject(*v, n))

    tube = oracle(x, y)
    return {
        "tube": tube,
        "cluster": oracle(y, _tau(x, n, 2)) + tube,
        "ext": oracle(y, _tau(x, n)) + oracle(x, _tau(y, n)),
    }


def expected_polygon(obj, n) -> dict:
    """delta(a, b) = [a, a+b+1] and its half-turn, corners mod 2n."""

    def corner(c):
        return (c - 1) % (2 * n) + 1

    pairs = []
    for a, b in obj:
        d1 = sorted((corner(a), corner(a + b + 1)))
        d2 = sorted((corner(a + n), corner(a + b + 1 + n)))
        pairs.append([d1] if d1 == d2 else sorted([d1, d2]))
    pairs.sort(key=lambda pair: pair[0])
    return {"rank": n, "pairs": pairs}


def _parse_objects(text: str) -> list:
    return [tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";")]


def check_matrix(lines: list, order: list, size: int) -> str:
    """Type-B invariants of a printed exchange matrix in canonical order."""
    if not lines or not lines[0].startswith("order: "):
        return "missing order line"
    if _parse_objects(lines[0][len("order: "):]) != order:
        return "matrix order is not the canonical summand order"
    rows = [[int(v) for v in line.split()] for line in lines[1:]]
    if len(rows) != size or any(len(r) != size for r in rows):
        return f"matrix is not {size}x{size}"
    for i in range(size):
        if rows[i][i] != 0:
            return "nonzero diagonal"
        for j in range(size):
            a, b = rows[i][j], rows[j][i]
            if abs(a) > 2:
                return f"entry {a} out of range"
            if (a > 0) != (b < 0) or (a < 0) != (b > 0):
                return "not sign-skew-symmetric"
    return ""


def check_query(kind, n, payload, code, stdout) -> str:
    """'' when the query's answer matches its independent expectation."""
    if code != 0:
        return f"exit code {code}"
    try:
        if kind == "hom":
            x, y = payload
            got = json.loads(stdout)
            want = expected_hom(x, y, n)
            return "" if got == want else f"got {got}, want {want}"
        obj, at = payload
        if kind == "polygon":
            got = json.loads(stdout)
            want = expected_polygon(obj, n)
            return "" if got == want else f"got {got}, want {want}"
        lines = stdout.splitlines()
        if kind == "bmatrix":
            return check_matrix(lines, _canonical(obj), n - 1)
        if not lines[0].startswith("object: "):
            return "missing object line"
        new = _parse_objects(lines[0][len("object: "):])
        gone = set(obj) - set(new)
        added = set(new) - set(obj)
        if gone != {at} or len(added) != 1 or len(new) != n - 1:
            return f"exchange at {at} gave {new}"
        if new != _canonical(new):
            return "object not in canonical order"
        return check_matrix(lines[1:], new, n - 1)
    except (ValueError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc}"


class Queries(_Workload):
    """Seeded stream of cold CLI point queries."""

    name = "queries"
    in_children = True
    # p90 needs at least 100 queries; five whole blocks keep the mix fixed
    fixed_units = 5 * BLOCK

    def __init__(self, seed: int):
        super().__init__(seed)
        self.stream = query_stream(seed)
        self.kinds: list = []

    def setup(self) -> None:
        importlib.import_module("clustertube.reps")  # for the hom checks

    def _query(self, query, traced: bool):
        kind, n, argv, payload = query
        seconds, wall, code, out, record = run_cli(argv, traced)
        reason = check_query(kind, n, payload, code, out) or (
            "" if record else "no shim record"
        )
        sample = summary = None
        if traced and record:
            sample, summary = cli_sample(argv, seconds, record)
        return Op(kind, seconds, wall, not reason, reason), sample, summary

    def unit(self, i: int) -> Unit:
        query = next(self.stream)
        self.kinds.append(f"{query[0]}@{query[1]}")
        op, _, _ = self._query(query, False)
        return Unit([op])

    def trace_unit(self, traced: bool) -> Unit:
        """The first block of the stream, so counts repeat for a seed."""
        stream = query_stream(self.seed)
        ops, samples, summaries = [], [], []
        for _ in range(BLOCK):
            op, sample, summary = self._query(next(stream), traced)
            ops.append(op)
            if sample is not None:
                samples.append(sample)
                summaries.append(summary)
        unit = Unit(ops)
        if traced:
            unit.layers = tracing.layer_metrics(tracing.merge(summaries), samples, {})
        return unit

    def named_metrics(self, units: list) -> dict:
        times = [u.seconds for u in units]
        return {
            "query_p50_ms": 1000 * statistics.median(times),
            "query_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
            "query_samples": len(times),
            "query_mix": dict(sorted(Counter(self.kinds).items())),
        }


WORKLOADS = {w.name: w for w in (Certify, Exchange, Polygon, Queries)}
