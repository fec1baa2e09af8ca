"""clustertube benchmark.

    python3 bench/run.py --workload {certify,exchange,polygon,queries}
                         --seed N --seconds S --trace {0,1}

Prints a human-readable report line (JSON: the workload's named figures,
error rate, query mix and run metadata) and, as the last line of stdout,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# No unit starts after this, so that one run stays well inside three minutes.
HARD_CAP_S = 60.0


def measure(workload, seconds: float, traced: bool) -> list:
    """Closed loop of units until the run has lasted about ``seconds``.

    A new unit starts only if it would end nearer the deadline than not
    starting it, and none starts after ``HARD_CAP_S``.  A workload with
    ``fixed_units`` runs exactly that many units, whatever the deadline.
    In a traced run each step is an untraced and a traced run of the same
    fixed work.
    """
    if workload.fixed_units and not traced:
        return [workload.unit(i) for i in range(workload.fixed_units)]
    steps = []
    start = time.perf_counter()
    while True:
        if traced:
            # alternate which side runs first, so warm-up favours neither
            first = len(steps) % 2 == 1
            pair = {first: workload.trace_unit(first)}
            pair[not first] = workload.trace_unit(not first)
            steps.append((pair[False], pair[True]))
        else:
            steps.append(workload.unit(len(steps)))
        elapsed = time.perf_counter() - start
        mean_step = elapsed / len(steps)
        if elapsed >= HARD_CAP_S or elapsed + mean_step / 2 >= seconds:
            return steps


def peak_rss_mb(workload) -> float:
    """Peak RSS of the measured process: the largest child for the CLI
    workloads, this process for the in-process ones."""
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def run_metadata() -> dict:
    """Recorded with every run; never gated."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as fh:
            deps = len(tomllib.load(fh)["project"].get("dependencies", []))
    except (ImportError, OSError, KeyError, ValueError):
        deps = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in SRC.rglob("*.py")
        ),
        "runtime_dependencies": deps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clustertube" / "__init__.py").is_file():
        print(f"error: no clustertube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs SRC on the path for its checks

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed)

    setup_s = statistics.median(
        workloads.setup_probe(workload.name) for _ in range(SETUP_PROBES)
    )
    workload.setup()
    steps = measure(workload, args.seconds, bool(args.trace))

    if args.trace:
        units = [u for pair in steps for u in pair]
        plain = [p[0].seconds for p in steps]
        traced = [p[1].seconds for p in steps]
        layers = [p[1].layers for p in steps]
        metrics = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
        named = {}
    else:
        units = steps
        times = [u.seconds for u in units]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(workload),
            "unit_p50_s": statistics.median(times),
            "unit_mean_s": statistics.fmean(times),
        }
        named = workload.named_metrics(units)
        walls = [sum(op.wall for op in u.ops) for u in units]
        named["wall_unit_p50_s"] = statistics.median(walls)
        named["wall_unit_mean_s"] = statistics.fmean(walls)
    ops = [op for u in units for op in u.ops]
    failed = [op for op in ops if not op.ok]

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(steps),
        "slowdown": sum(op.wall for op in ops) / sum(op.seconds for op in ops),
        "error_rate": len(failed) / len(ops),
        "failures": [f"{op.kind}: {op.detail}" for op in failed[:5]],
        "named": named,
        "metadata": run_metadata(),
    }
    print(json.dumps(report))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units_of = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
