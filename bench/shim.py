"""Child-process entry of the benchmark.  Every mode samples host speed.

    python3 bench/shim.py setup <workload>
        Import clustertube and build what the workload's timed section
        takes as given; print the seconds that took, at reference speed.

    python3 bench/shim.py run <argv...>
        Run ``python -m clustertube <argv...>`` in this process.

    python3 -X importtime bench/shim.py trace <argv...>
        Install the span wrappers of ``tracing``, then call
        ``clustertube.cli.main(argv)``.

``run`` and ``trace`` keep the CLI's stdout and exit code and write one
``BENCH <json>`` line to stderr: the slowdown, and for ``trace`` the time
in main and the span summary.
"""

import sys
import time

from speed import SpeedSampler


def setup(workload: str) -> None:
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        import clustertube  # noqa: F401  (the import is what is timed)

        if workload == "polygon":
            from clustertube.mutation import build_exchange_graph

            build_exchange_graph(7)
        seconds = time.perf_counter() - t0
    print(repr(seconds / sampler.slowdown))


def run(argv: list) -> dict:
    import runpy

    sys.argv = ["clustertube", *argv]
    try:
        runpy.run_module("clustertube", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return {"exit": exc.code}
    return {"exit": 0}


def trace(argv: list) -> dict:
    import clustertube.cli

    import tracing

    recorder = tracing.Recorder()
    with recorder:
        t0 = time.perf_counter()
        code = clustertube.cli.main(argv)
        main_s = time.perf_counter() - t0
    return {"exit": code, "main_s": main_s, "summary": recorder.summary()}


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(args[0])
        return 0
    if mode not in ("run", "trace"):
        sys.exit(f"unknown mode {mode!r}")
    with SpeedSampler() as sampler:
        record = (run if mode == "run" else trace)(args)
    record["slowdown"] = sampler.slowdown
    sys.stdout.flush()
    import json

    print("BENCH " + json.dumps(record), file=sys.stderr, flush=True)
    code = record["exit"]
    return 0 if code is None else code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
