"""Certified-verdict benchmark for hotab.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (see corpus.py) in a child process capped at 1 GiB of
address space and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured without tracing; with --trace 1
they are the per-layer ones from a traced pass (see tracer.py).

setup_s is the median of seven start-ups of the worker, each timed from
process start to the moment the workload is built and the first problem
can be handed to hotab.

Exits with status 2, printing no result, when the hotab sources are not
next to the benchmark (src/hotab in the same checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS
from speed import at_nominal_speed, reference_seconds

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 6
DEADLINE = 170.0  # seconds for the whole run, probes included


def start_worker(args, extra=()) -> tuple[subprocess.Popen, float]:
    """Start the worker and wait for its "ready" line; return the process
    and the seconds it took to get there."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONHASHSEED": "0"})
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line.strip()!r}")
    return proc, ready


def run(args) -> int:
    """Measure one workload and print its result."""
    t_start = time.perf_counter()
    try:
        # scaled like the worker's times (see speed.py), by the speed over
        # all start-ups: the worker may run on another CPU than this process
        setups, refs = [], []
        for _ in range(SETUP_PROBES):
            refs.append(reference_seconds())
            proc, ready = start_worker(args, ["--setup-only"])
            proc.communicate(timeout=60)
            setups.append(ready)
        refs.append(reference_seconds())
        proc, ready = start_worker(args)
        setups.append(ready)
        setup_s = at_nominal_speed(statistics.median(setups), statistics.fmean(refs))
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, DEADLINE - (time.perf_counter() - t_start))
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    except subprocess.TimeoutExpired:
        print("error: workload ran past the deadline", file=sys.stderr)
        return 1
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = dict(result["end_to_end"])
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        metrics["setup_s"] = (setup_s, "s")
    table = dict(metrics)
    if not args.trace:  # the JSON carries ok_share, a metric that is never 0
        table["failed_share"] = (1 - metrics["ok_share"][0], "ratio")
    for name, (value, unit) in table.items():
        print(f"{args.workload:11s} {name:28s} {value:14.6f} {unit}", file=sys.stderr)
    print(f"{args.workload:11s} {result['failed']} of {result['attempted']} problems "
          f"failed; {result['rounds']} rounds",
          file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (HERE.parent / "src" / "hotab" / "__init__.py").is_file():
        print("error: hotab sources not found at src/hotab", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stops the worker
    if args.workload != "all":
        return run(args)
    status = 0
    for workload in WORKLOADS:
        status = max(status, run(argparse.Namespace(**{**vars(args), "workload": workload})))
    return status


if __name__ == "__main__":
    sys.exit(main())
