#!/usr/bin/env python3
"""BluSim benchmark: builds the driver, runs one workload, prints metrics.

Run from the repository root:

    python3 blubench/run.py --workload dashboard --seed 1 --seconds 25 --trace 0

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of an untraced
run; --trace 1 reports the per-layer metrics and writes the spans to
.bench_build/traces/<workload>-seed<seed>.json (Chrome trace-event format).
"""

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "blubench")
BINARY = os.path.join(BUILD, "blubench")

WORKLOADS = ("dashboard", "offload", "multiuser")

END_TO_END = {
    "qps": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "sim_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per completed query unless the name says otherwise.
PER_LAYER = {
    "workload.generate_s": "s",
    "core.execute_wall_ms": "ms",
    "core.overhead_wall_ms": "ms",
    "core.materialize_wall_ms": "ms",
    "runtime.scan_wall_ms": "ms",
    "runtime.scan_sim_ms": "ms",
    "runtime.join_wall_ms": "ms",
    "runtime.join_sim_ms": "ms",
    "runtime.cpu_groupby_wall_ms": "ms",
    "runtime.cpu_groupby_sim_ms": "ms",
    "runtime.pool_task_wait_us": "us",
    "groupby.stage_wall_ms": "ms",
    "groupby.stage_sim_ms": "ms",
    "groupby.device_wall_ms": "ms",
    "groupby.retries": "count",
    "groupby.kernel_sim_ms": "ms",
    "groupby.kernel_regular": "count",
    "groupby.kernel_sharedmem": "count",
    "groupby.kernel_rowlock": "count",
    "gpusim.transfer_sim_ms": "ms",
    "gpusim.h2d_bytes": "bytes",
    "gpusim.d2h_bytes": "bytes",
    "sched.reservation_wait_wall_ms": "ms",
    "sched.reservation_wait_sim_ms": "ms",
    "sched.waits": "count",
    "sched.denials": "count",
    "sort.wall_ms": "ms",
    "sort.keygen_sim_ms": "ms",
    "sort.kernel_sim_ms": "ms",
    "sort.jobs_gpu": "count",
    "sort.jobs_cpu": "count",
    "sort.gpu_fallbacks": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.degraded_frac": "ratio",
    "serve.shed": "count",
    "serve.wakeups_per_submit": "ratio",
    "harness.client_lag_ms": "ms",
    "obs.trace_overhead_frac": "ratio",
}

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-quantile of values, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(p * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def build():
    """Configures and incrementally builds the driver."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=log, stderr=log, check=True, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                    "blubench"], stdout=log, stderr=log, check=True,
                   timeout=840)


def end_to_end(raw):
    lat = raw["latency_ms"]
    m = {
        "qps": raw["qps"],
        "latency_ms_p50": percentile(lat, 0.50),
        "latency_ms_p90": percentile(lat, 0.90),
        "sim_ms": raw["sim_ms"],
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_frac": raw["ok"] / max(raw["attempted"], 1),
    }
    p99 = percentile(lat, 0.99)
    print("latency samples: %d  p50=%s p90=%s p99=%s" % (
        len(lat), m["latency_ms_p50"], m["latency_ms_p90"],
        "%.4f" % p99 if p99 is not None else "n/a (<10 beyond)"))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.SubprocessError, OSError) as e:
        print("blubench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(ROOT, ".bench_build", "traces",
                                  "%s-seed%d.json" % (args.workload,
                                                      args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                              timeout=170, text=True)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as e:
        print("blubench: run failed: %s" % e, file=sys.stderr)
        return 1

    print("workload %s seed %d: %d queries in the set, %d passes, %.2f s "
          "measured" % (raw["workload"], raw["seed"], raw["queries"],
                        raw["passes"], raw["elapsed_s"]))
    for bad, count in collections.Counter(raw["bad"]).items():
        print("not ok (%dx): %s" % (count, bad))
    if args.trace:
        values, units = raw["layers"], PER_LAYER
        print("spans written to %s" % trace_path)
    else:
        values, units = end_to_end(raw), END_TO_END
    missing = [name for name in units if values.get(name) is None]
    if missing:
        print("blubench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = raw["attempted"]
    failed = attempted - raw["ok"]
    print(json.dumps({"correct": failed == 0 and not raw["bad"],
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
