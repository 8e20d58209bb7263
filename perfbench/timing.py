"""The timed closed loop and the statistics of its samples.

The 2-core VM this benchmark was written on changes speed by up to 1.6x,
for seconds to minutes at a time, as other tenants come and go. Raw
per-run figures moved by 25% between runs and their medians by 50% between
two sets of runs a quarter of an hour apart. So the loop times a fixed
numpy probe before and after every operation, and every time the benchmark
reports is scaled to reference speed:

    reported = measured * REFERENCE_PROBE_S / (probe time around it)

REFERENCE_PROBE_S is what the probe takes on that VM when nothing else
runs, so reported times read as times on an idle machine of that kind.
The probe is benchmark code, untouched by any change to the library, so a
library change moves the reported times as it moves the measured ones.
The raw, unscaled figures are reported beside them.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np
from scipy.special import betainc

REFERENCE_PROBE_S = 0.35e-3
PROBE_CALLS = 150
_PROBE_INPUT = np.linspace(-1.0, 1.0, 4)


def probe() -> float:
    """Seconds taken by a fixed kernel of small numpy calls, the kind of
    work the library does."""
    t0 = time.perf_counter()
    for k in range(PROBE_CALLS):
        np.logaddexp(0.0, _PROBE_INPUT + k).sum()
    return time.perf_counter() - t0


def speed_factor() -> float:
    """REFERENCE_PROBE_S over the median of five probes run now."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(5))


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. The scenario mix has a gap in its latencies at the
    median, where the two middle samples alone would swing from run to
    run."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def run_loop(op, cycle: int, seconds: float, min_ops: int):
    """Call op(i) for i = 0, 1, ... in whole cycles until `seconds` have
    passed and at least `min_ops` operations ran. Returns per-operation
    arrays in seconds: probe (one more than operations: the probes before
    the first and after each operation), wall time, CPU time."""
    probes, walls, cpus = [probe()], [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        a, c = time.perf_counter(), time.process_time()
        op(i)
        walls.append(time.perf_counter() - a)
        cpus.append(time.process_time() - c)
        probes.append(probe())
        i += 1
        if (i % cycle == 0 and i >= min_ops
                and time.perf_counter() - t0 >= seconds):
            return np.array(probes), np.array(walls), np.array(cpus)


def loop_metrics(probes, walls, cpus, completed_share: float):
    """End-to-end metrics, times at reference speed, plus the raw figures
    for the report. The loop runs whole cycles, so every case of the
    workload has the same weight."""
    scale = REFERENCE_PROBE_S / ((probes[:-1] + probes[1:]) / 2)
    lat_ms = walls * scale * 1e3
    return {
        "ops_per_s": completed_share / float(np.mean(walls * scale)),
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "cpu_ms_per_op": float(np.mean(cpus * scale)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "raw_ops_per_s": len(walls) / float(walls.sum()),
        "raw_latency_p50_ms": quantile(walls * 1e3, 0.5),
        "raw_latency_p90_ms": quantile(walls * 1e3, 0.9),
        "median_probe_ms": float(np.median(probes)) * 1e3,
        "ops_ms": (np.column_stack([probes[:-1], walls, cpus]) * 1e3).tolist(),
    }
