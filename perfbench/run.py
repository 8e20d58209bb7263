#!/usr/bin/env python3
"""Closed-loop benchmark of cfmarkets with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sudden_mc --seed 1 --seconds 20 --trace 0

One process and one thread drive the public API; each operation is timed
from outside. The workloads are defined in `workloads.py` and listed with
their metrics in BENCHMARK.json at the repository root.

--trace 0 measures the end-to-end metrics. Set-up (import cfmarkets, build
the workload's models and observations, one warm-up operation) is timed in
this process and in four fresh subprocesses, and `setup_s` is the median
of the five. The loop in `timing.py` then runs operations in whole cycles of
the workload's cases until --seconds have passed and at least 100
operations ran, so that at least 10 lie above p90. Reported times are
scaled to a reference machine speed, as `timing.py` explains; the raw
figures are printed and reported beside them.

--trace 1 runs a fixed list of operations twice, first untraced and then
with every layer wrapped by `tracer.py`, and reports the per-layer metrics
of the traced pass. The list does not depend on --seconds, so every count
repeats exactly for a given seed. Both passes must produce identical
outputs. `trace.overhead_s` is the traced pass's wall time minus the
untraced pass's.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A report with the environment is written to
perfbench/out/, and the traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# single-threaded numerics, set before numpy is first imported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

SETUP_PROBES = 4  # extra set-ups in fresh processes, for a median of five
MIN_OPS = 100
TRACE_OPS = {"sudden_mc": 60, "gradual_mc": 40, "scenario_cli": 16}

# ROADMAP re-anchor rows: (operation, ROADMAP value, workload, span name,
# operation labels the spans must come from, only LCMM solves that computed)
ROADMAP_ROWS = (
    ("product-LMSR cost", "9 us", "sudden_mc", "costs.product-lmsr.cost",
     None, False),
    ("LMSR(4) cost (scipy logsumexp)", "125 us", "sudden_mc",
     "costs.lmsr.cost", ("lmsr(4)/partition",), False),
    ("one hull_contains LP", "2.1 ms", "scenario_cli",
     "geometry.hull_contains", None, False),
    ("medal(2) LcmmCost.solve", "3.4 ms", "gradual_mc", "lcmm.solve",
     ("medal(2)",), True),
    ("SwitchedCost.conjugate", "6 ms", "scenario_cli",
     "costs.switched.conjugate", None, False),
    ("plan_switch (square)", "13 ms", "sudden_mc", "switching.plan_switch",
     ("square/coordinate(0)",), False),
    ("check_desiderata (square, coordinate 0)", "399 ms", "scenario_cli",
     "switching.check_desiderata", ("square_sudden.scn",), False),
)


def fail(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def setup(workload: str, seed: int):
    """Import the library, build the workload and run one warm-up
    operation. Returns (workload, seconds, warm-up result)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cfmarkets
    if Path(cfmarkets.__file__).resolve().parent != SRC / "cfmarkets":
        fail(f"imported cfmarkets from {cfmarkets.__file__}, not {SRC}")
    import workloads  # imports numpy and cfmarkets; part of set-up time

    wl = workloads.WORKLOADS[workload](seed)
    warm = run_op(wl, 0, [])  # a failure shows again when the loop reruns op 0
    return wl, time.perf_counter() - t0, warm


def scaled_setup(setup_s: float) -> list:
    """[measured, at reference speed] set-up seconds; the speed is probed
    right after the set-up, once numpy is imported."""
    import timing  # imports numpy, so only after set-up was timed

    return [setup_s, setup_s * timing.speed_factor()]


def probe_setup(workload: str, seed: int) -> list:
    """`scaled_setup` of a set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
         "--setup-only"], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_op(wl, i: int, failures: list):
    """Run operation i; a raised error or a failed check counts as a
    failure and the loop goes on."""
    try:
        return wl.op(i)
    except Exception as e:  # the loop must survive any library error
        failures.append(f"op {i}: {type(e).__name__}: {e}")
        return None


def measure(wl, seconds: float, warm, failures: list) -> dict:
    import timing

    def op(i):
        out = run_op(wl, i, failures)
        if i == 0 and None not in (out, warm) and out != warm:
            failures.append("op 0 repeated the warm-up with different output")

    probes, walls, cpus = timing.run_loop(op, wl.cycle, seconds, MIN_OPS)
    stats = timing.loop_metrics(probes, walls, cpus,
                                1.0 - len(failures) / len(walls))
    stats["attempted"] = len(walls)
    return stats


def traced_run(wl, workload: str, warm, failures: list):
    import tracer

    n = TRACE_OPS[workload]
    t0 = time.perf_counter()
    plain = [run_op(wl, i, failures) for i in range(n)]
    untraced_s = time.perf_counter() - t0
    if None not in (plain[0], warm) and plain[0] != warm:
        failures.append("op 0 repeated the warm-up with different output")
    tr = tracer.Tracer()
    with tracer.install(tr):
        t0 = time.perf_counter()
        seen = []
        for i in range(n):
            tr.op = i
            seen.append(run_op(wl, i, failures))
        traced_s = time.perf_counter() - t0
    for i, (a, b) in enumerate(zip(plain, seen)):
        if None not in (a, b) and a != b:
            failures.append(f"op {i}: traced output differs from untraced")
    labels = {i: out[0] for i, out in enumerate(plain) if out is not None}
    return tr.spans, labels, traced_s - untraced_s, 2 * n


def roadmap(spans, labels, workload: str) -> list:
    import tracer

    rows = []
    for row, value, wl_name, span, want, computed in ROADMAP_ROWS:
        if wl_name != workload:
            continue
        ops = (None if want is None
               else {i for i, lab in labels.items() if lab in want})
        ms, calls = tracer.per_call_ms(spans, span, ops, computed)
        rows.append({"operation": row, "roadmap": value, "span": span,
                     "measured_ms_per_call": ms, "calls": calls})
    return rows


def write_spans(path: Path, spans):
    with gzip.open(path, "wt", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("id", "name", "start_ns", "end_ns", "parent", "op",
                    "error"))
        for k, s in enumerate(spans):
            w.writerow((k, *s[:6]))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checked-out commit, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": git_commit()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if not (SRC / "cfmarkets" / "__init__.py").is_file():
        fail(f"no cfmarkets sources under {SRC}")

    wl, setup_s, warm = setup(args.workload, args.seed)
    setup_sample = scaled_setup(setup_s)
    if args.setup_only:
        print(json.dumps(setup_sample))
        return 0
    failures: list = []
    env = environment()
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env}
    if args.trace:
        import tracer

        spans, labels, overhead_s, attempted = traced_run(
            wl, args.workload, warm, failures)
        wanted = [m["name"] for m in spec["per_layer"]]
        values = tracer.layer_metrics(spans, wanted, overhead_s)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["roadmap"] = roadmap(spans, labels, args.workload)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        write_spans(spans_path, spans)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        stats = measure(wl, args.seconds, warm, failures)
        samples = [setup_sample] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
        stats["setup_s"] = statistics.median(s for _, s in samples)
        stats["raw_setup_s"] = statistics.median(s for s, _ in samples)
        report["setup_samples_s"] = samples
        attempted = stats["attempted"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: stats[name] for name in units}
        report["loop"] = {k: v for k, v in stats.items() if k not in values}

    report["fail_ratio"] = len(failures) / attempted
    report["failures"] = failures
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, default=str) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"{'fail_ratio':40s} {report['fail_ratio']:.6g} ratio "
          f"({len(failures)} of {attempted} operations)")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    if "loop" in report:
        loop = report["loop"]
        print(f"times above are at reference speed; as measured: "
              f"{loop['raw_ops_per_s']:.6g} ops/s, p50 "
              f"{loop['raw_latency_p50_ms']:.6g} ms, p90 "
              f"{loop['raw_latency_p90_ms']:.6g} ms, set-up "
              f"{loop['raw_setup_s']:.4g} s; median probe "
              f"{loop['median_probe_ms']:.4g} ms")
    for row in report.get("roadmap", ()):
        ms = row["measured_ms_per_call"]
        shown = "n/a" if ms is None else f"{ms:.4g} ms"
        print(f"roadmap {row['operation']}: {row['roadmap']} then, "
              f"{shown} traced ({row['calls']} calls)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
