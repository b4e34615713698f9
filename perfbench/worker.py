"""One benchmark process: set up, then run calls of one workload.

    python3 perfbench/worker.py --workload W --seed N --mode M --t0 T --workdir DIR
        [--seconds S] [--calls K]

Modes: ``setup`` (set up and stop), ``untraced`` (closed loop of
``run_experiment`` calls for S seconds, or exactly K calls) and ``traced``
(exactly K calls through the traced replica). Set-up is everything from the
parent's spawn time T (``time.monotonic``, shared by all processes) to the
first timed call: interpreter start, importing soslab from the checkout,
parsing the config and one untimed warm-up call on ``WARMUP_SEED``.

After set-up and after every call the worker times the calibration probes
(``make_probe``); each call records the mean probe times around it, and
the set-up the medians of ``PROBES_AT_SETUP`` probes. Prints one JSON object on
stdout.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES_AT_SETUP = 3


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def make_probe():
    """Fixed calibration kernels that run no soslab code, timed in ms:
    ``python``, exact-rational sums in a tuple-keyed dict (allocation-heavy
    Python, like the certificate and scan code), and ``eigh``, dense
    symmetric eigendecompositions of the size the level-2 SDP projects.
    Their times track how fast the machine runs at the moment."""
    import numpy

    a = numpy.random.default_rng(0).standard_normal((137, 137))
    a = a + a.T

    def probe_ms() -> dict[str, float]:
        t = time.perf_counter()
        sums: dict = {}
        for i in range(8000):
            key = (i % 97, i % 89, i % 83)
            sums[key] = sums.get(key, Fraction(0)) + Fraction(i, 7)
        t_py = time.perf_counter()
        for _ in range(8):
            numpy.linalg.eigh(a)
        t_eig = time.perf_counter()
        return {"python": (t_py - t) * 1000.0, "eigh": (t_eig - t_py) * 1000.0}

    return probe_ms


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip(),
        **{var: os.environ.get(var, "") for var in THREAD_VARS},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--calls", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import soslab as sl
    from soslab.lab import ExperimentConfig, run_experiment, summary_path

    import workloads

    if not Path(sl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"soslab imported from {sl.__file__}, not from the checkout")
    out = str(Path(args.workdir) / "cells.csv")
    runner = run_experiment
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        runner = tracing.Replica(sl, tracer).run
    runner(ExperimentConfig.from_dict(workloads.config(args.workload, workloads.WARMUP_SEED, out)))
    setup_s = time.monotonic() - args.t0
    if args.mode == "traced":
        tracer.spans.clear()
    probe_ms = make_probe()
    setup_probes = [probe_ms() for _ in range(PROBES_AT_SETUP)]
    before = setup_probes[-1]

    calls = []
    cells = 0
    start = time.monotonic()

    def more() -> bool:
        if args.mode == "setup":
            return False
        if args.calls:
            return len(calls) < args.calls
        return time.monotonic() - start < args.seconds or cells < workloads.MIN_CELLS[args.workload]

    while more():
        base_seed = workloads.call_seed(args.seed, len(calls))
        cfg = ExperimentConfig.from_dict(workloads.config(args.workload, base_seed, out))
        if args.mode == "traced":
            tracer.call = len(calls)
        t = time.perf_counter()
        runner(cfg)
        wall = time.perf_counter() - t
        rows = read_csv(Path(out))
        summary = read_csv(Path(summary_path(out))) if cfg.experiment == "threshold" else []
        cells += len(rows)
        after = probe_ms()
        calls.append({
            "base_seed": base_seed, "wall_s": wall, "rows": rows, "summary": summary,
            "probe_ms": {k: (before[k] + after[k]) / 2.0 for k in after},
        })
        before = after

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "setup_probe_ms": {k: statistics.median(p[k] for p in setup_probes) for k in setup_probes[0]},
        "env": environment(),
    }
    if args.mode == "traced":
        result["per_layer"] = tracing.per_layer(tracer.spans)
        result["spans"] = tracing.dump(tracer.spans)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
