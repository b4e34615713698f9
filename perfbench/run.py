"""The soslab benchmark: three experiment workloads through ``run_experiment``.

    python3 perfbench/run.py --workload {gap,certificate,threshold} --seed N
        --seconds S --trace {0,1} [--calls K] [--perturb-reference]

Run from the root of a source checkout; soslab is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics: ``SETUP_RUNS - 1`` fresh
processes that only set up, then one fresh process that sets up and runs
``run_experiment`` calls in a closed loop for S seconds (or exactly K
calls). Its times are scaled to a reference machine speed by a calibration
probe timed around each call (``end_to_end``). ``--trace 1`` gives the per-layer metrics: one fresh process runs
K calls untraced, a second runs the same K calls through the traced replica
(``tracing.py``); the rows of the two must agree.

Every output row is checked (``gate.py``): against the committed reference
at the default seed, and by seed-free invariants at every seed. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit and sample count, and the environment. The full result is also
written to ``.perfbench_out/``. ``--perturb-reference`` moves one reference
value, so the gate must fail (a self-check of the gate).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads
from tracing import PER_LAYER_UNITS
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 3
DEADLINE_S = 170.0
# Times in the end-to-end metrics are scaled to a machine on which the
# workload's calibration probe (worker.make_probe, workloads.PROBE_KIND)
# takes this long: about its median on the 2-core x86 box the benchmark was
# defined on.
PROBE_REF_MS = {"python": 21.0, "eigh": 11.5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "heavy_ms": "ms",
    "light_ms": "ms",
}


def worker_env() -> dict:
    """The caller's environment with BLAS threads at most ``nproc``, and 1
    where unset: the programs are small (dim <= 466), a second BLAS thread
    made no solve faster and spin-waits on the other core."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit():
            env[var] = "1"
        elif int(value) > nproc:
            env[var] = str(nproc)
    return env


class Runner:
    """Spawns worker processes of one workload, in a scratch dir under ``OUT``."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def spawn(self, mode: str, seconds: float = 0.0, calls: int = 0) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--workdir", str(self.workdir), "--seconds", repr(seconds), "--calls", str(calls),
        ]
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], capture_output=True, text=True, cwd=ROOT,
            env=worker_env(), timeout=max(1.0, self.deadline - t0),
        )
        if proc.returncode != 0:
            raise SystemExit(f"worker ({mode}) failed:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """Median (q=2) or upper quartile (q=3) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[q - 1]


def heavy_light(workload: str, calls: list[dict], scale: list[float]) -> dict[str, tuple[float, int]]:
    """The heavy and light timings as name -> (value, sample count), with the
    times of each call multiplied by its ``scale``.

    threshold: upper quartile and median of the single scan cells. gap and
    certificate: medians over calls of the summed heavy (light) cells; sums,
    because gap's light class mixes two programs whose times differ.
    """
    if workload == "threshold":
        cells = [float(r["runtime_ms"]) * k for c, k in zip(calls, scale) for r in c["rows"] if not r["error"]]
        return {"heavy_ms": (quantile(cells, 3), len(cells)), "light_ms": (quantile(cells, 2), len(cells))}
    sums: dict[str, list[float]] = {"heavy": [], "light": []}
    for call, k in zip(calls, scale):
        total = dict.fromkeys(sums, 0.0)
        for row in call["rows"]:
            cls = workloads.cell_class(workload, row)
            if cls is not None and not row["error"]:
                total[cls] += float(row["runtime_ms"])
        for cls, values in sums.items():
            values.append(total[cls] * k)
    return {f"{cls}_ms": (statistics.median(values), len(values)) for cls, values in sums.items()}


def gate_calls(workload: str, calls: list[dict], reference: dict | None) -> tuple[int, int]:
    attempted = failed = 0
    for i, call in enumerate(calls):
        attempted += len(call["rows"])
        failed += len(gate.check_call(workload, i, call, reference))
    return attempted, failed


def end_to_end(workload: str, procs: list[dict]) -> tuple[dict, dict]:
    """Metrics as name -> (value, sample count), and the raw (unscaled) times
    as name -> (value, unit, sample count).

    Each time is scaled to the reference machine speed by the probe time
    measured around it; the last process in ``procs`` ran the calls.
    """
    calls = procs[-1]["calls"]
    kind = workloads.PROBE_KIND[workload]
    scale = [PROBE_REF_MS[kind] / c["probe_ms"][kind] for c in calls]
    setups = [p["setup_s"] for p in procs]
    walls = [c["wall_s"] for c in calls]
    out = {
        "setup_s": (
            statistics.median(t * PROBE_REF_MS[kind] / p["setup_probe_ms"][kind] for t, p in zip(setups, procs)),
            len(procs),
        ),
        "wall_s": (statistics.median(t * k for t, k in zip(walls, scale)), len(calls)),
        **heavy_light(workload, calls, scale),
        "peak_rss_mb": (procs[-1]["peak_rss_mb"], 1),
    }
    raw = heavy_light(workload, calls, [1.0] * len(calls))
    heavy, light = workloads.TIMING_NAMES[workload]
    extra = {
        "setup_s.raw": (statistics.median(setups), "s", len(procs)),
        "wall_s.raw": (statistics.median(walls), "s", len(calls)),
        heavy: (raw["heavy_ms"][0], "ms", raw["heavy_ms"][1]),
        light: (raw["light_ms"][0], "ms", raw["light_ms"][1]),
        **{
            f"probe.{k}_ms": (statistics.median(c["probe_ms"][k] for c in calls), "ms", len(calls))
            for k in PROBE_REF_MS
        },
    }
    return out, extra


def run(args) -> dict:
    runner = Runner(args.workload, args.seed)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = gate.load_reference(args.workload)
        if args.perturb_reference:
            reference = gate.perturb_reference(reference)
    result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace == 0:
            procs = [runner.spawn("setup") for _ in range(SETUP_RUNS - 1)]
            main = runner.spawn("untraced", seconds=args.seconds, calls=args.calls)
            procs.append(main)
            attempted, failed = gate_calls(args.workload, main["calls"], reference)
            metrics, extra = end_to_end(args.workload, procs)
            units = END_TO_END_UNITS
            result["env"] = main["env"]
        else:
            k = args.calls or workloads.trace_calls(args.workload, args.seconds)
            plain = runner.spawn("untraced", calls=k)
            traced = runner.spawn("traced", calls=k)
            attempted, failed = gate_calls(args.workload, plain["calls"], reference)
            mismatched = sum(len(gate.compare_calls(a, b)) for a, b in zip(plain["calls"], traced["calls"]))
            failed += mismatched
            plain_wall = sum(c["wall_s"] for c in plain["calls"])
            traced_wall = sum(c["wall_s"] for c in traced["calls"])
            layer = dict(traced["per_layer"])
            layer["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
            metrics = {name: (value, k) for name, value in layer.items()}
            extra = {"trace.mismatched_rows": (mismatched, "count", attempted)}
            units = PER_LAYER_UNITS
            result["env"] = traced["env"]
            OUT.joinpath(f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(traced["spans"]))
    finally:
        runner.close()
    failed = min(failed, attempted)
    extra["failed_frac"] = (failed / attempted if attempted else 1.0, "frac", attempted)
    result.update(
        correct=failed == 0 and attempted > 0,
        attempted=attempted,
        failed=failed,
        metrics={name: {"value": v, "unit": units[name], "samples": n} for name, (v, n) in metrics.items()},
        extra={name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in extra.items()},
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.CONFIGS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calls", type=int, default=0, help="run exactly this many calls")
    ap.add_argument("--perturb-reference", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "soslab" / "__init__.py").is_file():
        print(f"no soslab source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    result = run(args)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for name, m in [*result["metrics"].items(), *result["extra"].items()]:
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
