"""Tiny-size smoke run of the benchmark, and the self-check of its gate.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` for one call (one replicate) in
both trace modes and checks the result: every metric the file names is
emitted, with its unit and a name matching ``NAME``; the outputs pass the
gate; the per-workload names of the raw times are reported. Then runs
each workload once more with one reference value perturbed and checks that
the gate fails. Takes about a minute on a 2-core box.
"""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(workload: str, trace: int, *flags: str) -> tuple[dict, dict]:
    """Run the benchmark; return its last stdout line and its result file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--calls", "1", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    path = ROOT / ".perfbench_out" / f"result-{workload}-seed{workloads.DEFAULT_SEED}-trace{trace}.json"
    return last, json.loads(path.read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke check failed: {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        workload = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            last, full = bench(workload, trace)
            what = f"{workload} trace {trace}"
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            check(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, f"{what}: gate")
            want = {m["name"]: m["unit"] for m in spec[key]}
            check(set(last["metrics"]) == set(want), f"{what}: metric names {sorted(set(last['metrics']) ^ set(want))}")
            for name, m in last["metrics"].items():
                check(NAME.fullmatch(name) is not None, f"{what}: name {name!r}")
                check(m["unit"] == want[name], f"{what}: unit of {name}")
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{what}: value of {name}")
                check(full["metrics"][name]["samples"] >= 1, f"{what}: sample count of {name}")
            if trace == 0:
                names = (*workloads.TIMING_NAMES[workload], "failed_frac")
                for name in names:
                    check(name in full["extra"] and full["extra"][name]["unit"], f"{what}: {name}")
                check(full["env"]["nproc"] >= 1 and full["env"]["blas"], f"{what}: environment")
            print(f"ok  {what}: {len(last['metrics'])} metrics")
        last, _ = bench(workload, 0, "--perturb-reference")
        check(not last["correct"] and last["failed"] > 0, f"{workload}: perturbed reference passed the gate")
        print(f"ok  {workload}: perturbed reference fails {last['failed']}/{last['attempted']} cells")
    print("smoke ok")


if __name__ == "__main__":
    main()
