"""Regenerate the committed reference rows of every workload at the default seed.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/<workload>.json``: the CSV rows (without
``runtime_ms``) and threshold summaries of the first calls of a run, one
call per line. Rerun only when an output is meant to change, and say so
where the change is recorded.
"""
from __future__ import annotations

import json

import gate
import workloads
from run import Runner

REFERENCE_CALLS = {"gap": 16, "certificate": 80, "threshold": 40}


def main() -> None:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, count in REFERENCE_CALLS.items():
        runner = Runner(workload, workloads.DEFAULT_SEED)
        try:
            calls = runner.spawn("untraced", calls=count)["calls"]
        finally:
            runner.close()
        for i, call in enumerate(calls):
            bad = gate.check_call(workload, i, call, None)
            if bad:
                raise SystemExit(f"{workload} call {i}: rows {sorted(bad)} fail the invariants")
        lines = [
            json.dumps({"base_seed": c["base_seed"], "rows": gate.strip_runtime(c["rows"]), "summary": c["summary"]})
            for c in calls
        ]
        path = gate.REFERENCE_DIR / f"{workload}.json"
        path.write_text(
            f'{{"workload": "{workload}", "seed": {workloads.DEFAULT_SEED}, "calls": [\n'
            + ",\n".join(lines) + "\n]}\n"
        )
        print(f"{path}: {len(calls)} calls")


if __name__ == "__main__":
    main()
