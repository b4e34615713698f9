"""Output checks: the committed reference rows and seed-free invariants.

Rows are compared as the CSV strings ``run_experiment`` wrote. Every column
but ``runtime_ms`` must match exactly, except two floats whose last bits
depend on the BLAS build and thread count: the ``estimate`` and
``abs_error`` of SoS rows may differ by ``SOS_TOL`` (ADMM values), and the
certificate ``min_eig`` by ``EIG_TOL`` (a LAPACK eigenvalue, ~1e-16 for the
singular moment matrices here; the ``psd`` verdict still matches exactly).
A check returns the indices of the rows that fail it; each such row counts
once as failed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

SOS_TOL = 1e-5
EIG_TOL = 1e-10
SOS_ESTIMATORS = ("sos_basic", "sos_level")
SOS_COLUMNS = ("estimate", "abs_error")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def strip_runtime(rows: list[dict]) -> list[dict]:
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def _same(column: str, row: dict, want: str, got: str) -> bool:
    if want == got:
        return True
    tol = None
    if column in SOS_COLUMNS and row.get("estimator") in SOS_ESTIMATORS:
        tol = SOS_TOL
    elif column == "min_eig":
        tol = EIG_TOL
    return tol is not None and bool(want) and bool(got) and abs(float(want) - float(got)) <= tol


def compare_rows(expected: list[dict], got: list[dict]) -> set[int]:
    """Indices of ``got`` rows that differ from ``expected`` (missing rows count too)."""
    if len(got) != len(expected):
        return set(range(len(got)))
    bad: set[int] = set()
    for i, (want, have) in enumerate(zip(expected, got)):
        for column, value in want.items():
            if column == "runtime_ms":
                continue
            if not _same(column, want, value, have.get(column, "")):
                bad.add(i)
                break
    return bad


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def invariant_failures(workload: str, rows: list[dict], summary: list[dict]) -> set[int]:
    bad = {i for i, row in enumerate(rows) if row["error"]}
    if workload == "gap":
        groups: dict[tuple, dict[str, int]] = {}
        for i, row in enumerate(rows):
            name = row["estimator"] + (":" + row["level"] if row["level"] else "")
            groups.setdefault((row["d"], row["s_star"], row["rep"], row["seed"]), {})[name] = i
        for idx in groups.values():
            value = {name: float(rows[i]["estimate"]) for name, i in idx.items() if rows[i]["estimate"]}
            # basic <= lp is false in general and is deliberately not checked.
            for low, high in (("scan", "sos_level:2"), ("sos_level:2", "sos_level:1")):
                if low in value and high in value and not value[low] <= value[high] + SOS_TOL:
                    bad |= {idx[low], idx[high]}
    elif workload == "certificate":
        bad |= {i for i, row in enumerate(rows) if row["rowsum_violation_zero"] != "true"}
    else:
        bad |= _summary_failures(rows, summary)
    return bad


def _summary_failures(rows: list[dict], summary: list[dict]) -> set[int]:
    """Rows of every multiplier whose summary line disagrees with a recount."""
    by_c: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_c.setdefault(row["c"], []).append(i)
    lines = {line["c"]: line for line in summary}
    bad: set[int] = set()
    for c, idx in by_c.items():
        line = lines.get(c)
        reps = len({rows[i]["rep"] for i in idx})
        errors = {"0": 0, "1": 0}
        for i in idx:
            reject = int(rows[i]["reject"]) if rows[i]["reject"] else 0
            hyp = rows[i]["hypothesis"]
            errors[hyp] += reject if hyp == "0" else 1 - reject
        type_i, type_ii = errors["0"] / reps, errors["1"] / reps
        want = {
            "d": rows[idx[0]]["d"],
            "s_star": rows[idx[0]]["s_star"],
            "replicates": str(reps),
            "type_i_error": _fmt(type_i),
            "type_ii_error": _fmt(type_ii),
            "summed_error": _fmt(type_i + type_ii),
        }
        if line is None or any(line[k] != v for k, v in want.items()):
            bad |= set(idx)
    if len(lines) != len(by_c):
        bad |= set(range(len(rows)))
    return bad


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def perturb_reference(reference: dict) -> dict:
    """A copy with one numeric value of the first call moved by 1e-4."""
    column = {"gap": "estimate", "certificate": "objective", "threshold": "scan_value"}[
        reference["workload"]
    ]
    calls = json.loads(json.dumps(reference["calls"]))
    for row in calls[0]["rows"]:
        if row[column] and math.isfinite(float(row[column])):
            row[column] = _fmt(float(row[column]) + 1e-4)
            break
    return {**reference, "calls": calls}


def compare_calls(expected: dict, got: dict) -> set[int]:
    """Failed row indices of call ``got``; a summary mismatch fails every row."""
    if compare_rows(expected["summary"], got["summary"]):
        return set(range(len(got["rows"])))
    return compare_rows(expected["rows"], got["rows"])


def check_call(workload: str, index: int, call: dict, reference: dict | None) -> set[int]:
    """Failed row indices of one call: errors, invariants and the reference."""
    bad = invariant_failures(workload, call["rows"], call["summary"])
    if reference is not None and index < len(reference["calls"]):
        ref = reference["calls"][index]
        if ref["base_seed"] != call["base_seed"]:
            raise ValueError(f"reference call {index} has another base seed")
        bad |= compare_calls(ref, call)
    return bad
