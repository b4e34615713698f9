"""The three benchmark workloads: experiment configs, seeds and cell classes.

One *call* is one ``soslab.lab.run_experiment`` on the workload's config
with one replicate; a run repeats calls in a closed loop, call ``i`` with
base seed ``call_seed(seed, i)``. Every workload reports a heavy and a light
timing (the level-2 and the dim-17 SDP solves; the ell=2 and ell=1
certificates; the upper quartile and median scan), so a change that helps
one regime and costs the other shows up as two separate metrics.
"""
from __future__ import annotations

DEFAULT_SEED = 1

# The untimed warm-up call of every process runs on this base seed, which
# no ``call_seed`` produces (call seeds stay below 2**62).
WARMUP_SEED = 2**62 + 12345

_GAUSSIAN = {"kind": "gaussian", "sigma": 1.0}
_RADEMACHER = {"kind": "rademacher", "nu": 1.0}

CONFIGS = {
    "gap": {
        "experiment": "gap",
        "grid": [
            {"model": "submatrix", "d": 16, "s_star": 3, "beta_star": 1.0, "noise": _GAUSSIAN},
        ],
        "estimators": ["scan", "avg", "max", "lp", "sos_basic", "sos_level:1", "sos_level:2"],
        "scan_strategy": "branch-and-bound",
    },
    "certificate": {
        "experiment": "certificate",
        "grid": [
            {"model": "submatrix", "d": 40, "s_star": 3, "beta_star": 0.0,
             "noise": _RADEMACHER, "ell": 1},
            {"model": "submatrix", "d": 40, "s_star": 4, "beta_star": 0.0,
             "noise": _RADEMACHER, "ell": 1},
            {"model": "sbm", "d": 30, "s_star": 3, "beta_star": 0.5, "beta_tilde": 0.5, "ell": 2},
            {"model": "sbm", "d": 30, "s_star": 4, "beta_star": 0.5, "beta_tilde": 0.5, "ell": 2},
        ],
        "solve_sdp": False,
    },
    "threshold": {
        "experiment": "threshold",
        "grid": [{"model": "submatrix", "d": 40, "s_star": 4, "noise": _GAUSSIAN}],
        "multipliers": [0, 1, 2, 3],
        "scan_strategy": "branch-and-bound",
    },
}

# Rough seconds per call on a 2-core x86 box; sizes the fixed-length traced run.
CALL_SECONDS = {"gap": 2.3, "certificate": 0.5, "threshold": 0.15}

# The threshold workload keeps going until it has this many scan cells, so
# its p75 has at least ten samples beyond it.
MIN_CELLS = {"gap": 1, "certificate": 1, "threshold": 40}

# Which calibration probe (worker.make_probe) scales each workload's times:
# the one whose work is most like the workload's own.
PROBE_KIND = {"gap": "eigh", "certificate": "python", "threshold": "python"}

# Per-workload names of the heavy and light timings, under which their raw
# (unscaled) values are printed alongside the results.
TIMING_NAMES = {
    "gap": ("sdp_large_ms_p50", "sdp_small_ms_p50"),
    "certificate": ("cert_ell2_ms_p50", "cert_ell1_ms_p50"),
    "threshold": ("scan_ms_p75", "scan_ms_p50"),
}


def call_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**62


def config(workload: str, base_seed: int, output: str) -> dict:
    """The experiment config document of one call."""
    doc = dict(CONFIGS[workload])
    doc.update(replicates=1, base_seed=base_seed, output=output)
    return doc


def trace_calls(workload: str, seconds: float) -> int:
    """Fixed call count of a traced run: half the time untraced, half traced."""
    return max(1, round(seconds / (2 * CALL_SECONDS[workload])))


def cell_class(workload: str, row: dict) -> str | None:
    """gap and certificate: whether a timed cell (CSV row) counts in the
    ``heavy`` or the ``light`` sum of its call, or in neither."""
    if workload == "gap":
        if row["estimator"] == "sos_level":
            return "heavy" if row["level"] == "2" else "light"
        return "light" if row["estimator"] == "sos_basic" else None
    return "heavy" if row["ell"] == "2" else "light"
