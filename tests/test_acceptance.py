"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines). The full suite takes a few minutes; the
heaviest pieces are the 100-instance relaxation sandwich and the d=40
branch-and-bound grid.
"""
import csv
import math
import statistics
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from soslab.certificate import (
    BINARY_ONE,
    certify,
    expansivity_table,
    positivity_graph,
)
from soslab.errors import CertificateUndefined
from soslab.estimators import (
    BRANCH_AND_BOUND,
    EXHAUSTIVE,
    avg_estimate,
    lp_estimate,
    max_estimate,
    scan_estimate,
)
from soslab.lab import ExperimentConfig, run_experiment
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, generate
from soslab.sdp import SolverOptions, solve
from soslab.seeds import generator, mix_seed
from soslab.sos import assemble_basic, assemble_level
from constructors import eta

BASE_SEED = 20260809


def note(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def rademacher_null(d, s_star, seed, nu=1.0):
    params = ModelParams(
        kind="submatrix", d=d, s_star=s_star, beta_star=0.0,
        noise=Noise("rademacher", nu), seed=seed,
    )
    return generate(params)


def sbm_half(d, s_star, seed):
    params = ModelParams(
        kind="sbm", d=d, s_star=s_star, beta_star=0.5, beta_tilde=0.5, seed=seed
    )
    return generate(params)


def certified_run(instance, s_star, ell):
    try:
        report = certify(instance.matrix, s_star, ell)
    except CertificateUndefined:
        return None
    return report, report.objective


@lru_cache(maxsize=1)
def rademacher_runs():
    """50 Rademacher(1) nulls at d=40, ell=1, s* cycling over {2,3,4}."""
    out = []
    for rep in range(50):
        s_star = (2, 3, 4)[rep % 3]
        seed = mix_seed(BASE_SEED, rep)
        run = certified_run(rademacher_null(40, s_star, seed), s_star, 1)
        out.append((s_star, 1, run))
    return out


@lru_cache(maxsize=1)
def sbm_runs():
    """50 half-probability block-model nulls at d=30, (s*, ell) cycling."""
    cells = [(s, ell) for ell in (1, 2) for s in (2, 3, 4, 5)]
    out = []
    for rep in range(50):
        s_star, ell = cells[rep % len(cells)]
        seed = mix_seed(BASE_SEED + 1, rep)
        run = certified_run(sbm_half(30, s_star, seed), s_star, ell)
        out.append((s_star, ell, run))
    return out


def test_c01_exact_certificate_feasibility():
    defined = 0
    for s_star, ell, run in rademacher_runs() + sbm_runs():
        if run is None:
            continue
        report, _ = run
        assert report.normalization_ok
        assert report.rowsum_max_violation == 0  # exact rational equality
        defined += 1
    assert defined >= 95  # eta(empty) = 0 is essentially impossible at these sizes
    note(1, f"rowsum violation exactly 0 on all {defined} defined certificates")


def test_c02_exact_objective_values():
    for s_star, ell, run in rademacher_runs():
        if run is not None:
            assert run[1] == Fraction(1)  # nu = 1, exact
    for s_star, ell, run in sbm_runs():
        if run is not None:
            assert run[1] == Fraction(1)
    note(2, "certificate objective exactly 1 (rational equality) on both models")


def test_c03_expansivity_identity():
    rng = generator(BASE_SEED + 2)
    graphs = 0
    while graphs < 100:
        d = int(rng.integers(5, 21))
        p = (0.2, 0.5, 0.8)[graphs % 3]
        ell = 1 + graphs % 2
        entries = (rng.random(n_pairs(d)) < p).astype(float)
        g = positivity_graph(NoisyMatrix(d=d, entries=entries), BINARY_ONE)
        table = expansivity_table(g, ell)
        for k in range(2 * ell):
            for S in combinations(range(1, d + 1), k):
                lhs = sum(eta(table, S + (i,)) for i in range(1, d + 1) if i not in S)
                assert lhs == (2 * ell - k) * eta(table, S)
        graphs += 1
    note(3, "counting identity exact on 100 random graphs")


def test_c04_genuine_moment_psd():
    checked = 0
    for s_star, ell, run in rademacher_runs() + sbm_runs():
        if run is None or s_star > 2 * ell:
            continue
        report, _ = run
        assert report.min_eigenvalue >= -1e-10
        checked += 1
    assert checked >= 20
    note(4, f"lambda_min >= -1e-10 on all {checked} genuine-moment certificates")


@lru_cache(maxsize=1)
def pseudo_regime_runs():
    """Criterion 5/8 grid: d=40, ell=1, Rademacher null, 50 reps per s*."""
    out = {}
    for s_star in (3, 4, 5):
        rows = []
        for rep in range(50):
            seed = mix_seed(BASE_SEED + 3, 1000 * s_star + rep)
            instance = rademacher_null(40, s_star, seed)
            run = certified_run(instance, s_star, 1)
            assert run is not None
            rows.append((instance, run[0], run[1]))
        out[s_star] = rows
    return out


def test_c05_pseudo_regime_psd_rate():
    runs = pseudo_regime_runs()
    rates = {}
    for s_star, rows in runs.items():
        rates[s_star] = sum(report.psd for _, report, _ in rows) / len(rows)
    assert rates[3] >= 0.5
    note(5, f"psd rate at s*=3 is {rates[3]:.2f} >= 0.5 "
            f"(reported without assertion: s*=4 -> {rates[4]:.2f}, s*=5 -> {rates[5]:.2f})")


def test_c06_relaxation_sandwich():
    """Ordering chain scan <= level2 <= level1 <= basic <= lp at 1e-5.

    The final link is reported honestly: basic <= lp is false in general.
    The basic program carries no row-sum constraints and no entrywise
    nonnegativity, so when an entry's magnitude exceeds the largest entry it
    can place negative pair mass there and beat the entrywise linear bound
    (cross-checked against an independent interior-point solver).
    """
    rng = generator(BASE_SEED + 4)
    options = SolverOptions()
    violations = {"scan<=l2": [], "l2<=l1": [], "l1<=basic": [], "basic<=lp": []}
    for k in range(100):
        d = int(rng.integers(4, 11))
        s = int(rng.integers(2, min(4, d) + 1))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        scan = scan_estimate(X, s).value
        v2 = solve(assemble_level(X, s, 2), options).value
        v1 = solve(assemble_level(X, s, 1), options).value
        vb = solve(assemble_basic(X, s), options).value
        lp = lp_estimate(X, s)
        if not scan - 1e-5 <= v2:
            violations["scan<=l2"].append((k, d, s, scan, v2))
        if not v2 <= v1 + 1e-5:
            violations["l2<=l1"].append((k, d, s, v2, v1))
        if not v1 <= vb + 1e-5:
            violations["l1<=basic"].append((k, d, s, v1, vb))
        if not vb <= lp + 1e-5:
            violations["basic<=lp"].append((k, d, s, vb, lp))
    broken = {link: v for link, v in violations.items() if v}
    if broken:
        lines = [
            f"link {link}: {len(v)} of 100 instances, first at instance "
            f"{v[0][0]} (d={v[0][1]}, s*={v[0][2]}): {v[0][3]:.6f} vs {v[0][4]:.6f}"
            for link, v in broken.items()
        ]
        pytest.fail("ordering violated on: " + "; ".join(lines))
    note(6, "scan <= level2 <= level1 <= basic <= lp held on 100 instances")


def test_c07_solver_analytic_cases():
    for c in (-1.0, 0.0, 3.0):
        sol = solve(assemble_basic(NoisyMatrix(d=2, entries=np.array([c])), 2))
        assert sol.value == pytest.approx(c, abs=1e-5)
    ones = NoisyMatrix(d=4, entries=np.ones(6))
    assert solve(assemble_level(ones, 2, 1)).value == pytest.approx(1.0, abs=1e-5)
    zeros = NoisyMatrix(d=4, entries=np.zeros(6))
    assert solve(assemble_level(zeros, 2, 1)).value == pytest.approx(0.0, abs=1e-7)
    note(7, "basic(d=2) hits c for c in {-1, 0, 3}; all-ones level 1 hits 1; zero objective hits 0")


def test_c08_sos_vs_scan_null_separation():
    rows = pseudo_regime_runs()[3]
    solved = 0
    for instance, report, _ in rows:
        if not report.psd:
            continue
        value = solve(assemble_level(instance.matrix, 3, 1)).value
        assert value >= 1.0 - 1e-4  # the SoS estimate stays >= nu while beta* = 0
        solved += 1
    assert solved >= 25  # expected on >= 50% of replicates per criterion 5
    note(8, f"level-1 value >= 1 - 1e-4 on all {solved} PSD-feasible replicates")


@lru_cache(maxsize=1)
def null_scan_grid():
    """Criterion 9/10 grid: null gaussian d=40, 100 reps per s*."""
    medians_scan = {}
    medians_max = {}
    for s_star in (2, 3, 4, 6):
        scans, maxes = [], []
        for rep in range(100):
            seed = mix_seed(BASE_SEED + 5, 1000 * s_star + rep)
            params = ModelParams(
                kind="submatrix", d=40, s_star=s_star, beta_star=0.0,
                noise=Noise("gaussian", 1.0), seed=seed,
            )
            X = generate(params).matrix
            scans.append(scan_estimate(X, s_star, strategy=BRANCH_AND_BOUND).value)
            maxes.append(max_estimate(X))
        medians_scan[s_star] = statistics.median(scans)
        medians_max[s_star] = statistics.median(maxes)
    return medians_scan, medians_max


def test_c09_scan_rate_shape():
    medians, _ = null_scan_grid()
    assert medians[2] > medians[3] > medians[4] > medians[6]
    theory = math.sqrt((math.log(40 / 2) / 2) / (math.log(40 / 6) / 6))
    ratio = medians[2] / medians[6]
    assert theory / 3 <= ratio <= 3 * theory
    note(9, f"medians strictly decreasing; ratio {ratio:.3f} within factor 3 of {theory:.3f}")


def test_c10_max_and_avg_behavior():
    _, max_medians = null_scan_grid()
    lo, hi = min(max_medians.values()), max(max_medians.values())
    assert (hi - lo) / hi < 0.10  # the max estimator ignores s*

    avg_medians = {}
    for s_star in (2, 4, 6):
        errs = []
        for rep in range(100):
            seed = mix_seed(BASE_SEED + 6, 1000 * s_star + rep)
            params = ModelParams(
                kind="submatrix", d=40, s_star=s_star, beta_star=1.0,
                noise=Noise("gaussian", 1.0), seed=seed,
            )
            X = generate(params).matrix
            errs.append(abs(avg_estimate(X, s_star) - 1.0))
        avg_medians[s_star] = statistics.median(errs)
    # abs error tracks the d/(s*)^2 rate: predicted ratios 4x (2 vs 4) and 9x (2 vs 6)
    for s_star, predicted in ((4, 4.0), (6, 9.0)):
        ratio = avg_medians[2] / avg_medians[s_star]
        assert predicted / 3 <= ratio <= predicted * 3
    note(10, f"max medians within 10% across s*; avg error ratios "
             f"{avg_medians[2] / avg_medians[4]:.2f} and {avg_medians[2] / avg_medians[6]:.2f} "
             f"inside the factor-3 bands around 4 and 9")


def test_c11_oracle_equivalence():
    rng = generator(BASE_SEED + 7)
    for trial in range(200):
        d = int(rng.integers(4, 13))
        s = int(rng.integers(2, min(6, d) + 1))
        if trial % 4 == 0:
            entries = (rng.random(n_pairs(d)) < 0.5).astype(float)
        else:
            entries = rng.standard_normal(n_pairs(d))
        X = NoisyMatrix(d=d, entries=entries)
        a = scan_estimate(X, s, strategy=EXHAUSTIVE)
        b = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
        assert a.value == b.value  # zero tolerance
        assert a.support == b.support
    note(11, "branch-and-bound equals exhaustive (value and support) on 200 instances")


def test_c12_determinism_replay(tmp_path):
    configs = [
        {
            "experiment": "gap",
            "grid": [{"model": "submatrix", "d": 10, "s_star": 3, "beta_star": 1.0,
                      "noise": {"kind": "gaussian", "sigma": 1.0}}],
            "estimators": ["scan", "avg", "max", "lp", "sos_basic", "sos_level:2"],
            "replicates": 3,
            "base_seed": 71,
            "output": str(tmp_path / "gap.csv"),
            "scan_strategy": "exhaustive",
        },
        {
            "experiment": "certificate",
            "grid": [{"model": "submatrix", "d": 14, "s_star": 3, "beta_star": 0.0,
                      "noise": {"kind": "rademacher", "nu": 1.0}, "ell": 1},
                     {"model": "sbm", "d": 12, "s_star": 3, "beta_star": 0.8,
                      "beta_tilde": 0.8, "ell": 2}],
            "replicates": 3,
            "base_seed": 72,
            "solve_sdp": True,
            "output": str(tmp_path / "cert.csv"),
        },
        {
            "experiment": "threshold",
            "grid": [{"model": "submatrix", "d": 12, "s_star": 3,
                      "noise": {"kind": "gaussian", "sigma": 1.0}}],
            "multipliers": [0.0, 1.0, 2.0],
            "replicates": 4,
            "base_seed": 73,
            "output": str(tmp_path / "thr.csv"),
            "scan_strategy": "exhaustive",
        },
    ]

    def stripped(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("runtime_ms") if "runtime_ms" in rows[0] else None
        if drop is not None:
            rows = [row[:drop] + row[drop + 1 :] for row in rows]
        return "\n".join(",".join(row) for row in rows)

    for doc in configs:
        cfg = ExperimentConfig.from_dict(doc)
        paths = run_experiment(cfg)
        first = {p: stripped(p) for p in paths}
        assert run_experiment(cfg) == paths
        for p in paths:
            assert stripped(p) == first[p]
    note(12, "all three experiments replay byte-identically (runtime_ms excluded)")
