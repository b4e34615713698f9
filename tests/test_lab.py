import csv
import dataclasses
import json
import math
from itertools import product

import pytest

from soslab.cli import main
from soslab.errors import InvalidParams, RademacherWithSignal
from soslab.lab import (
    ESTIMATORS,
    GAP_COLUMNS,
    THRESHOLD_COLUMNS,
    THRESHOLD_SUMMARY_COLUMNS,
    ExperimentConfig,
    GridPoint,
    estimate,
    run_certificate_experiment,
    run_experiment,
    run_gap_experiment,
    run_threshold_sweep,
    summary_path,
    write_csv,
)
from soslab.matrix import NoisyMatrix
from soslab.models import Noise
from soslab.sdp import SolverOptions, solve
from soslab.seeds import mix_seed
from soslab.sos import assemble_level


def gap_config(tmp_path, **kw):
    doc = {
        "experiment": "gap",
        "grid": [
            {"model": "submatrix", "d": 8, "s_star": 2, "beta_star": 1.0,
             "noise": {"kind": "gaussian", "sigma": 1.0}},
            {"model": "sbm", "d": 8, "s_star": 3, "beta_star": 0.8, "beta_tilde": 0.2},
        ],
        "estimators": ["scan", "avg", "max", "lp", "sos_level:1"],
        "replicates": 3,
        "base_seed": 11,
        "output": str(tmp_path / "gap.csv"),
        "scan_strategy": "exhaustive",
    }
    doc.update(kw)
    return ExperimentConfig.from_dict(doc)


def cert_config(tmp_path, **kw):
    doc = {
        "experiment": "certificate",
        "grid": [
            {"model": "submatrix", "d": 12, "s_star": 3, "beta_star": 0.0,
             "noise": {"kind": "rademacher", "nu": 1.0}, "ell": 1},
            {"model": "sbm", "d": 12, "s_star": 3, "beta_star": 0.8,
             "beta_tilde": 0.8, "ell": 2},
        ],
        "replicates": 2,
        "base_seed": 5,
        "output": str(tmp_path / "cert.csv"),
    }
    doc.update(kw)
    return ExperimentConfig.from_dict(doc)


def threshold_config(tmp_path, **kw):
    doc = {
        "experiment": "threshold",
        "grid": [
            {"model": "submatrix", "d": 10, "s_star": 2,
             "noise": {"kind": "gaussian", "sigma": 1.0}},
        ],
        "multipliers": [0.0, 1.0, 4.0],
        "replicates": 4,
        "base_seed": 2,
        "output": str(tmp_path / "thr.csv"),
        "scan_strategy": "exhaustive",
    }
    doc.update(kw)
    return ExperimentConfig.from_dict(doc)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def strip_runtime(path):
    rows = read_rows(path)
    return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]


def test_gap_accounting_and_schema(tmp_path):
    cfg = gap_config(tmp_path)
    rows = run_gap_experiment(cfg)
    assert len(rows) == len(cfg.grid) * cfg.replicates * len(cfg.estimators)
    write_csv(cfg.output, GAP_COLUMNS, rows)
    loaded = read_rows(cfg.output)
    assert list(loaded[0].keys()) == GAP_COLUMNS
    assert all(row["error"] == "" for row in loaded)
    assert {row["estimator"] for row in loaded} == {"scan", "avg", "max", "lp", "sos_level"}
    levels = {row["level"] for row in loaded if row["estimator"] == "sos_level"}
    assert levels == {"1"}
    # every row carries (seed, rep) for replay
    assert all(row["seed"] and row["rep"] != "" for row in loaded)


def test_gap_abs_error_consistency(tmp_path):
    rows = run_gap_experiment(gap_config(tmp_path))
    for row in rows:
        if row["estimator"] in ("scan", "avg", "max", "lp"):
            assert row["abs_error"] == pytest.approx(abs(row["estimate"] - row["beta_star"]))


def test_gap_sos_dominates_scan_per_seed(tmp_path):
    rows = run_gap_experiment(gap_config(tmp_path))
    by_cell = {}
    for row in rows:
        by_cell.setdefault((row["seed"], row["estimator"]), row)
    for (seed, est), row in by_cell.items():
        if est == "sos_level":
            scan_row = by_cell[(seed, "scan")]
            assert row["estimate"] >= scan_row["estimate"] - 1e-5


def test_gap_failed_cells_recorded(tmp_path):
    cfg = gap_config(tmp_path, estimators=["scan", "max"], max_subsets=3,
                     scan_strategy="exhaustive")
    rows = run_gap_experiment(cfg)
    scans = [r for r in rows if r["estimator"] == "scan"]
    assert all(r["error"].startswith("TooLarge") for r in scans)
    assert all(r["estimate"] == "" for r in scans)
    maxes = [r for r in rows if r["estimator"] == "max"]
    assert all(r["error"] == "" for r in maxes)
    assert len(rows) == len(cfg.grid) * cfg.replicates * 2


def test_gap_noiseless_grid_errors_vanish(tmp_path):
    cfg = gap_config(
        tmp_path,
        grid=[{"model": "submatrix", "d": 8, "s_star": 3, "beta_star": 2.0,
               "noise": {"kind": "gaussian", "sigma": 0.0}}],
        estimators=["scan", "avg", "max"],
    )
    for row in run_gap_experiment(cfg):
        assert row["abs_error"] == 0.0


def test_threshold_summed_error_non_increasing(tmp_path):
    # Monte Carlo shape check: more separation can only help the scan test.
    cfg = threshold_config(
        tmp_path,
        grid=[{"model": "submatrix", "d": 40, "s_star": 4,
               "noise": {"kind": "gaussian", "sigma": 1.0}}],
        multipliers=[0.5, 1.0, 2.0, 4.0],
        replicates=200,
        scan_strategy="branch-and-bound",
    )
    _, summary = run_threshold_sweep(cfg)
    sums = [row["summed_error"] for row in summary]
    assert sums == sorted(sums, reverse=True)
    assert sums[-1] < sums[0]  # the sweep actually separates at large c


def test_certificate_experiment_rows(tmp_path):
    cfg = cert_config(tmp_path)
    rows = run_certificate_experiment(cfg)
    assert len(rows) == len(cfg.grid) * cfg.replicates
    for row in rows:
        assert row["error"] == ""
        assert row["eta_empty"] > 0
        assert row["rowsum_violation_zero"] is True
        assert row["objective"] == 1.0
        assert row["sdp_value"] == ""


def test_certificate_experiment_with_sdp(tmp_path):
    cfg = cert_config(tmp_path, solve_sdp=True, grid=[
        {"model": "submatrix", "d": 10, "s_star": 3, "beta_star": 0.0,
         "noise": {"kind": "rademacher", "nu": 1.0}, "ell": 1},
    ])
    rows = run_certificate_experiment(cfg)
    for row in rows:
        assert isinstance(row["sdp_value"], float)
        if row["psd"]:
            assert row["sdp_value"] >= row["objective"] - 1e-5


def test_certificate_genuine_regime_rows_always_psd(tmp_path):
    cfg = cert_config(tmp_path, replicates=6, grid=[
        {"model": "submatrix", "d": 14, "s_star": 2, "beta_star": 0.0,
         "noise": {"kind": "rademacher", "nu": 1.0}, "ell": 1},
    ])
    rows = run_certificate_experiment(cfg)
    assert all(row["psd"] is True for row in rows)


def test_certificate_undefined_recorded(tmp_path):
    cfg = cert_config(tmp_path, grid=[
        {"model": "sbm", "d": 6, "s_star": 2, "beta_star": 0.0,
         "beta_tilde": 0.0, "ell": 1},
    ])
    rows = run_certificate_experiment(cfg)
    for row in rows:
        assert row["eta_empty"] == 0
        assert row["error"].startswith("CertificateUndefined")


def test_threshold_rows_and_summary(tmp_path):
    cfg = threshold_config(tmp_path)
    rows, summary = run_threshold_sweep(cfg)
    assert len(rows) == len(cfg.grid) * len(cfg.multipliers) * cfg.replicates * 2
    assert len(summary) == len(cfg.grid) * len(cfg.multipliers)
    for row in rows:
        if row["c"] == 0.0:
            # boundary case: beta_bar = 0 and the test degenerates to scan > 0
            assert row["reject"] == int(row["scan_value"] > 0.0)
    for s in summary:
        assert 0.0 <= s["type_i_error"] <= 1.0
        assert 0.0 <= s["type_ii_error"] <= 1.0
        assert s["summed_error"] == pytest.approx(s["type_i_error"] + s["type_ii_error"])


def test_threshold_failed_cells_recorded(tmp_path):
    cfg = threshold_config(tmp_path, max_subsets=3, scan_strategy="exhaustive")
    rows, summary = run_threshold_sweep(cfg)
    assert len(rows) == len(cfg.grid) * len(cfg.multipliers) * cfg.replicates * 2
    for row in rows:
        assert row["error"].startswith("TooLarge")
        assert row["scan_value"] == ""
        assert row["reject"] == ""
    # a failed cell is a wrong decision under either hypothesis
    for s in summary:
        assert s["type_i_error"] == 1.0
        assert s["type_ii_error"] == 1.0
        assert s["summed_error"] == 2.0


def test_threshold_failed_cells_are_errors_in_the_summary(tmp_path):
    # every scan cell fails with TooLarge; the summary must not read as a
    # perfect test
    cfg = threshold_config(
        tmp_path,
        grid=[{"model": "submatrix", "d": 8, "s_star": 3,
               "noise": {"kind": "gaussian", "sigma": 1.0}}],
        replicates=3,
        max_subsets=1,
    )
    run_experiment(cfg)
    with open(summary_path(cfg.output), newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert [float(s["c"]) for s in summary] == list(cfg.multipliers)
    assert [float(s["summed_error"]) for s in summary] == [2.0] * len(cfg.multipliers)


def test_threshold_noiseless_with_large_c_separates(tmp_path):
    cfg = threshold_config(
        tmp_path,
        grid=[{"model": "submatrix", "d": 10, "s_star": 2,
               "noise": {"kind": "gaussian", "sigma": 0.0}}],
        multipliers=[4.0],
        replicates=3,
    )
    rows, summary = run_threshold_sweep(cfg)
    for row in rows:
        if row["hypothesis"] == 1:
            assert row["reject"] == 1
    assert summary[0]["summed_error"] == 0.0


def test_threshold_beta_bar_formula(tmp_path):
    cfg = threshold_config(tmp_path, multipliers=[2.0], replicates=1)
    rows, _ = run_threshold_sweep(cfg)
    g = cfg.grid[0]
    beta_bar = 2.0 * math.sqrt(math.log(g.d / g.s_star) / g.s_star)
    h1 = [r for r in rows if r["hypothesis"] == 1][0]
    assert h1["reject"] == int(h1["scan_value"] > beta_bar / 2)


def strip_runtime_text(path):
    """CSV text with the runtime_ms column removed, field bytes untouched."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("runtime_ms") if "runtime_ms" in rows[0] else None
    if drop is not None:
        rows = [row[:drop] + row[drop + 1 :] for row in rows]
    return "\n".join(",".join(row) for row in rows)


def test_replay_byte_identical_excluding_runtime(tmp_path):
    for make in (gap_config, cert_config, threshold_config):
        cfg = make(tmp_path)
        paths_a = run_experiment(cfg)
        snapshots = {p: strip_runtime_text(p) for p in paths_a}
        paths_b = run_experiment(cfg)
        assert paths_a == paths_b
        for path in paths_b:
            assert strip_runtime_text(path) == snapshots[path]


def test_draw_k_is_seeded_mix_seed_of_k(tmp_path):
    # A run's draws are its grid times its axes in product order, and draw k
    # is seeded mix_seed(base_seed, k); the estimator rows of one gap draw
    # share it.
    gap = gap_config(tmp_path, estimators=["scan", "avg", "max"])
    cert = cert_config(tmp_path)
    thr = threshold_config(tmp_path, replicates=2, grid=[
        {"model": "submatrix", "d": 10, "s_star": 2, "noise": {"kind": "gaussian", "sigma": 1.0}},
        {"model": "submatrix", "d": 12, "s_star": 3, "noise": {"kind": "gaussian", "sigma": 1.0}},
    ])
    runs = [
        (gap, run_gap_experiment(gap), len(gap.estimators), [range(3)], ["rep"]),
        (cert, run_certificate_experiment(cert), 1, [range(2)], ["rep"]),
        (thr, run_threshold_sweep(thr)[0], 1, [thr.multipliers, range(2), (0, 1)],
         ["c", "rep", "hypothesis"]),
    ]
    for cfg, rows, per_draw, axes, fields in runs:
        draws = list(product(cfg.grid, *axes))
        assert len(cfg.grid) >= 2 and len(rows) == per_draw * len(draws)
        for i, row in enumerate(rows):
            k = i // per_draw
            g, *values = draws[k]
            assert (row["d"], row["s_star"], row.get("ell")) == (g.d, g.s_star, g.ell)
            assert [row[f] for f in fields] == values
            assert row["seed"] == mix_seed(cfg.base_seed, k)


def test_run_experiment_writes_summary_file(tmp_path):
    cfg = threshold_config(tmp_path)
    paths = run_experiment(cfg)
    assert paths == [cfg.output, summary_path(cfg.output)]
    summary_rows = read_rows(paths[1])
    assert list(summary_rows[0].keys()) == THRESHOLD_SUMMARY_COLUMNS
    main_rows = read_rows(paths[0])
    assert list(main_rows[0].keys()) == THRESHOLD_COLUMNS


def test_config_validation(tmp_path):
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, estimators=[])
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, estimators=["scan", "sos_level"])
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, estimators=["median"])
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, replicates=0)
    with pytest.raises(InvalidParams):
        cert_config(tmp_path, grid=[{"model": "sbm", "d": 6, "s_star": 2,
                                     "beta_star": 0.5, "beta_tilde": 0.5}])
    with pytest.raises(InvalidParams):
        threshold_config(tmp_path, multipliers=[])
    with pytest.raises(InvalidParams):
        threshold_config(tmp_path, grid=[{"model": "sbm", "d": 6, "s_star": 2,
                                          "beta_star": 0.5, "beta_tilde": 0.5}])
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, experiment="sweep")
    for level in ("x", "0", "-1"):
        with pytest.raises(InvalidParams):
            gap_config(tmp_path, estimators=["scan", f"sos_level:{level}"])
    with pytest.raises(InvalidParams):
        cert_config(tmp_path, grid=[{"model": "sbm", "d": 6, "s_star": 2,
                                     "beta_star": 0.5, "beta_tilde": 0.5, "ell": 0}])
    with pytest.raises(InvalidParams):
        gap_config(tmp_path, solver={"max_iter": 0})


@pytest.mark.parametrize("field", ["tol", "step"])
@pytest.mark.parametrize("value", ["nan", "inf", math.inf, math.nan])
def test_config_rejects_non_finite_solver_settings(tmp_path, field, value):
    # tol and step are constants of the solver, not config keys: a config
    # that sets either, to these values or any other, names an unknown key
    with pytest.raises(InvalidParams) as exc:
        gap_config(tmp_path, solver={field: value})
    assert str(exc.value) == f"solver.{field}: unknown key"


def raw_config(tmp_path, doc):
    return ExperimentConfig.from_dict(doc)


def _gaussian_point(**kw):
    return {"model": "submatrix", "d": 6, "s_star": 2, "beta_star": 0.5, **kw}


def _sbm_point(**kw):
    return {"model": "sbm", "d": 6, "s_star": 2, "beta_star": 0.5, "beta_tilde": 0.5,
            "ell": 1, **kw}


def _at(index, make, field, value, message, pinned=None):
    """A row whose dict or list value pytest would name by its position in
    the table: pinned at the name it has at ``index``, so that inserting a
    row renames no other case. Scalar rows are named by their fields; a new
    row of this kind takes its message as its id, and a row whose message
    changed keeps the one it had (``pinned``)."""
    name = f"{make.__name__}-{field}-value{index}-{pinned or message}"
    return pytest.param(make, field, value, message, id=name)


@pytest.mark.parametrize(
    "make, field, value, message",
    [
        (gap_config, "replicates", "two", "replicates: expected int, got 'two'"),
        (gap_config, "base_seed", None, "base_seed: expected int, got None"),
        (gap_config, "max_subsets", math.inf, "max_subsets: expected int, got inf"),
        _at(3, threshold_config, "multipliers", [1, "x"], "multipliers: expected float, got 'x'"),
        _at(4, gap_config, "solver", {"max_iter": "many"},
         "solver.max_iter: expected int, got 'many'"),
        # the solver's tolerance and starting penalty are constants, not keys
        _at(5, gap_config, "solver", {"tol": 1e-6}, "solver.tol: unknown key"),
        _at(6, cert_config, "grid", [_sbm_point(ell="x")], "grid[0].ell: expected int, got 'x'",
         pinned="grid.ell: expected int, got 'x'"),
        _at(7, cert_config, "grid", [_sbm_point(d="six")], "grid[0].d: expected int, got 'six'",
         pinned="grid.d: expected int, got 'six'"),
        _at(8, cert_config, "grid", [_sbm_point(beta_tilde=None)],
         "grid[0].beta_tilde: expected float, got None",
         pinned="grid.beta_tilde: expected float, got None"),
        _at(9, gap_config, "grid", [_gaussian_point(noise={"kind": "gaussian", "sigma": "x"})],
         "grid[0].noise.sigma: expected float, got 'x'",
         pinned="grid.noise.sigma: expected float, got 'x'"),
        _at(10, gap_config, "grid", [_gaussian_point(noise={"sigma": 1.0})],
         "grid[0].noise.kind: missing",
         pinned="grid.noise.kind: missing"),
        _at(11, gap_config, "grid", [_gaussian_point(noise="gaussian")],
         "grid[0].noise: expected dict, got 'gaussian'",
         pinned="grid.noise: expected dict, got 'gaussian'"),
        _at(12, gap_config, "grid", ["x"], "grid[0]: expected dict, got 'x'",
         pinned="grid: expected dict, got 'x'"),
        (gap_config, "solver", "x", "solver: expected dict, got 'x'"),
        _at(14, raw_config, "doc", [1, 2], "config: expected dict, got [1, 2]"),
        _at(15, gap_config, "estimators", [3], "estimators: expected str, got 3"),
        (cert_config, "solve_sdp", "false", "solve_sdp: expected bool, got 'false'"),
        _at(17, cert_config, "grid", [_sbm_point(d=6.9)], "grid[0].d: expected int, got 6.9",
         pinned="grid.d: expected int, got 6.9"),
        (gap_config, "replicates", 2.5, "replicates: expected int, got 2.5"),
        _at(19, cert_config, "grid", [_sbm_point(d=True)], "grid[0].d: expected int, got True",
         pinned="grid.d: expected int, got True"),
        (gap_config, "max_subsets", 0, "max_subsets must be >= 1, got 0"),
        (threshold_config, "max_subsets", -5, "max_subsets must be >= 1, got -5"),
        (gap_config, "scan_strategy", 5, "scan_strategy: expected str, got 5"),
        _at(23, cert_config, "grid", [_sbm_point(beta_star=True)],
         "grid[0].beta_star: expected float, got True",
         pinned="grid.beta_star: expected float, got True"),
        _at(24, cert_config, "grid", [_sbm_point(d="6")], "grid[0].d: expected int, got '6'",
         pinned="grid.d: expected int, got '6'"),
        _at(25, threshold_config, "multipliers", [1, "2.5"],
         "multipliers: expected float, got '2.5'"),
        _at(26, gap_config, "solver", {"step": 1.0}, "solver.step: unknown key"),
        _at(27, threshold_config, "multipliers", [1.0, math.nan],
         "multipliers must be finite and >= 0, got nan"),
        _at(28, threshold_config, "multipliers", [math.inf],
         "multipliers must be finite and >= 0, got inf"),
        _at(29, threshold_config, "multipliers", [0.0, -1.0],
         "multipliers must be finite and >= 0, got -1.0"),
        _at(30, gap_config, "grid", [_gaussian_point(beta_star=math.nan)],
         "grid[0]: beta_star must be finite and >= 0, got nan",
         pinned="beta_star must be finite and >= 0, got nan"),
        _at(31, gap_config, "grid", [_gaussian_point(beta_star=math.inf)],
         "grid[0]: beta_star must be finite and >= 0, got inf",
         pinned="beta_star must be finite and >= 0, got inf"),
        _at(32, gap_config, "grid", [_gaussian_point(noise={"kind": "gaussian", "sigma": math.nan})],
         "grid[0].noise: gaussian sigma must be finite and >= 0 (0 = noiseless mode), got nan",
         pinned="gaussian sigma must be finite and >= 0 (0 = noiseless mode), got nan"),
        _at(33, gap_config, "grid", [_gaussian_point(noise={"kind": "gaussian", "sigma": math.inf})],
         "grid[0].noise: gaussian sigma must be finite and >= 0 (0 = noiseless mode), got inf",
         pinned="gaussian sigma must be finite and >= 0 (0 = noiseless mode), got inf"),
        _at(34, cert_config, "grid", [_gaussian_point(beta_star=0.0, ell=1,
                                               noise={"kind": "rademacher", "nu": math.inf})],
         "grid[0].noise: rademacher nu must be finite and > 0, got inf",
         pinned="rademacher nu must be finite and > 0, got inf"),
        # a key the parser does not read would otherwise leave its field at
        # the default: sigma = 1, branch-and-bound, max_iter = 100000, ell = None
        _at(35, gap_config, "grid", [_gaussian_point(noise={"kind": "gaussian", "nu": 3.0})],
         "grid[0].noise.nu: unknown key",
         pinned="grid.noise.nu: unknown key"),
        (gap_config, "scan_stratgy", "exhaustive", "scan_stratgy: unknown key"),
        _at(37, gap_config, "solver", {"tolerance": 1e-3}, "solver.tolerance: unknown key"),
        _at(38, cert_config, "grid", [_sbm_point(ell=None, level=2)], "grid[0].level: unknown key",
         pinned="grid.level: unknown key"),
        # an unknown noise kind is named as such, whatever its scale key
        _at(39, gap_config, "grid", [_gaussian_point(noise={"kind": "laplace", "sigma": 1.0})],
         "grid[0].noise: unknown noise kind 'laplace'",
         pinned="unknown noise kind 'laplace'"),
        # a key that the point's model drops: the run would use a model
        # other than the one written
        _at(40, gap_config, "grid", [_sbm_point(noise={"kind": "gaussian", "sigma": 5.0})],
         "grid[0].noise: not a parameter of the sbm model",
         pinned="grid.noise: not a parameter of the sbm model"),
        _at(41, gap_config, "grid", [_gaussian_point(beta_tilde=0.3)],
         "grid[0].beta_tilde: not a parameter of the submatrix model",
         pinned="grid.beta_tilde: not a parameter of the submatrix model"),
        _at(42, gap_config, "solver", {"max_iter": 0}, "solver: max_iter must be >= 1, got 0",
         pinned="max_iter must be >= 1, got 0"),
        _at(43, gap_config, "grid", [], "grid must be non-empty"),
        (gap_config, "scan_strategy", "depth-first", "unknown scan strategy 'depth-first'"),
        _at(45, gap_config, "estimators", ["scan:2"], "estimator 'scan' does not take a level"),
        _at(46, gap_config, "grid", [_gaussian_point(model=3)], "grid[0].model: expected str, got 3",
         pinned="grid.model: expected str, got 3"),
        _at(47, cert_config, "grid", [{"model": "sbm", "s_star": 2, "beta_star": 0.5,
                                       "beta_tilde": 0.5, "ell": 1}], "grid[0].d: missing",
         pinned="grid.d: missing"),
        _at(48, raw_config, "doc", {"experiment": "gap", "grid": [_gaussian_point()],
                                    "estimators": ["max"], "base_seed": 1, "output": "x.csv"},
         "replicates: missing"),
    ],
)
def test_config_field_type_errors_name_the_field(tmp_path, make, field, value, message):
    with pytest.raises(InvalidParams) as exc:
        make(tmp_path, **{field: value})
    assert str(exc.value) == message


# One document per experiment that sets every key the experiment reads, at
# the top, in a grid point and in the solver, each to a value other than its
# default. A threshold point is a gaussian submatrix point, so its model is
# the one it must be and it has no beta_tilde.
_SBM_POINT = {"model": "sbm", "d": 7, "s_star": 3, "beta_star": 0.75, "beta_tilde": 0.25}
_NOISY_POINT = {"model": "submatrix", "d": 9, "s_star": 4,
                "noise": {"kind": "gaussian", "sigma": 2.0}}
_COMMON = {"replicates": 3, "base_seed": 17, "output": "every.csv"}
EVERY_KEY = {
    "gap": {
        "experiment": "gap", **_COMMON,
        "grid": [_SBM_POINT, {**_NOISY_POINT, "beta_star": 1.5}],
        "estimators": ["scan", "sos_level:2"],
        "solver": {"max_iter": 7},
        "scan_strategy": "exhaustive",
        "max_subsets": 5,
    },
    "certificate": {
        "experiment": "certificate", **_COMMON,
        "grid": [{**_SBM_POINT, "ell": 2}, {**_NOISY_POINT, "beta_star": 1.5, "ell": 1}],
        "solver": {"max_iter": 7},
        "solve_sdp": True,
    },
    "threshold": {
        "experiment": "threshold", **_COMMON,
        "grid": [_NOISY_POINT],
        "multipliers": [0.5, 2.0],
        "scan_strategy": "exhaustive",
        "max_subsets": 5,
    },
}


def _as_read(key, value):
    """A document's value as its field holds it."""
    if key == "noise":
        return Noise.from_dict(value, "grid.noise.", "grid.noise")
    if key == "solver":
        return SolverOptions(**value)
    return tuple(value) if isinstance(value, list) else value


def _check_fields(obj, doc, name):
    """Every field of ``obj`` holds what ``doc`` wrote, which is not its
    default, or its default where ``doc`` wrote nothing."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        if f.name == "grid":
            assert len(value) == len(doc["grid"])
            for point, point_doc in zip(value, doc["grid"]):
                _check_fields(point, point_doc, "grid.")
        elif f.name in doc:
            assert value == _as_read(f.name, doc[f.name]) != default, name + f.name
        else:
            assert value == default, name + f.name


@pytest.mark.parametrize("experiment", EVERY_KEY)
def test_a_config_sets_every_field_its_experiment_reads(experiment):
    # a field the document does not write is one the experiment does not
    # read: adding it is an error naming it ("grid.beta_tilde: not a
    # parameter of the submatrix model" on a threshold point)
    doc = EVERY_KEY[experiment]
    cfg = ExperimentConfig.from_dict(doc)
    _check_fields(cfg, doc, "")
    for key in {f.name for f in dataclasses.fields(ExperimentConfig)} - doc.keys():
        with pytest.raises(InvalidParams, match=f"^{key}: unknown key$"):
            ExperimentConfig.from_dict({**doc, key: None})
    written = {key for point in doc["grid"] for key in point}
    for key in {f.name for f in dataclasses.fields(GridPoint)} - written:
        grid = [{**point, key: 1.0} for point in doc["grid"]]
        with pytest.raises(InvalidParams, match=rf"^grid\[0\]\.{key}: "):
            ExperimentConfig.from_dict({**doc, "grid": grid})


def test_every_field_is_read_by_some_experiment():
    docs = EVERY_KEY.values()
    assert {key for doc in docs for key in doc} == {
        f.name for f in dataclasses.fields(ExperimentConfig)
    }
    assert {key for doc in docs for point in doc["grid"] for key in point} == {
        f.name for f in dataclasses.fields(GridPoint)
    }
    assert {key for doc in docs for key in doc.get("solver", {})} == {
        f.name for f in dataclasses.fields(SolverOptions)
    }


_THRESHOLD_POINT = {"model": "submatrix", "d": 6, "s_star": 2}


@pytest.mark.parametrize(
    "make, first, bad, message",
    [
        (gap_config, _gaussian_point(), "x", "grid[1]: expected dict, got 'x'"),
        (gap_config, _gaussian_point(), _gaussian_point(d="six"),
         "grid[1].d: expected int, got 'six'"),
        (gap_config, _gaussian_point(), _gaussian_point(beta_star=math.nan),
         "grid[1]: beta_star must be finite and >= 0, got nan"),
        (gap_config, _gaussian_point(), _gaussian_point(noise={"kind": "laplace"}),
         "grid[1].noise: unknown noise kind 'laplace'"),
        (cert_config, _sbm_point(), _sbm_point(ell=0),
         "grid[1]: certificate points need an 'ell' field >= 1"),
        (threshold_config, _THRESHOLD_POINT, {**_THRESHOLD_POINT, "noise": {"kind": "rademacher"}},
         "grid[1]: threshold needs gaussian submatrix points"),
    ],
    ids=["not-a-dict", "reader", "point-check", "noise-check", "certificate-ell", "threshold-noise"],
)
def test_config_errors_name_the_grid_point(tmp_path, make, first, bad, message):
    # the first point is good: an error that names no point, or point 0,
    # sends the reader to the wrong one
    make(tmp_path, grid=[first])
    with pytest.raises(InvalidParams) as exc:
        make(tmp_path, grid=[first, bad])
    assert str(exc.value) == message


def test_a_named_point_error_keeps_its_type(tmp_path):
    with pytest.raises(RademacherWithSignal) as exc:
        gap_config(tmp_path, grid=[_gaussian_point(noise={"kind": "rademacher"})])
    assert str(exc.value) == "grid[0]: rademacher noise models a null instance; beta_star must be 0"


@pytest.mark.parametrize(
    "experiment, change, message",
    [
        ("certificate", {"solver": {"max_iter": 3}}, "solver: no cell of this config solves an SDP"),
        ("gap", {"estimators": ["scan", "max"], "solver": {"max_iter": 3}},
         "solver: no cell of this config solves an SDP"),
        ("gap", {"estimators": ["max", "sos_basic"], "scan_strategy": "exhaustive"},
         "scan_strategy: no cell of this config scans"),
        ("gap", {"estimators": ["max"], "max_subsets": 2}, "max_subsets: no cell of this config scans"),
    ],
    ids=["certificate-solver", "gap-solver", "gap-scan_strategy", "gap-max_subsets"],
)
def test_config_rejects_a_setting_its_run_ignores(experiment, change, message):
    # the run's other fields leave the setting unread: without it, the
    # config is read
    point = _gaussian_point(ell=1) if experiment == "certificate" else _gaussian_point()
    doc = {"experiment": experiment, "grid": [point], "replicates": 1, "base_seed": 1,
           "output": "x.csv", **change}
    with pytest.raises(InvalidParams) as exc:
        ExperimentConfig.from_dict(doc)
    assert str(exc.value) == message
    key = message.partition(":")[0]
    ExperimentConfig.from_dict({k: v for k, v in doc.items() if k != key})


def test_config_int_fields_accept_integral_floats(tmp_path):
    cfg = gap_config(tmp_path, replicates=3.0, grid=[_gaussian_point(d=6.0)])
    assert cfg.replicates == 3 and isinstance(cfg.replicates, int)
    assert cfg.grid[0].d == 6 and isinstance(cfg.grid[0].d, int)


def test_config_solve_sdp_reads_json_bools(tmp_path):
    assert cert_config(tmp_path, solve_sdp=False).solve_sdp is False
    assert cert_config(tmp_path, solve_sdp=True).solve_sdp is True
    assert cert_config(tmp_path).solve_sdp is False


def test_experiment_cli_reports_bad_field(tmp_path, capsys):
    good = {
        "experiment": "gap",
        "grid": [_gaussian_point(noise={"kind": "gaussian", "sigma": 1.0})],
        "estimators": ["scan"],
        "replicates": 2,
        "base_seed": 3,
        "output": str(tmp_path / "out.csv"),
    }
    for change, message in (
        ({"replicates": "two"}, "replicates: expected int, got 'two'"),
        ({"grid": [_gaussian_point(noise="gaussian")]},
         "grid[0].noise: expected dict, got 'gaussian'"),
        ({"grid": [_gaussian_point(), _gaussian_point(d="six")]},
         "grid[1].d: expected int, got 'six'"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**good, **change}))
        assert main(["experiment", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "InvalidParams", "message": message}
        assert not (tmp_path / "out.csv").exists()


def test_config_json_round_trip(tmp_path):
    cfg = gap_config(tmp_path)
    path = tmp_path / "cfg.json"
    doc = {
        "experiment": "gap",
        "grid": [
            {"model": "submatrix", "d": 8, "s_star": 2, "beta_star": 1.0,
             "noise": {"kind": "gaussian", "sigma": 1.0}},
            {"model": "sbm", "d": 8, "s_star": 3, "beta_star": 0.8, "beta_tilde": 0.2},
        ],
        "estimators": ["scan", "avg", "max", "lp", "sos_level:1"],
        "replicates": 3,
        "base_seed": 11,
        "output": cfg.output,
        "scan_strategy": "exhaustive",
    }
    path.write_text(json.dumps(doc))
    loaded = ExperimentConfig.from_json(str(path))
    assert loaded == cfg


def test_experiment_cli_overrides_output_and_seed(tmp_path, capsys):
    # --out and --seed each replace one field of the config as written;
    # without them the run is the written config's own
    doc = {
        "experiment": "gap",
        "grid": [_gaussian_point(noise={"kind": "gaussian", "sigma": 1.0})],
        "estimators": ["scan", "max"],
        "replicates": 2,
        "base_seed": 3,
        "output": str(tmp_path / "out.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    expected = {}
    for seed in (3, 99):
        ref = str(tmp_path / f"ref{seed}.csv")
        run_experiment(ExperimentConfig.from_dict({**doc, "base_seed": seed, "output": ref}))
        expected[seed] = strip_runtime(ref)
    assert expected[3] != expected[99]

    other = str(tmp_path / "other.csv")
    assert main(["experiment", "--config", str(path), "--out", other, "--seed", "99"]) == 0
    assert capsys.readouterr().out == other + "\n"
    assert strip_runtime(other) == expected[99]
    assert not (tmp_path / "out.csv").exists()

    assert main(["experiment", "--config", str(path)]) == 0
    assert capsys.readouterr().out == doc["output"] + "\n"
    assert strip_runtime(doc["output"]) == expected[3]


def test_estimate_takes_a_configs_names():
    X = NoisyMatrix(d=4, entries=[1.0, 0.0, 2.0, 0.5, 0.0, 1.0])
    solver = SolverOptions()
    assert estimate("sos_level:1", X, 3, solver=solver).value == solve(
        assemble_level(X, 3, 1), solver
    ).value
    for name, message in (
        ("sos_level", "'sos_level': sos_level needs a level >= 1, e.g. 'sos_level:2'"),
        ("avg:1", "estimator 'avg' does not take a level"),
        ("median", "unknown estimator 'median'"),
    ):
        with pytest.raises(InvalidParams) as exc:
            estimate(name, X, 3, solver=solver)
        assert str(exc.value) == message


@pytest.mark.parametrize("base", ESTIMATORS)
def test_every_estimate_value_is_a_python_float(base):
    # Estimate.value is a float for every estimator, the scan's included
    # (not a numpy scalar), so sums and reprs of values agree across them.
    X = NoisyMatrix(d=4, entries=[1.0, 0.0, 2.0, 0.5, 0.0, 1.0])
    name = base + ":1" if base == "sos_level" else base
    assert type(estimate(name, X, 3, solver=SolverOptions()).value) is float

