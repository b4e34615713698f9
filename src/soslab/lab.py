"""Experiment harness: deterministic grids, replicates, and CSV output.

Seeding: replicate ``rep`` of grid point ``gi`` uses
``mix_seed(base_seed, gi * replicates + rep)``; the threshold sweep, which
draws paired null/alternative instances per multiplier, uses
``mix_seed(base_seed, ((gi * n_mult + ci) * replicates + rep) * 2 + hyp)``.
Rerunning a config reproduces every CSV byte except the runtime_ms column.

Settings check themselves when built, so a config that exists is a valid
one. A config is read from its dataclasses (``fields.read``); it holds only
its experiment's keys, and none that its other fields leave unread
(``solver`` without an SDP solve). An estimator has one name from config
to CLI (``parse_estimator``).

Formatting: floats carry 17 significant digits, booleans are ``true`` /
``false``, exact rationals are written as ``p/q`` by the report writer, and
a failed cell keeps its row with the failure in the ``error`` column.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .certificate import certify
from .errors import CertificateUndefined, InvalidParams, SoslabError
from .estimators import (
    BRANCH_AND_BOUND,
    DEFAULT_MAX_SUBSETS,
    avg_estimate,
    check_scan_settings,
    lp_estimate,
    max_estimate,
    scan_estimate,
)
from .fields import parse, parse_field, read
from .matrix import NoisyMatrix
from .models import GAUSSIAN, SBM, SUBMATRIX, ModelParams, Noise, check_model_keys, generate
from .sdp import SdpSolution, SolverOptions, solve
from .seeds import mix_seed
from .sos import assemble_basic, assemble_level

GAP = "gap"
CERTIFICATE = "certificate"
THRESHOLD = "threshold"

GAP_COLUMNS = [
    "model", "d", "s_star", "beta_star", "noise", "estimator", "level",
    "rep", "seed", "estimate", "abs_error", "runtime_ms", "error",
]
CERTIFICATE_COLUMNS = [
    "model", "d", "s_star", "ell", "rep", "seed", "eta_empty",
    "rowsum_violation_zero", "min_eig", "psd", "objective", "sdp_value",
    "runtime_ms", "error",
]
THRESHOLD_COLUMNS = [
    "d", "s_star", "c", "rep", "seed", "hypothesis", "scan_value", "reject",
    "runtime_ms", "error",
]
THRESHOLD_SUMMARY_COLUMNS = [
    "d", "s_star", "c", "replicates", "type_i_error", "type_ii_error", "summed_error",
]

ESTIMATORS = ("scan", "avg", "max", "lp", "sos_basic", "sos_level")
# The estimators that solve an SDP, the only ones a solver setting reaches.
SDP_ESTIMATORS = {"sos_basic", "sos_level"}

# The keys of a grid point beside ``model`` and ``noise``.
_POINT_READERS = {"d": int, "s_star": int, "beta_star": float, "beta_tilde": float, "ell": int}

# The keys each experiment does not read (a grid point's as ``grid.<key>``):
# in its config such a key is unknown. A missing or unknown experiment reads every key.
_UNREAD = {
    GAP: {"multipliers", "solve_sdp", "grid.ell"},
    CERTIFICATE: {"estimators", "multipliers", "scan_strategy", "max_subsets"},
    THRESHOLD: {"estimators", "solve_sdp", "solver", "grid.beta_star", "grid.ell"},
}


def _tuple_of(kind: type) -> Callable:
    """The reader of a list of ``kind`` values, as a tuple."""
    return lambda value, name: tuple(parse(kind, v, name) for v in parse(list, value, name))


@dataclass(frozen=True)
class GridPoint:
    """One model cell of the experiment grid (the seed comes per replicate)."""

    model: str
    d: int
    s_star: int
    beta_star: float = 0.0
    noise: Noise | None = None
    beta_tilde: float | None = None
    ell: int | None = None

    def __post_init__(self) -> None:
        self.params(seed=0)

    def params(self, seed: int, beta_star: float | None = None) -> ModelParams:
        return ModelParams(
            kind=self.model,
            d=self.d,
            s_star=self.s_star,
            beta_star=self.beta_star if beta_star is None else beta_star,
            noise=self.noise,
            beta_tilde=self.beta_tilde,
            seed=seed,
        )

    def noise_label(self) -> str:
        if self.model == SBM:
            return f"beta_tilde:{fmt_float(self.beta_tilde)}"
        assert self.noise is not None
        return f"{self.noise.kind}:{fmt_float(self.noise.scale)}"

    @classmethod
    def from_dict(cls, doc: dict, prefix: str, readers: dict = _POINT_READERS) -> "GridPoint":
        """A point read with ``readers``, its experiment's share of
        ``_POINT_READERS``, named with ``prefix`` (``grid[0].`` in a config);
        its model, read first, sets its noise default."""
        doc = parse(dict, doc, prefix.rstrip("."))
        model = parse_field(doc, "model", str, SUBMATRIX, prefix + "model")
        check_model_keys(model, doc, prefix)
        noise = None
        if model == SUBMATRIX:
            noise_doc = doc.get("noise", {"kind": GAUSSIAN})
            noise = Noise.from_dict(noise_doc, prefix + "noise.", prefix and prefix + "noise")
        return read(cls, doc, readers, prefix, model=model, noise=noise)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid: tuple[GridPoint, ...]
    replicates: int
    base_seed: int
    output: str
    estimators: tuple[str, ...] = ()
    multipliers: tuple[float, ...] = ()
    solver: SolverOptions = field(default_factory=SolverOptions)
    solve_sdp: bool = False
    scan_strategy: str = BRANCH_AND_BOUND
    max_subsets: int = DEFAULT_MAX_SUBSETS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """The checks across fields; grid points and solver options check themselves."""
        if self.experiment not in (GAP, CERTIFICATE, THRESHOLD):
            raise InvalidParams(f"unknown experiment {self.experiment!r}")
        if self.replicates < 1:
            raise InvalidParams("replicates must be >= 1")
        if not self.grid:
            raise InvalidParams("grid must be non-empty")
        if self.experiment == GAP:
            if not self.estimators:
                raise InvalidParams("gap experiment needs at least one estimator")
            for name in self.estimators:
                parse_estimator(name)
        if self.experiment == CERTIFICATE:
            for i, g in enumerate(self.grid):
                if g.ell is None or g.ell < 1:
                    raise InvalidParams(f"grid[{i}]: certificate points need an 'ell' field >= 1")
        for c in self.multipliers:
            # a NaN separation makes every H1 cell fail, which reads as no type II error
            if not 0 <= c < math.inf:
                raise InvalidParams(f"multipliers must be finite and >= 0, got {c}")
        if self.experiment == THRESHOLD:
            if not self.multipliers:
                raise InvalidParams("threshold experiment needs signal multipliers")
            for i, g in enumerate(self.grid):
                if g.model != SUBMATRIX or g.noise is None or g.noise.kind != GAUSSIAN:
                    raise InvalidParams(f"grid[{i}]: threshold needs gaussian submatrix points")
        check_scan_settings(self.scan_strategy, self.max_subsets)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = parse(dict, doc, "config")
        experiment = doc.get("experiment")  # a list would be unhashable
        unread = _UNREAD.get(experiment, set()) if isinstance(experiment, str) else set()
        point = {key: r for key, r in _POINT_READERS.items() if "grid." + key not in unread}
        readers = {
            "experiment": str,
            "grid": lambda value, name: tuple(
                GridPoint.from_dict(g, f"{name}[{i}].", point)
                for i, g in enumerate(parse(list, value, name))
            ),
            "replicates": int, "base_seed": int, "output": str,
            "estimators": _tuple_of(str), "multipliers": _tuple_of(float),
            "solver": lambda value, name: read(
                SolverOptions, parse(dict, value, name), {"max_iter": int}, name + "."
            ),
            "solve_sdp": bool, "scan_strategy": str, "max_subsets": int,
        }
        cfg = read(cls, doc, {key: r for key, r in readers.items() if key not in unread})
        # a setting that no cell of the run reads, given the config's other fields
        bases = {parse_estimator(name)[0] for name in cfg.estimators}
        solves = cfg.solve_sdp or bases & SDP_ESTIMATORS
        scans = cfg.experiment != GAP or "scan" in bases
        for key, used, what in (("solver", solves, "solves an SDP"),
                                ("scan_strategy", scans, "scans"), ("max_subsets", scans, "scans")):
            if key in doc and not used:
                raise InvalidParams(f"{key}: no cell of this config {what}")
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def _fmt_cell(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in columns])


def parse_estimator(name: str) -> tuple[str, int | None]:
    """``(base, level)`` of an estimator name: one of ``ESTIMATORS``, with
    ``:<level>`` (an integer >= 1) on ``sos_level`` and on no other."""
    base, _, level = name.partition(":")
    if base not in ESTIMATORS:
        raise InvalidParams(f"unknown estimator {name!r}")
    if base == "sos_level":
        if not level.isdecimal() or int(level) < 1:
            raise InvalidParams(f"{name!r}: sos_level needs a level >= 1, e.g. 'sos_level:2'")
        return base, int(level)
    if level:
        raise InvalidParams(f"estimator {base!r} does not take a level")
    return base, None


@dataclass(frozen=True)
class Estimate:
    """An estimator's value. ``solution`` is the SDP solve behind an SoS
    value, whose status tells whether it converged; None for the others."""

    value: float
    solution: SdpSolution | None = None


def estimate(
    name: str,
    X: NoisyMatrix,
    s_star: int | None,
    *,
    solver: SolverOptions,
    strategy: str = BRANCH_AND_BOUND,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> Estimate:
    """The estimator ``name``, spelled as in a gap config (``sos_level:2``;
    see ``parse_estimator``), on X; each estimator reads only the settings
    that apply to it, and the scan settings default to ``scan_estimate``'s."""
    base, level = parse_estimator(name)
    if base == "scan":
        return Estimate(scan_estimate(X, s_star, strategy=strategy, max_subsets=max_subsets).value)
    if base == "avg":
        return Estimate(avg_estimate(X, s_star))
    if base == "max":
        return Estimate(max_estimate(X))
    if base == "lp":
        return Estimate(lp_estimate(X, s_star))
    if base == "sos_basic":
        solution = solve(assemble_basic(X, s_star), solver)
    else:
        solution = solve(assemble_level(X, s_star, level), solver)
    return Estimate(solution.value, solution)


def _estimator(cfg: ExperimentConfig) -> Callable[..., Estimate]:
    """``estimate`` with the config's solver and scan settings bound."""
    return partial(
        estimate, solver=cfg.solver, strategy=cfg.scan_strategy, max_subsets=cfg.max_subsets
    )


def _run_cell(row: dict, columns: list[str], work: Callable[[dict], None]) -> dict:
    """Time ``work(row)``, which fills result fields as it goes (a cell that
    fails part way keeps what it reached); record a ``SoslabError`` in
    ``error`` and set every column still unset to ``""``."""
    start = time.perf_counter()
    try:
        work(row)
    except SoslabError as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
    for col in columns:
        row.setdefault(col, "")
    return row


def run_gap_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Estimate beta_star with every selected estimator on every replicate."""
    run = _estimator(cfg)
    rows: list[dict] = []
    for gi, g in enumerate(cfg.grid):
        for rep in range(cfg.replicates):
            seed = mix_seed(cfg.base_seed, gi * cfg.replicates + rep)
            instance = generate(g.params(seed))
            for name in cfg.estimators:
                base, level = parse_estimator(name)

                def work(row: dict) -> None:
                    value = run(name, instance.matrix, instance.params.s_star).value
                    row["estimate"] = value
                    row["abs_error"] = abs(value - g.beta_star)
                    if level is not None:
                        row["level"] = level

                row = {
                    "model": g.model, "d": g.d, "s_star": g.s_star, "beta_star": float(g.beta_star),
                    "noise": g.noise_label(), "estimator": base, "rep": rep, "seed": seed,
                }
                rows.append(_run_cell(row, GAP_COLUMNS, work))
    return rows


def run_certificate_experiment(cfg: ExperimentConfig) -> list[dict]:
    """Build and verify the expansivity certificate on null instances."""
    run = _estimator(cfg)
    rows: list[dict] = []
    for gi, g in enumerate(cfg.grid):
        for rep in range(cfg.replicates):
            seed = mix_seed(cfg.base_seed, gi * cfg.replicates + rep)

            def work(row: dict) -> None:
                X = generate(g.params(seed)).matrix
                try:
                    report = certify(X, g.s_star, g.ell)
                except CertificateUndefined:  # raised exactly when eta(empty) = 0
                    row["eta_empty"] = 0
                    raise
                row["eta_empty"] = report.eta_empty
                row["rowsum_violation_zero"] = report.rowsum_max_violation == 0
                row["min_eig"] = report.min_eigenvalue
                row["psd"] = report.psd
                row["objective"] = float(report.objective)
                if cfg.solve_sdp:
                    row["sdp_value"] = run(f"sos_level:{g.ell}", X, g.s_star).value

            row = {
                "model": g.model, "d": g.d, "s_star": g.s_star, "ell": g.ell,
                "rep": rep, "seed": seed,
            }
            rows.append(_run_cell(row, CERTIFICATE_COLUMNS, work))
    return rows


def run_threshold_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Scan-test error sweep over signal multipliers.

    For multiplier c the separation is beta_bar = c * sqrt(log(d/s)/s); each
    replicate draws a null and an alternative instance and applies the test
    reject = (scan > beta_bar / 2). Returns (rows, summary_rows).
    """
    run = _estimator(cfg)
    rows: list[dict] = []
    summary: list[dict] = []
    n_mult = len(cfg.multipliers)
    for gi, g in enumerate(cfg.grid):
        for ci, c in enumerate(cfg.multipliers):
            beta_bar = c * math.sqrt(math.log(g.d / g.s_star) / g.s_star)
            for rep in range(cfg.replicates):
                for hyp in (0, 1):
                    counter = ((gi * n_mult + ci) * cfg.replicates + rep) * 2 + hyp
                    seed = mix_seed(cfg.base_seed, counter)

                    def work(row: dict) -> None:
                        instance = generate(g.params(seed, beta_star=beta_bar if hyp else 0.0))
                        value = run("scan", instance.matrix, g.s_star).value
                        row["scan_value"] = value
                        row["reject"] = int(value > beta_bar / 2)

                    row = {
                        "d": g.d, "s_star": g.s_star, "c": float(c),
                        "rep": rep, "seed": seed, "hypothesis": hyp,
                    }
                    rows.append(_run_cell(row, THRESHOLD_COLUMNS, work))
            # type I: no accept under H0; type II: no reject under H1. A failed
            # cell holds reject "", a wrong decision under either hypothesis.
            cells = rows[-2 * cfg.replicates :]
            type_i = sum(r["reject"] != 0 for r in cells if r["hypothesis"] == 0) / cfg.replicates
            type_ii = sum(r["reject"] != 1 for r in cells if r["hypothesis"] == 1) / cfg.replicates
            summary.append(
                {
                    "d": g.d,
                    "s_star": g.s_star,
                    "c": float(c),
                    "replicates": cfg.replicates,
                    "type_i_error": type_i,
                    "type_ii_error": type_ii,
                    "summed_error": type_i + type_ii,
                }
            )
    return rows, summary


def summary_path(output: str) -> str:
    stem = output[:-4] if output.endswith(".csv") else output
    return stem + ".summary.csv"


def run_experiment(cfg: ExperimentConfig) -> list[str]:
    """Run the configured experiment and write its CSV file(s)."""
    if cfg.experiment == GAP:
        write_csv(cfg.output, GAP_COLUMNS, run_gap_experiment(cfg))
        return [cfg.output]
    if cfg.experiment == CERTIFICATE:
        write_csv(cfg.output, CERTIFICATE_COLUMNS, run_certificate_experiment(cfg))
        return [cfg.output]
    rows, summary = run_threshold_sweep(cfg)
    write_csv(cfg.output, THRESHOLD_COLUMNS, rows)
    spath = summary_path(cfg.output)
    write_csv(spath, THRESHOLD_SUMMARY_COLUMNS, summary)
    return [cfg.output, spath]

