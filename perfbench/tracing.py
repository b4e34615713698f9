"""Traced replica of the three experiment loops, built from public functions.

The replica repeats what ``soslab.lab`` does for one config, cell by cell,
but wraps every call into a layer in a span. Spans (name, start, end,
parent, call id, counts) are kept in memory and dumped when the run ends;
per-layer metrics are sums over them.
The one span inside the program is ``sdp.project_psd``: the public
``soslab.sdp.project_psd`` is wrapped through its module attribute, which
``soslab.sdp.solve`` looks up on every iteration.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.call = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.call)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class Replica:
    """Runs one experiment config like ``run_experiment``, with spans."""

    def __init__(self, sl, tracer: Tracer) -> None:
        self.sl = sl
        self.t = tracer
        sl.sdp.project_psd = tracer.wrap("sdp.project_psd", sl.sdp.project_psd)

    def run(self, cfg) -> None:
        lab = self.sl.lab
        with self.t.span("lab.run_experiment"):
            cfg.validate()
            if cfg.experiment == lab.GAP:
                rows = self._gap(cfg)
                with self.t.span("lab.write_csv"):
                    lab.write_csv(cfg.output, lab.GAP_COLUMNS, rows)
            elif cfg.experiment == lab.CERTIFICATE:
                rows = self._certificate(cfg)
                with self.t.span("lab.write_csv"):
                    lab.write_csv(cfg.output, lab.CERTIFICATE_COLUMNS, rows)
            else:
                rows, summary = self._threshold(cfg)
                with self.t.span("lab.write_csv"):
                    lab.write_csv(cfg.output, lab.THRESHOLD_COLUMNS, rows)
                    lab.write_csv(lab.summary_path(cfg.output), lab.THRESHOLD_SUMMARY_COLUMNS, summary)

    def _generate(self, params):
        with self.t.span("models.generate"):
            return self.sl.generate(params)

    def _solve(self, X, s, level, cfg) -> float:
        sl = self.sl
        with self.t.span("sos.assemble") as sp:
            program = sl.assemble_basic(X, s) if level is None else sl.assemble_level(X, s, level)
            sp.attrs["A_dense_bytes"] = len(program.constraints) * program.var_count * 8
        size = "large" if level == 2 else "small"
        with self.t.span(f"sdp.{size}.solve") as sp:
            sol = sl.solve(program, cfg.solver)
            sp.attrs.update(iterations=sol.iterations, optimal=sol.status == sl.sdp.OPTIMAL)
        return sol.value

    def _estimate(self, name: str, instance, cfg) -> tuple[float, int | None]:
        sl = self.sl
        base, _, level_text = name.partition(":")
        X = instance.matrix
        s = instance.params.s_star
        if base == "scan":
            return self._scan(X, s, cfg), None
        if base in ("avg", "max", "lp"):
            with self.t.span("estimators.closed_form"):
                if base == "avg":
                    return sl.avg_estimate(X, s), None
                if base == "max":
                    return sl.max_estimate(X), None
                return sl.lp_estimate(X, s), None
        if base == "sos_basic":
            return self._solve(X, s, None, cfg), None
        level = int(level_text)
        return self._solve(X, s, level, cfg), level

    def _scan(self, X, s, cfg) -> float:
        with self.t.span("estimators.scan") as sp:
            result = self.sl.scan_estimate(X, s, strategy=cfg.scan_strategy, max_subsets=cfg.max_subsets)
            sp.attrs["leaves"] = result.subsets_examined
        return result.value

    def _gap(self, cfg) -> list[dict]:
        sl = self.sl
        rows = []
        for gi, g in enumerate(cfg.grid):
            for rep in range(cfg.replicates):
                seed = sl.mix_seed(cfg.base_seed, gi * cfg.replicates + rep)
                instance = self._generate(g.params(seed))
                for name in cfg.estimators:
                    row = {
                        "model": g.model, "d": g.d, "s_star": g.s_star,
                        "beta_star": float(g.beta_star), "noise": g.noise_label(),
                        "estimator": name.partition(":")[0], "level": "", "rep": rep, "seed": seed,
                    }
                    start = time.perf_counter()
                    try:
                        estimate, level = self._estimate(name, instance, cfg)
                        row["estimate"] = estimate
                        row["abs_error"] = abs(estimate - g.beta_star)
                        row["level"] = level if level is not None else ""
                        row["error"] = ""
                    except sl.errors.SoslabError as exc:
                        row.update(estimate="", abs_error="", error=f"{type(exc).__name__}: {exc}")
                    row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
                    rows.append(row)
        return rows

    def _certificate(self, cfg) -> list[dict]:
        sl = self.sl
        t = self.t
        rows = []
        for gi, g in enumerate(cfg.grid):
            mode = sl.certificate.BINARY_ONE if g.model == "sbm" else sl.certificate.SIGN_POSITIVE
            for rep in range(cfg.replicates):
                seed = sl.mix_seed(cfg.base_seed, gi * cfg.replicates + rep)
                row = {"model": g.model, "d": g.d, "s_star": g.s_star, "ell": g.ell, "rep": rep, "seed": seed}
                start = time.perf_counter()
                try:
                    X = self._generate(g.params(seed)).matrix
                    with t.span("certificate.graph"):
                        graph = sl.positivity_graph(X, mode)
                    with t.span("certificate.expansivity") as sp:
                        table = sl.expansivity_table(graph, g.ell)
                        sp.attrs["cliques"] = table.clique_count
                    row["eta_empty"] = table.clique_count
                    with t.span("certificate.build") as sp:
                        pe = sl.build_certificate(table, g.s_star, g.ell)
                        sp.attrs["moments"] = len(pe.values)
                    with t.span("certificate.verify") as sp:
                        report = sl.verify_certificate(pe, g.d, g.s_star, g.ell)
                        sp.attrs["psd"] = report.psd
                    with t.span("certificate.objective"):
                        objective = sl.certificate_objective(X, pe, g.s_star)
                    row["rowsum_violation_zero"] = report.rowsum_max_violation == 0
                    row["min_eig"] = report.min_eigenvalue
                    row["psd"] = report.psd
                    row["objective"] = float(objective)
                    row["sdp_value"] = self._solve(X, g.s_star, g.ell, cfg) if cfg.solve_sdp else ""
                    row["error"] = ""
                except sl.errors.SoslabError as exc:
                    row.setdefault("eta_empty", "")
                    row["error"] = f"{type(exc).__name__}: {exc}"
                row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
                rows.append(row)
        return rows

    def _threshold(self, cfg) -> tuple[list[dict], list[dict]]:
        sl = self.sl
        rows, summary = [], []
        n_mult = len(cfg.multipliers)
        for gi, g in enumerate(cfg.grid):
            for ci, c in enumerate(cfg.multipliers):
                beta_bar = c * math.sqrt(math.log(g.d / g.s_star) / g.s_star)
                errors = {0: 0, 1: 0}
                for rep in range(cfg.replicates):
                    for hyp in (0, 1):
                        seed = sl.mix_seed(cfg.base_seed, ((gi * n_mult + ci) * cfg.replicates + rep) * 2 + hyp)
                        row = {"d": g.d, "s_star": g.s_star, "c": float(c), "rep": rep, "seed": seed, "hypothesis": hyp}
                        start = time.perf_counter()
                        try:
                            instance = self._generate(g.params(seed, beta_star=beta_bar if hyp else 0.0))
                            value = self._scan(instance.matrix, g.s_star, cfg)
                            reject = int(value > beta_bar / 2)
                            row.update(scan_value=value, reject=reject, error="")
                            errors[hyp] += reject if hyp == 0 else 1 - reject
                        except sl.errors.SoslabError as exc:
                            row.update(scan_value="", reject="", error=f"{type(exc).__name__}: {exc}")
                        row["runtime_ms"] = (time.perf_counter() - start) * 1000.0
                        rows.append(row)
                type_i = errors[0] / cfg.replicates
                type_ii = errors[1] / cfg.replicates
                summary.append({
                    "d": g.d, "s_star": g.s_star, "c": float(c), "replicates": cfg.replicates,
                    "type_i_error": type_i, "type_ii_error": type_ii, "summed_error": type_i + type_ii,
                })
        return rows, summary


def dump(spans: list[Span]) -> list[list]:
    """Spans as ``[name, start_ms, end_ms, parent, call, attrs]`` rows, times
    relative to the first span."""
    t0 = spans[0].start if spans else 0.0
    return [
        [sp.name, (sp.start - t0) * 1000.0, (sp.end - t0) * 1000.0, sp.parent, sp.call, sp.attrs]
        for sp in spans
    ]


PER_LAYER_UNITS = {
    "models.generate.calls": "count",
    "models.generate.ms": "ms",
    "estimators.scan.calls": "count",
    "estimators.scan.ms": "ms",
    "estimators.scan.leaves": "count",
    "estimators.closed_form.ms": "ms",
    "sos.assemble.calls": "count",
    "sos.assemble.ms": "ms",
    "sos.A_dense_mb": "MiB",
    **{
        f"sdp.{size}.{name}": unit
        for size in ("large", "small")
        for name, unit in (
            ("solve_ms", "ms"), ("iterations", "count"), ("ms_per_iter", "ms"),
            ("project_psd_ms", "ms"), ("self_ms", "ms"), ("nonconverged", "count"),
        )
    },
    "certificate.graph.ms": "ms",
    "certificate.expansivity.ms": "ms",
    "certificate.cliques": "count",
    "certificate.build.ms": "ms",
    "certificate.moments": "count",
    "certificate.verify.ms": "ms",
    "certificate.psd_rate": "frac",
    "certificate.objective.ms": "ms",
    "lab.write_csv.ms": "ms",
    "lab.self_ms": "ms",
    "trace.overhead_frac": "frac",
}


def per_layer(spans: list[Span]) -> dict[str, float]:
    """Sums over the spans of a traced run (``trace.overhead_frac`` is added by the caller)."""
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    child_ms = [0.0] * len(spans)
    for sp in spans:
        ms[sp.name] = ms.get(sp.name, 0.0) + sp.ms
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for key, value in sp.attrs.items():
            attr[f"{sp.name}.{key}"] = attr.get(f"{sp.name}.{key}", 0) + value
        if sp.parent is not None:
            child_ms[sp.parent] += sp.ms
    out = {
        "models.generate.calls": calls.get("models.generate", 0),
        "models.generate.ms": ms.get("models.generate", 0.0),
        "estimators.scan.calls": calls.get("estimators.scan", 0),
        "estimators.scan.ms": ms.get("estimators.scan", 0.0),
        "estimators.scan.leaves": attr.get("estimators.scan.leaves", 0),
        "estimators.closed_form.ms": ms.get("estimators.closed_form", 0.0),
        "sos.assemble.calls": calls.get("sos.assemble", 0),
        "sos.assemble.ms": ms.get("sos.assemble", 0.0),
        "sos.A_dense_mb": max(
            (sp.attrs["A_dense_bytes"] for sp in spans if sp.name == "sos.assemble"), default=0
        ) / 2**20,
    }
    for size in ("large", "small"):
        solves = [i for i, sp in enumerate(spans) if sp.name == f"sdp.{size}.solve"]
        solve_ms = sum(spans[i].ms for i in solves)
        psd_ms = sum(sp.ms for sp in spans if sp.name == "sdp.project_psd" and sp.parent in solves)
        iterations = sum(spans[i].attrs["iterations"] for i in solves)
        out[f"sdp.{size}.solve_ms"] = solve_ms
        out[f"sdp.{size}.iterations"] = iterations
        out[f"sdp.{size}.ms_per_iter"] = solve_ms / iterations if iterations else 0.0
        out[f"sdp.{size}.project_psd_ms"] = psd_ms
        out[f"sdp.{size}.self_ms"] = solve_ms - psd_ms
        out[f"sdp.{size}.nonconverged"] = sum(not spans[i].attrs["optimal"] for i in solves)
    verifies = calls.get("certificate.verify", 0)
    out.update({
        "certificate.graph.ms": ms.get("certificate.graph", 0.0),
        "certificate.expansivity.ms": ms.get("certificate.expansivity", 0.0),
        "certificate.cliques": attr.get("certificate.expansivity.cliques", 0),
        "certificate.build.ms": ms.get("certificate.build", 0.0),
        "certificate.moments": attr.get("certificate.build.moments", 0),
        "certificate.verify.ms": ms.get("certificate.verify", 0.0),
        "certificate.psd_rate": attr.get("certificate.verify.psd", 0) / verifies if verifies else 0.0,
        "certificate.objective.ms": ms.get("certificate.objective", 0.0),
        "lab.write_csv.ms": ms.get("lab.write_csv", 0.0),
        "lab.self_ms": sum(
            sp.ms - child_ms[i] for i, sp in enumerate(spans) if sp.name == "lab.run_experiment"
        ),
    })
    return out
