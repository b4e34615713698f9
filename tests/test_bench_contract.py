"""What the benchmark in ``perfbench/`` reads of the program.

The traced benchmark run (``perfbench/tracing.py``) replays each workload
and must write the rows ``run_experiment`` writes. It calls, from the
package root, ``mix_seed``, ``generate``, the estimators (``scan_estimate``,
``avg_estimate``, ``max_estimate``, ``lp_estimate``), ``assemble_basic``,
``assemble_level``, ``solve`` and the certificate stages
(``positivity_graph``, ``expansivity_table``, ``build_certificate``,
``verify_certificate``, ``certificate_objective``); from ``lab`` the
experiment names, the column lists, ``write_csv`` and ``summary_path``;
``certificate.BINARY_ONE``/``SIGN_POSITIVE`` and ``errors.SoslabError``.
Of what those return it reads:

- ``sdp.project_psd``, wrapped through the module attribute that ``solve``
  looks up on every iteration, and ``sdp.OPTIMAL``;
- of an assembled program, ``len(program.constraints)`` and
  ``program.var_count``;
- of a solution, ``sol.iterations``, ``sol.status`` and ``sol.value``;
- of an expansivity table, ``table.clique_count``;
- of a certificate, ``len(pe.values)``;
- of a feasibility report, ``report.psd``, ``report.min_eigenvalue`` and
  ``report.rowsum_max_violation``;
- of a scan, ``result.subsets_examined`` and ``result.value``;
- of a config, ``cfg.validate()`` and its fields, ``cfg.scan_strategy``,
  ``cfg.max_subsets``, ``cfg.solve_sdp`` and ``cfg.solver`` among them;
  of a grid point, its fields, ``params(seed, beta_star=...)`` and
  ``noise_label()``; of an instance, ``matrix`` and ``params.s_star``.

This runs the replica on one call of each workload and checks both, so a
change that breaks the benchmark's reads fails here first.
"""
import csv
from pathlib import Path

import pytest

import soslab as sl
from soslab.lab import ExperimentConfig, run_experiment, summary_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    # Replica wraps sdp.project_psd in place; monkeypatch puts it back.
    monkeypatch.setattr(sl.sdp, "project_psd", sl.sdp.project_psd)
    return tracing, workloads


def _rows(path):
    with open(path) as fh:
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in csv.DictReader(fh)]


def _outputs(cfg):
    paths = [cfg.output]
    if cfg.experiment == "threshold":
        paths.append(summary_path(cfg.output))
    return [_rows(p) for p in paths]


@pytest.mark.parametrize("workload", ["gap", "certificate", "threshold"])
def test_replica_writes_run_experiment_rows(workload, bench, tmp_path):
    tracing, workloads = bench
    seed = workloads.call_seed(workloads.DEFAULT_SEED, 0)
    plain = ExperimentConfig.from_dict(workloads.config(workload, seed, str(tmp_path / "plain.csv")))
    traced = ExperimentConfig.from_dict(workloads.config(workload, seed, str(tmp_path / "traced.csv")))
    run_experiment(plain)
    tracer = tracing.Tracer()
    tracing.Replica(sl, tracer).run(traced)

    want = _outputs(plain)
    assert want[0]
    assert _outputs(traced) == want
    layer = tracing.per_layer(tracer.spans)
    # run.py adds the tracing overhead from the two runs' wall times
    assert set(tracing.PER_LAYER_UNITS) - set(layer) == {"trace.overhead_frac"}
    if workload == "gap":
        # the level-2 program at d=16: 698 equalities over 2517 variables
        assert layer["sos.A_dense_mb"] == 698 * 2517 * 8 / 2**20
