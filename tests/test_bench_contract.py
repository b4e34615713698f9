"""What the benchmark in ``perfbench/`` reads of the program.

The traced benchmark run (``perfbench/tracing.py``) replays each workload
through public functions and attributes (``len(program.constraints)``,
``program.var_count``, ``sdp.project_psd``, ...) and must write the rows
``run_experiment`` writes. This runs the replica on one call of each
workload and checks both, so a change that breaks the benchmark's reads
fails here first.
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
