import json
from functools import partial

import numpy as np
import pytest

from soslab.cli import main
from soslab.lab import ESTIMATORS, ExperimentConfig, fmt_float, run_gap_experiment
from soslab.matrix import read_matrix_json, write_matrix_json
from soslab.models import generate
from soslab.sdp import MAX_ITER_REACHED, SolverOptions, solve
from soslab.sos import assemble_basic, assemble_level


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_and_certify_k4(tmp_path, capsys):
    out = str(tmp_path / "k4.json")
    code, _, _ = run_cli(
        capsys, "generate", "--model", "sbm", "--d", "4", "--s", "2",
        "--beta", "1", "--beta-tilde", "1", "--seed", "1", "--out", out,
    )
    assert code == 0
    matrix, gt = read_matrix_json(out)
    assert np.all(matrix.entries == 1.0)
    assert gt["params"]["kind"] == "sbm"
    assert len(gt["support"]) == 2

    code, stdout, _ = run_cli(
        capsys, "certify", "--in", out, "--level", "1", "--s", "2", "--mode", "binary"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["objective"] == "1/1"
    assert report["psd"] is True
    assert report["rowsum_max_violation"] == "0/1"
    assert report["eta_empty"] == 6


def write_example_matrix(tmp_path):
    path = str(tmp_path / "m.json")
    doc = {"d": 3, "format": "upper-tri-row-major", "entries": [4.0, 0.0, 2.0]}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    return path


def test_estimate_scan_prints_value(tmp_path, capsys):
    path = write_example_matrix(tmp_path)
    code, stdout, _ = run_cli(capsys, "estimate", "--in", path, "--estimator", "scan", "--s", "2")
    assert code == 0
    assert stdout.strip() == "4"


def test_estimate_lp_closed_form(tmp_path, capsys):
    path = str(tmp_path / "m2.json")
    doc = {"d": 3, "format": "upper-tri-row-major", "entries": [2.0, 0.0, 1.0]}
    (tmp_path / "m2.json").write_text(json.dumps(doc))
    code, stdout, _ = run_cli(capsys, "estimate", "--in", path, "--estimator", "lp", "--s", "3")
    assert code == 0
    assert stdout.strip() == "3"


def test_estimate_sos_level(tmp_path, capsys):
    path = write_example_matrix(tmp_path)
    code, stdout, _ = run_cli(
        capsys, "estimate", "--in", path, "--estimator", "sos_level", "--s", "2", "--level", "1"
    )
    assert code == 0
    assert float(stdout) >= 4.0 - 1e-5


def test_estimate_basic_analytic(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    doc = {"d": 2, "format": "upper-tri-row-major", "entries": [3.0]}
    (tmp_path / "pair.json").write_text(json.dumps(doc))
    code, stdout, _ = run_cli(
        capsys, "estimate", "--in", path, "--estimator", "sos_basic", "--s", "2"
    )
    assert code == 0
    assert float(stdout) == pytest.approx(3.0, abs=1e-5)


def test_numeric_failures_exit_1_with_json_line(tmp_path, capsys):
    path = str(tmp_path / "zeros.json")
    doc = {"d": 4, "format": "upper-tri-row-major", "entries": [0.0] * 6}
    (tmp_path / "zeros.json").write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(
        capsys, "certify", "--in", path, "--level", "1", "--s", "2", "--mode", "sign"
    )
    assert code == 1
    assert stdout == ""
    line = json.loads(stderr)
    assert line["error"] == "CertificateUndefined"

    code, stdout, stderr = run_cli(
        capsys, "certify", "--in", path, "--level", "1", "--s", "9", "--mode", "sign"
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": "need 2 <= s_star <= d, got s_star=9, d=4",
    }

    code, stdout, stderr = run_cli(
        capsys, "estimate", "--in", path, "--estimator", "scan", "--s", "2", "--max-subsets", "-5"
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": "max_subsets must be >= 1, got -5",
    }

    code, _, stderr = run_cli(
        capsys, "estimate", "--in", str(tmp_path / "nope.json"), "--estimator", "max"
    )
    assert code == 1
    assert json.loads(stderr)["error"] == "FileNotFoundError"


@pytest.mark.parametrize("estimator", ["avg", "lp"])
@pytest.mark.parametrize("s_star", [1, 9])
def test_closed_forms_reject_s_star_outside_2_to_d(tmp_path, capsys, estimator, s_star):
    path = write_example_matrix(tmp_path)
    code, stdout, stderr = run_cli(
        capsys, "estimate", "--in", path, "--estimator", estimator, "--s", str(s_star)
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": f"need 2 <= s_star <= d, got s_star={s_star}, d=3",
    }


MALFORMED_MATRIX_FILES = {
    "not-an-object": ([1, 2], "matrix: expected dict, got [1, 2]"),
    "null-d": ({"d": None, "entries": [1.0]}, "d: expected int, got None"),
    "object-entry": ({"d": 2, "entries": [{"a": 1}]}, "entries[0]: expected float, got {'a': 1}"),
    "no-entries": ({"d": 2}, "entries: missing"),
    "bool-entry": ({"d": 2, "entries": [True]}, "entries[0]: expected float, got True"),
    "string-entry": ({"d": 2, "entries": ["2.5"]}, "entries[0]: expected float, got '2.5'"),
    "string-d": ({"d": "2", "entries": [1.0]}, "d: expected int, got '2'"),
}


@pytest.mark.parametrize(
    "doc, message", MALFORMED_MATRIX_FILES.values(), ids=MALFORMED_MATRIX_FILES.keys()
)
def test_malformed_matrix_file_exits_1_naming_the_field(tmp_path, capsys, doc, message):
    if isinstance(doc, dict):
        doc = {"format": "upper-tri-row-major", **doc}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, stdout, stderr = run_cli(capsys, "estimate", "--in", str(path), "--estimator", "max")
    assert (code, stdout) == (1, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "InvalidParams", "message": message}


@pytest.mark.parametrize(
    "model_args, message",
    [
        (["--model", "submatrix", "--beta-tilde", "0.3"],
         "beta_tilde: not a parameter of the submatrix model"),
        (["--model", "sbm", "--beta-tilde", "0.3", "--noise", "gaussian"],
         "noise: not a parameter of the sbm model"),
        (["--model", "sbm", "--beta-tilde", "0.3", "--sigma", "2"],
         "noise: not a parameter of the sbm model"),
        (["--model", "sbm", "--beta-tilde", "0.3", "--nu", "2"],
         "noise: not a parameter of the sbm model"),
    ],
)
def test_generate_rejects_the_other_models_parameter(tmp_path, capsys, model_args, message):
    # the draw would ignore it, and the ground truth would record it
    out = tmp_path / "m.json"
    code, stdout, stderr = run_cli(
        capsys, "generate", *model_args, "--d", "5", "--s", "2", "--beta", "1", "--out", str(out)
    )
    assert (code, stdout) == (1, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"error": "InvalidParams", "message": message}
    assert not out.exists()


def test_generate_submatrix_noise_defaults_to_unit_gaussian(tmp_path, capsys):
    out = str(tmp_path / "m.json")
    code, _, _ = run_cli(
        capsys, "generate", "--model", "submatrix", "--d", "5", "--s", "2", "--beta", "1",
        "--out", out,
    )
    assert code == 0
    assert read_matrix_json(out)[1]["params"]["noise"] == {"kind": "gaussian", "sigma": 1.0}


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--estimator", "scan"])  # missing --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--in", "x.json", "--level", "1", "--s", "2", "--mode", "fuzzy"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", "x.json", "--basic", "--s", "2"])  # folded into estimate
    assert exc.value.code == 2


def test_experiment_command(tmp_path, capsys):
    cfg = {
        "experiment": "gap",
        "grid": [{"model": "submatrix", "d": 6, "s_star": 2, "beta_star": 0.5,
                  "noise": {"kind": "gaussian", "sigma": 1.0}}],
        "estimators": ["scan", "max"],
        "replicates": 2,
        "base_seed": 3,
        "output": str(tmp_path / "out.csv"),
        "scan_strategy": "exhaustive",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    override = str(tmp_path / "other.csv")
    code, stdout, _ = run_cli(
        capsys, "experiment", "--config", str(cfg_path), "--out", override, "--seed", "7"
    )
    assert code == 0
    assert stdout.strip() == override
    with open(override) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + grid * reps * estimators


def test_generate_gaussian_noiseless_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "plant.json")
    code, _, _ = run_cli(
        capsys, "generate", "--model", "submatrix", "--d", "5", "--s", "3",
        "--beta", "2", "--noise", "gaussian", "--sigma", "0", "--seed", "9", "--out", out,
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, "estimate", "--in", out, "--estimator", "scan", "--s", "3")
    assert code == 0
    assert float(stdout) == pytest.approx(2.0)


def test_estimate_matches_gap_rows(tmp_path, capsys):
    cfg = ExperimentConfig.from_dict({
        "experiment": "gap",
        "grid": [{"model": "submatrix", "d": 6, "s_star": 3, "beta_star": 1.0,
                  "noise": {"kind": "gaussian", "sigma": 1.0}}],
        "estimators": [name + ":2" if name == "sos_level" else name for name in ESTIMATORS],
        "replicates": 1,
        "base_seed": 4,
        "output": str(tmp_path / "gap.csv"),
        "scan_strategy": "exhaustive",
    })
    rows = run_gap_experiment(cfg)
    assert [row["estimator"] for row in rows] == list(ESTIMATORS)
    path = str(tmp_path / "instance.json")
    write_matrix_json(path, generate(cfg.grid[0].params(rows[0]["seed"])).matrix)
    for row in rows:
        assert row["error"] == ""
        code, stdout, _ = run_cli(
            capsys, "estimate", "--in", path, "--estimator", row["estimator"],
            "--s", "3", "--level", "2",
        )
        assert code == 0
        assert stdout.strip() == fmt_float(row["estimate"])


@pytest.mark.parametrize(
    "estimator, program",
    [("sos_basic", partial(assemble_basic, s_star=3)),
     ("sos_level", partial(assemble_level, s_star=3, ell=1))],
)
def test_estimate_warns_like_solve_at_max_iter(tmp_path, capsys, estimator, program):
    # 50 iterations do not converge here; the command still prints the
    # value of the library solve and exits 0, with its residuals in one
    # warning line on stderr
    path = str(tmp_path / "d9.json")
    code, _, _ = run_cli(
        capsys, "generate", "--model", "submatrix", "--d", "9", "--s", "3",
        "--beta", "1", "--seed", "3", "--out", path,
    )
    assert code == 0
    code, stdout, stderr = run_cli(
        capsys, "estimate", "--in", path, "--estimator", estimator, "--s", "3",
        "--level", "1", "--max-iter", "50",
    )
    sol = solve(program(read_matrix_json(path)[0]), SolverOptions(max_iter=50))
    assert sol.status == MAX_ITER_REACHED
    assert code == 0
    assert stdout == fmt_float(sol.value) + "\n"
    assert stderr == (
        f"warning: max_iter reached (primal={sol.primal_residual:.3g}, "
        f"dual={sol.dual_residual:.3g})\n"
    )
