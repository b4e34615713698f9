import json
from functools import partial

import numpy as np
import pytest

from soslab import cli, lab
from soslab.cli import main
from soslab.estimators import BRANCH_AND_BOUND, EXHAUSTIVE, scan_estimate
from soslab.lab import ESTIMATORS, ExperimentConfig, GridPoint, fmt_float, run_gap_experiment
from soslab.matrix import read_matrix_json, write_matrix_json
from soslab.models import ModelParams, Noise, generate
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

    code, stdout, _ = run_cli(capsys, "certify", "--in", out, "--level", "1", "--s", "2")
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


def test_estimate_scan_defaults_to_branch_and_bound(tmp_path, capsys, monkeypatch):
    # the command scans by branch-and-bound and prints the exhaustive value
    path = str(tmp_path / "m.json")
    X = generate(ModelParams(
        kind="submatrix", d=8, s_star=3, beta_star=1.0, noise=Noise("gaussian", 1.0), seed=5
    )).matrix
    write_matrix_json(path, X)
    strategies = []

    def spy(*args, strategy, **kwargs):
        strategies.append(strategy)
        return scan_estimate(*args, strategy=strategy, **kwargs)

    monkeypatch.setattr(lab, "scan_estimate", spy)
    code, stdout, stderr = run_cli(capsys, "estimate", "--in", path, "--estimator", "scan", "--s", "3")
    assert (code, stderr) == (0, "")
    assert strategies == [BRANCH_AND_BOUND]
    assert stdout == fmt_float(scan_estimate(X, 3, strategy=EXHAUSTIVE).value) + "\n"


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
        capsys, "estimate", "--in", path, "--estimator", "sos_level:1", "--s", "2"
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
    code, stdout, stderr = run_cli(capsys, "certify", "--in", path, "--level", "1", "--s", "2")
    assert code == 1
    assert stdout == ""
    line = json.loads(stderr)
    assert line["error"] == "CertificateUndefined"

    code, stdout, stderr = run_cli(capsys, "certify", "--in", path, "--level", "1", "--s", "9")
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": "need 2 <= s_star <= d, got s_star=9, d=4",
    }

    code, stdout, stderr = run_cli(
        capsys, "estimate", "--in", path, "--estimator", "scan", "--s", "2", "--max-iter", "0"
    )
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": "max_iter must be >= 1, got 0",
    }

    code, _, stderr = run_cli(
        capsys, "estimate", "--in", str(tmp_path / "nope.json"), "--estimator", "max"
    )
    assert code == 1
    assert json.loads(stderr)["error"] == "FileNotFoundError"


def test_a_key_error_in_a_handler_propagates(tmp_path, monkeypatch):
    # input errors raise SoslabError naming the field; a KeyError is a bug
    def handler(args):
        raise KeyError("bug")

    monkeypatch.setitem(cli._HANDLERS, "certify", handler)
    with pytest.raises(KeyError, match="bug"):
        main(["certify", "--in", write_example_matrix(tmp_path), "--level", "1", "--s", "2"])


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


@pytest.mark.parametrize("estimator", ["scan", "max", "sos_basic", "sos_level:1"])
@pytest.mark.parametrize("s_star", [1, 7])
def test_estimate_checks_a_given_s_for_every_estimator(tmp_path, capsys, estimator, s_star):
    # max reads no s, but a given one outside 2..d is an error, as in a config
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
    # a misspelled ground truth would be dropped without a word
    "misspelled-key": (
        {"d": 2, "entries": [1.0], "ground_truht": {"support": [1, 2]}},
        "ground_truht: unknown key",
    ),
    "extra-key": ({"d": 2, "entries": [1.0], "extra": 1}, "extra: unknown key"),
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


def test_estimate_refuses_entries_whose_sums_overflow(tmp_path, capsys):
    # 2 * 1.7e308 overflows: avg would print inf
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"d": 2, "format": "upper-tri-row-major", "entries": [1.7e308]}))
    code, stdout, stderr = run_cli(
        capsys, "estimate", "--in", str(path), "--estimator", "avg", "--s", "2"
    )
    assert (code, stdout) == (1, "")
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {
        "error": "InvalidParams",
        "message": f"matrix entries must satisfy |x| <= 2**1022 / d**2 = {2.0**1020!r}",
    }


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


@pytest.mark.parametrize(
    "noise_args, message",
    [
        (["--noise", "gaussian", "--nu", "2"], "noise.nu: unknown key"),
        (["--nu", "2"], "noise.nu: unknown key"),
        (["--noise", "rademacher", "--sigma", "2"], "noise.sigma: unknown key"),
    ],
    ids=["gaussian-nu", "default-nu", "rademacher-sigma"],
)
def test_generate_rejects_the_other_noise_laws_scale(tmp_path, capsys, noise_args, message):
    # the draw would ignore it
    out = tmp_path / "m.json"
    code, stdout, stderr = run_cli(
        capsys, "generate", "--model", "submatrix", *noise_args,
        "--d", "5", "--s", "2", "--beta", "0", "--out", str(out),
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


@pytest.mark.parametrize(
    "flags, doc",
    [
        (["--model", "submatrix", "--beta", "1"], {"model": "submatrix", "beta_star": 1.0}),
        (["--model", "submatrix", "--beta", "0", "--noise", "rademacher", "--nu", "2"],
         {"model": "submatrix", "beta_star": 0.0, "noise": {"kind": "rademacher", "nu": 2.0}}),
        (["--model", "submatrix", "--beta", "2", "--sigma", "0"],
         {"model": "submatrix", "beta_star": 2.0, "noise": {"kind": "gaussian", "sigma": 0.0}}),
        (["--model", "sbm", "--beta", "0.7", "--beta-tilde", "0.2"],
         {"model": "sbm", "beta_star": 0.7, "beta_tilde": 0.2}),
    ],
    ids=["submatrix-default", "rademacher-nu", "noiseless", "sbm"],
)
def test_generate_writes_the_draw_of_the_same_grid_point(tmp_path, capsys, flags, doc):
    # the flags are read as a grid point's document: the same bytes as
    # the point's draw at the same seed
    out, ref = tmp_path / "cli.json", tmp_path / "ref.json"
    code, stdout, stderr = run_cli(
        capsys, "generate", *flags, "--d", "7", "--s", "3", "--seed", "5", "--out", str(out)
    )
    assert (code, stdout, stderr) == (0, "", "")
    instance = generate(GridPoint.from_dict({**doc, "d": 7, "s_star": 3}, prefix="").params(5))
    write_matrix_json(str(ref), instance.matrix, instance.ground_truth_dict())
    assert out.read_bytes() == ref.read_bytes()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--estimator", "scan"])  # missing --in
    assert exc.value.code == 2
    # flags that no longer exist
    for args in (["certify", "--level", "1", "--mode", "binary"],
                 ["estimate", "--estimator", "scan", "--strategy", "exhaustive"],
                 ["estimate", "--estimator", "scan", "--max-subsets", "5"]):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--in", "x.json", "--s", "2"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--in", "x.json", "--basic", "--s", "2"])  # folded into estimate
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--estimator", "median"], "unknown estimator 'median'"),
        (["--estimator", "sos_level"], "sos_level needs a level >= 1, e.g. 'sos_level:2'"),
        (["--estimator", "scan:2"], "estimator 'scan' does not take a level"),
        # the level is part of the name, as in a config
        (["--estimator", "sos_basic", "--level", "1"], "unrecognized arguments: --level 1"),
        (["--estimator", "sos_level:1", "--level", "1"], "unrecognized arguments: --level 1"),
    ],
    ids=["unknown", "no-level", "scan-level", "basic-level-flag", "level-flag"],
)
def test_estimate_name_errors_exit_2(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--in", "x.json", "--s", "2", *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, error, message",
    [
        *[(["--estimator", name, "--s", "3", "--max-iter", "5"],
           "InvalidParams", f"--max-iter: estimator {name!r} solves no SDP")
          for name in ("scan", "avg", "max", "lp")],
        (["--estimator", "avg", "--s", "3", "--max-iter", "0"],
         "InvalidParams", "max_iter must be >= 1, got 0"),
        (["--estimator", "scan"], "SoslabError", "estimator 'scan' requires --s"),
    ],
    ids=["no-sdp-scan", "no-sdp-avg", "no-sdp-max", "no-sdp-lp", "max-iter", "no-s"],
)
def test_estimate_rejects_bad_settings_up_front(tmp_path, capsys, args, error, message):
    # a config rejects these settings (a solver setting where no estimator
    # solves an SDP), and so does estimate: before the matrix file is read,
    # so a missing one is never reached
    for path in (write_example_matrix(tmp_path), str(tmp_path / "nope.json")):
        code, stdout, stderr = run_cli(capsys, "estimate", "--in", path, *args)
        assert (code, stdout) == (1, "")
        assert json.loads(stderr) == {"error": error, "message": message}


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
    for name, row in zip(cfg.estimators, rows):
        assert row["error"] == ""
        code, stdout, _ = run_cli(
            capsys, "estimate", "--in", path, "--estimator", name, "--s", "3"
        )
        assert code == 0
        assert stdout.strip() == fmt_float(row["estimate"])


@pytest.mark.parametrize(
    "estimator, program",
    [("sos_basic", partial(assemble_basic, s_star=3)),
     ("sos_level:1", partial(assemble_level, s_star=3, ell=1))],
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
        "--max-iter", "50",
    )
    sol = solve(program(read_matrix_json(path)[0]), SolverOptions(max_iter=50))
    assert sol.status == MAX_ITER_REACHED
    assert code == 0
    assert stdout == fmt_float(sol.value) + "\n"
    assert stderr == (
        f"warning: max_iter reached (primal={sol.primal_residual:.3g}, "
        f"dual={sol.dual_residual:.3g})\n"
    )
