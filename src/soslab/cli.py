"""Command-line front end.

Subcommands: generate, estimate, certify, experiment. Each runs the
library path the experiments use: ``generate`` reads its flags as a
config's grid point (``lab.GridPoint.from_dict``); ``certify`` is
``certificate.certify``; ``estimate`` is ``lab.estimate`` on a config's
estimator names (``sos_level:2``) and checks its settings as a config does,
before it reads the matrix (``--max-iter`` only where the estimator solves
an SDP); a given ``--s`` is checked against the matrix's d, whatever the
estimator. Values print to stdout with 17 significant digits; reports print
as one JSON object.
Usage errors, a bad estimator name among them, exit 2 (argparse); numeric or
model failures and bad settings print one JSON error line to stderr and exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .certificate import certify, report_to_json_dict
from .errors import InvalidParams, SoslabError, check_s_star
from .lab import (
    SDP_ESTIMATORS, ExperimentConfig, GridPoint, estimate, fmt_float, parse_estimator, run_experiment,
)
from .matrix import read_matrix_json, write_matrix_json
from .models import GAUSSIAN, RADEMACHER, SBM, SUBMATRIX, generate
from .sdp import MAX_ITER_REACHED, SolverOptions


def _estimator_name(name: str) -> str:
    try:
        parse_estimator(name)
    except InvalidParams as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soslab",
        description="Planted-structure models, scan estimators, SoS relaxations, "
        "and expansivity certificates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a planted instance and write matrix JSON")
    gen.add_argument("--model", choices=[SUBMATRIX, SBM], required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--s", type=int, required=True, help="planted subset size")
    gen.add_argument("--beta", type=float, required=True, help="signal strength")
    # submatrix only; defaults: gaussian, sigma = nu = 1
    gen.add_argument("--noise", choices=[GAUSSIAN, RADEMACHER], default=None)
    gen.add_argument("--sigma", type=float, default=None, help="gaussian scale (0 = noiseless)")
    gen.add_argument("--nu", type=float, default=None, help="two-point noise scale")
    gen.add_argument("--beta-tilde", type=float, default=None, help="sbm outside probability")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="run one estimator on a matrix file")
    est.add_argument("--in", dest="infile", required=True)
    est.add_argument(
        "--estimator", type=_estimator_name, required=True,
        help="scan, avg, max, lp, sos_basic or sos_level:<level>, as in a gap config",
    )
    est.add_argument("--s", type=int, default=None)
    est.add_argument("--max-iter", type=int, default=None, help="SDP estimators only")

    cert = sub.add_parser("certify", help="build and verify the expansivity certificate")
    cert.add_argument("--in", dest="infile", required=True)
    cert.add_argument("--level", type=int, required=True)
    cert.add_argument("--s", type=int, required=True)

    exp = sub.add_parser("experiment", help="run a configured experiment to CSV")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=None, help="override the config's output path")
    exp.add_argument("--seed", type=int, default=None, help="override the config's base seed")

    return parser


def _given(**flags) -> dict:
    """The flags that were given, as document keys."""
    return {key: value for key, value in flags.items() if value is not None}


def _cmd_generate(args) -> int:
    # the flags as a grid point's document: a flag not given is a key not written
    doc = _given(
        model=args.model, d=args.d, s_star=args.s, beta_star=args.beta, beta_tilde=args.beta_tilde
    )
    scale = _given(sigma=args.sigma, nu=args.nu)
    if args.noise or scale:
        doc["noise"] = {"kind": args.noise or GAUSSIAN, **scale}
    instance = generate(GridPoint.from_dict(doc, prefix="").params(args.seed))
    write_matrix_json(args.out, instance.matrix, instance.ground_truth_dict())
    return 0


def _cmd_estimate(args) -> int:
    solver = SolverOptions(**_given(max_iter=args.max_iter))
    if args.max_iter is not None and parse_estimator(args.estimator)[0] not in SDP_ESTIMATORS:
        raise InvalidParams(f"--max-iter: estimator {args.estimator!r} solves no SDP")
    if args.estimator != "max" and args.s is None:
        raise SoslabError(f"estimator {args.estimator!r} requires --s")
    X, _ = read_matrix_json(args.infile)
    if args.s is not None:  # max reads no s, but a given one is checked as a config's is
        check_s_star(args.s, X.d)
    result = estimate(args.estimator, X, args.s, solver=solver)
    # A solve that stopped at max_iter adds one stderr line.
    solution = result.solution
    if solution is not None and solution.status == MAX_ITER_REACHED:
        print(
            f"warning: max_iter reached (primal={solution.primal_residual:.3g}, "
            f"dual={solution.dual_residual:.3g})",
            file=sys.stderr,
        )
    print(fmt_float(result.value))
    return 0


def _cmd_certify(args) -> int:
    X, _ = read_matrix_json(args.infile)
    report = certify(X, args.s, args.level)
    print(json.dumps(report_to_json_dict(report)))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    overrides = {"output": args.out, "base_seed": args.seed}
    cfg = replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    for path in run_experiment(cfg):
        print(path)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "estimate": _cmd_estimate,
    "certify": _cmd_certify,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SoslabError, OSError, ValueError, KeyError) as exc:
        line = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(line), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
