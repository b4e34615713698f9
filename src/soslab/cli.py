"""Command-line front end.

Subcommands: generate, estimate, certify, experiment. Each runs the
library path the experiments use: ``certify`` is ``certificate.certify``,
``estimate`` is ``lab.estimate`` (the relaxations are its ``sos_basic``
and ``sos_level`` estimators). Values print to stdout with 17 significant
digits; reports print as one JSON object. Usage errors exit 2 (argparse);
numeric or model failures print one JSON error line to stderr and exit 1.
"""
from __future__ import annotations

import argparse
import json
import sys

from .certificate import BINARY_ONE, SIGN_POSITIVE, certify, report_to_json_dict
from .errors import SoslabError
from .estimators import BRANCH_AND_BOUND, DEFAULT_MAX_SUBSETS, EXHAUSTIVE
from .lab import ESTIMATORS, ExperimentConfig, estimate, fmt_float, run_experiment, with_overrides
from .matrix import read_matrix_json, write_matrix_json
from .models import GAUSSIAN, RADEMACHER, SBM, SUBMATRIX, ModelParams, Noise, generate
from .sdp import MAX_ITER_REACHED, SolverOptions

_MODES = {"sign": SIGN_POSITIVE, "binary": BINARY_ONE}


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
    est.add_argument("--estimator", choices=ESTIMATORS, required=True)
    est.add_argument("--s", type=int, default=None)
    est.add_argument("--level", type=int, default=1, help="level for sos_level")
    est.add_argument("--strategy", choices=[EXHAUSTIVE, BRANCH_AND_BOUND], default=EXHAUSTIVE)
    est.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS)
    est.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)

    cert = sub.add_parser("certify", help="build and verify the expansivity certificate")
    cert.add_argument("--in", dest="infile", required=True)
    cert.add_argument("--level", type=int, required=True)
    cert.add_argument("--s", type=int, required=True)
    cert.add_argument("--mode", choices=sorted(_MODES), required=True)

    exp = sub.add_parser("experiment", help="run a configured experiment to CSV")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=None, help="override the config's output path")
    exp.add_argument("--seed", type=int, default=None, help="override the config's base seed")

    return parser


def _cmd_generate(args) -> int:
    noise = None
    # an sbm given a noise flag gets the noise too, which validation rejects
    if args.model == SUBMATRIX or (args.noise, args.sigma, args.nu) != (None, None, None):
        kind = args.noise or GAUSSIAN
        scale = args.sigma if kind == GAUSSIAN else args.nu
        noise = Noise(kind=kind, scale=1.0 if scale is None else scale)
    params = ModelParams(
        kind=args.model,
        d=args.d,
        s_star=args.s,
        beta_star=args.beta,
        noise=noise,
        beta_tilde=args.beta_tilde,
        seed=args.seed,
    )
    instance = generate(params)
    write_matrix_json(args.out, instance.matrix, instance.ground_truth_dict())
    return 0


def _cmd_estimate(args) -> int:
    X, _ = read_matrix_json(args.infile)
    if args.estimator != "max" and args.s is None:
        raise SoslabError(f"estimator {args.estimator!r} requires --s")
    result = estimate(
        args.estimator,
        X,
        args.s,
        level=args.level,
        solver=SolverOptions(max_iter=args.max_iter),
        strategy=args.strategy,
        max_subsets=args.max_subsets,
    )
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
    report = certify(X, _MODES[args.mode], args.s, args.level)
    print(json.dumps(report_to_json_dict(report)))
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    cfg = with_overrides(cfg, output=args.out, base_seed=args.seed)
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
