"""Batch command-line interface.

Subcommands: infer, rectify, bench, diagnose, generate.
Exit codes: 0 success, 1 usage error, 2 data error (including a loss or
rectifier that cannot handle the data), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .diagnostics import predict_centering_bias, labeled_erm, mixed_erm, sandwich
from .exceptions import (
    CapabilityError,
    IngestionError,
    OutcomeTypeError,
    ParameterError,
    RectipriorError,
)
from .harness import (
    SCENARIO_TAGS,
    RunConfig,
    ScenarioSpec,
    generate_scenario,
    load_base_csv,
    load_labeled_csv,
    run_bench,
    serialize_bench,
    format_bench_summary,
    write_base_csv,
    write_labeled_csv,
)
from .losses import (
    LinearRegressionLoss,
    MeanLoss,
    MlpLoss,
    MultinomialLogisticLoss,
    QuantileLoss,
)
from .measures import empirical_measure
from .posterior import PriorConfig, run_posterior, serialize_run, summarize_run
from .rectifiers import (RECTIFIERS, STRATEGIES, apply_rectifier, fit_rectifier,
                         score_discrepancy, serialize_rectifier)


class UsageError(Exception):
    pass


def _build_loss(args):
    name = args.loss
    if name == "mean":
        return MeanLoss()
    if name == "quantile":
        return QuantileLoss(tau=args.tau)
    if name == "ols":
        return LinearRegressionLoss()
    if args.classes is None:
        raise UsageError(f"--classes is required for the {name} loss")
    if name == "logistic":
        return MultinomialLogisticLoss(num_classes=args.classes)
    if name == "mlp":
        return MlpLoss(hidden=args.hidden, num_classes=args.classes, seed=args.seed)


def _build_scenario(args):
    return ScenarioSpec(tag=args.scenario, n=args.n, n_unlabeled=args.n_unlabeled,
                        noise=args.noise, miscal=args.miscal, miscal2=args.miscal2,
                        num_classes=args.classes or 3, seed=args.seed)


def _load_data(args, loss):
    if args.scenario is not None:
        labeled, base, _ = generate_scenario(_build_scenario(args), loss)
        return labeled, base
    if args.labeled is None:
        raise UsageError("either --labeled or --scenario is required")
    labeled = load_labeled_csv(args.labeled, num_classes=args.classes)
    base = load_base_csv(args.base) if args.base else None
    return labeled, base


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise UsageError(f"malformed config line {line!r}")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_common(p):
    p.add_argument("--labeled", help="labeled sample CSV")
    p.add_argument("--base", help="base measure CSV")
    p.add_argument("--scenario", choices=SCENARIO_TAGS)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--n-unlabeled", type=int, default=500)
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--miscal", type=float, default=1.0)
    p.add_argument("--miscal2", type=float, default=0.5)
    p.add_argument("--loss", default="mean",
                   choices=("mean", "quantile", "ols", "logistic", "mlp"))
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--classes", type=int)
    p.add_argument("--hidden", type=int, default=20)
    p.add_argument("--rectifier", default="quantile-map", choices=sorted(RECTIFIERS))
    p.add_argument("--strategy", default="npb", choices=tuple(STRATEGIES))
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--draws", type=int, default=500)
    p.add_argument("--level", type=float, default=0.9)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for older configurations; results do not depend on it")
    p.add_argument("--out", help="output file path (or prefix for generate)")
    p.add_argument("--config", help="flat key = value config file; flags take precedence")


def _make_parser():
    parser = argparse.ArgumentParser(prog="rectiprior",
                                     description="Rectified AI-powered Bayesian inference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("infer", "posterior bootstrap run with credible intervals"),
            ("rectify", "fit a rectifier and write its serialized form"),
            ("bench", "replication benchmark over the four methods"),
            ("diagnose", "sandwich covariance and centering-bias report"),
            ("generate", "write synthetic scenario CSV files")]:
        _add_common(sub.add_parser(name, help=helptext))
    return parser


def _given(argv, flag):
    """Whether argv sets `flag`, as `--flag value` or as `--flag=value`."""
    return any(arg == flag or arg.startswith(flag + "=") for arg in argv)


def _apply_config_file(argv):
    for i, arg in enumerate(argv):
        if arg.startswith("--config="):
            path = arg.partition("=")[2]
            break
        if arg == "--config":
            if i + 1 == len(argv):
                raise UsageError("--config needs a file path")
            path = argv[i + 1]
            break
    else:
        return argv
    extra = []
    for key, value in _read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if not _given(argv, flag):
            extra.extend([flag, value])
    return argv + extra


def _prior_config(args):
    return PriorConfig(gamma=args.gamma, draws=args.draws, level=args.level,
                       strategy=STRATEGIES[args.strategy](), rectifier=RECTIFIERS[args.rectifier](),
                       seed=args.seed, threads=args.threads)


def _emit(args, text, shown):
    """Write `text` to the --out file, if one is given, and `shown` to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(shown, end="")
    return 0


def _cmd_infer(args):
    config = _prior_config(args)
    loss = _build_loss(args)
    labeled, base = _load_data(args, loss)
    run = run_posterior(labeled, base, loss, config)
    return _emit(args, serialize_run(run), summarize_run(run) + "\n")


def _cmd_rectify(args):
    loss = _build_loss(args)
    labeled, base = _load_data(args, loss)
    if base is None:
        raise UsageError("rectify requires a base measure")
    text = serialize_rectifier(fit_rectifier(RECTIFIERS[args.rectifier](), labeled, base))
    return _emit(args, text, "" if args.out else text)


def _cmd_bench(args):
    loss = _build_loss(args)
    if args.scenario is not None:
        data = {"scenario": _build_scenario(args)}
    else:
        labeled, base = _load_data(args, loss)
        data = {"labeled": labeled, "base": base, "n": args.n}
    config = RunConfig(loss=loss, rectifier=RECTIFIERS[args.rectifier](),
                       strategy=STRATEGIES[args.strategy](), gamma=args.gamma,
                       draws=args.draws, level=args.level,
                       replications=args.replications, seed=args.seed,
                       threads=args.threads, **data)
    records = run_bench(config)
    return _emit(args, serialize_bench(records), format_bench_summary(records) + "\n")


def _cmd_diagnose(args):
    config = _prior_config(args)
    loss = _build_loss(args)
    labeled, base = _load_data(args, loss)
    if base is None:
        raise UsageError("diagnose requires a base measure")
    rect = apply_rectifier(fit_rectifier(config.rectifier, labeled, base), base)
    theta_tilde = labeled_erm(labeled, loss)
    theta_mixed = mixed_erm(labeled, rect, loss, config.gamma)
    est = sandwich(labeled, rect, loss, theta_mixed, config.gamma)
    reference = empirical_measure(labeled)
    lines = [f"rectifier: {args.rectifier}, fit once on the whole labeled sample",
             f"mixed ERM theta: {theta_mixed}",
             f"sandwich covariance diagonal: {est.cov.diagonal()}",
             "predicted centering bias: "
             f"{predict_centering_bias(labeled, rect, loss, theta_tilde, config.gamma)}",
             "predicted centering bias of the raw base: "
             f"{predict_centering_bias(labeled, base, loss, theta_tilde, config.gamma)}",
             "score discrepancy at theta-tilde, labeled minus raw base: "
             f"{score_discrepancy(base, reference, loss, theta_tilde)}",
             "score discrepancy at theta-tilde, labeled minus rectified base: "
             f"{score_discrepancy(rect, reference, loss, theta_tilde)}"]
    report = "\n".join(lines) + "\n"
    return _emit(args, report, report)


def _cmd_generate(args):
    if args.scenario is None:
        raise UsageError("generate requires --scenario")
    labeled, base, _ = generate_scenario(_build_scenario(args))
    prefix = args.out or args.scenario
    write_labeled_csv(f"{prefix}_labeled.csv", labeled)
    write_base_csv(f"{prefix}_base.csv", base)
    print(f"wrote {prefix}_labeled.csv and {prefix}_base.csv")
    return 0


_COMMANDS = {"infer": _cmd_infer, "rectify": _cmd_rectify, "bench": _cmd_bench,
             "diagnose": _cmd_diagnose, "generate": _cmd_generate}


def cli(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _make_parser().parse_args(_apply_config_file(argv))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IngestionError, ParameterError, OutcomeTypeError, CapabilityError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except RectipriorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
