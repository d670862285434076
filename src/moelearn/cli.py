"""Command-line entry point.

    moe generate   --config cfg.json [--seed S] [--out DIR]
    moe fit        --config cfg.json --data data.csv [--model model.json]
                   [--algo ALGO] [--seed S] [--out DIR]
    moe experiment --suite NAME [--config cfg.json] [--out DIR] [--trials T]
                   [--threads T]
    moe ingest     --csv file.csv --features f1,f2,... --target y
                   [--split 0.75] [--seed S] [--out DIR]

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 numerical failure. MOE_THREADS is the fallback for --threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .activations import Activation
from .errors import ConfigError, DataError, NumericalError
from .experiments import SUITES, ExperimentConfig, draw_instance, run_suite
from .metrics import write_trace_csv
from .model import Dataset, InputDistribution, MoeModel, sample_dataset
from .pipeline import evaluate, fit_pipeline
from .tabular import ingest_csv

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for name in ("seed", "out", "algo", "trials", "threads"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if not getattr(args, "threads", None):
        env_threads = os.environ.get("MOE_THREADS")
        if env_threads:
            overrides.setdefault("threads", int(env_threads))
    return replace(cfg, **overrides) if overrides else cfg


def cmd_generate(args) -> int:
    """Draw a model per the config and write the dataset CSV plus model JSON."""
    cfg = _load_config(args)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model, dist = draw_instance(cfg, cfg.seed)
    data = sample_dataset(model, dist, cfg.n, cfg.seed + 1)
    data.to_csv(outdir / "dataset.csv")
    model.to_json(outdir / "model.json")
    (outdir / "distribution.json").write_text(
        json.dumps(dist.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {outdir / 'dataset.csv'} ({cfg.n} samples, d={cfg.d}) and model.json")
    return EXIT_OK


def cmd_fit(args) -> int:
    """Run the selected pipeline on a dataset and write the fit report."""
    cfg = _load_config(args)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    data = Dataset.from_csv(args.data)
    dist_path = Path(args.data).with_name("distribution.json")
    if args.dist:
        dist = InputDistribution.from_dict(json.loads(Path(args.dist).read_text()))
    elif dist_path.exists():
        dist = InputDistribution.from_dict(json.loads(dist_path.read_text()))
    else:
        dist = InputDistribution.standard_gaussian(data.d)
    truth = MoeModel.from_json(Path(args.model)) if args.model else None

    result = fit_pipeline(data, dist, cfg.k, cfg.sigma, Activation.by_name(cfg.activation),
                          radius=cfg.radius, seed=cfg.seed, opts=cfg.pipeline_options())
    state = result.gating_state or result.joint_state
    if state is not None:
        write_trace_csv(outdir / "trace.csv", state.trace,
                        include_loglik=result.joint_state is not None)
    if truth is not None:
        report = evaluate(result, truth, cfg.to_dict())
    else:
        from .metrics import FitReport
        report = FitReport(config=cfg.to_dict(), flags=list(result.flags))
        report.decomposition = result.decomposition.to_dict() if result.decomposition else None
        report.cqt = result.cqt.to_dict() if result.cqt else None
    np.savetxt(outdir / "regressors.csv", result.a_est, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "gating.csv", result.w_padded, delimiter=",", fmt="%.17g")
    report.to_json(outdir / "fit_report.json")
    print(f"wrote {outdir / 'fit_report.json'}"
          + (f" (regressor_fit={report.regressor_fit:.3f}, gating_fit={report.gating_fit:.3f})"
             if truth is not None else ""))
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = _load_config(args)
    manifest = run_suite(args.suite, cfg, Path(cfg.out))
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return EXIT_OK if not manifest["failures"] else EXIT_NUMERIC


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    features = [c.strip() for c in args.features.split(",")] if args.features else None
    if not features:
        raise ConfigError("--features is required (comma-separated column names)")
    tab = ingest_csv(args.csv, features, args.target, split=args.split, seed=cfg.seed)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    Dataset(tab.train_x, tab.train_y).to_csv(outdir / "train.csv")
    Dataset(tab.test_x, tab.test_y).to_csv(outdir / "test.csv")
    rec = tab.preprocess
    (outdir / "preprocess.json").write_text(json.dumps({
        "feature_mean": rec.feature_mean.tolist(),
        "zca": rec.zca.tolist(),
        "target_min": rec.target_min,
        "target_max": rec.target_max,
        "dropped_columns": rec.dropped_columns,
        "rejected_rows": rec.rejected_rows,
        "feature_names": tab.feature_names,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {outdir}/train.csv ({tab.train_x.shape[0]} rows) and "
          f"test.csv ({tab.test_x.shape[0]} rows); rejected {rec.rejected_rows} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moe",
                                     description="mixture-of-experts parameter recovery")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes for trials (MOE_THREADS fallback)")

    p = sub.add_parser("generate", parents=[common], help="sample a synthetic dataset")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("fit", parents=[common], help="fit a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--model", help="ground-truth model JSON for scoring")
    p.add_argument("--dist", help="input distribution JSON (defaults to standard Gaussian)")
    p.add_argument("--algo", choices=["spectral+em", "spectral+gradient-em",
                                      "spectral+mom", "joint-em"], default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("experiment", parents=[common], help="run a reproduction suite")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("ingest", parents=[common], help="preprocess a real-data CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--features", required=True, help="comma-separated feature columns")
    p.add_argument("--target", required=True, help="target column")
    p.add_argument("--split", type=float, default=0.75)
    p.set_defaults(fn=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
