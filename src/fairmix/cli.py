"""Command-line front end.

Commands:
    audit     run one experiment, write report.json / report.md / predictions.csv
    compare   preprocess each fold once and evaluate no augmentation, random
              oversampling and mixfeat on it; write a side-by-side table
    synth     materialize a synthetic dataset in manifest+CSV layout
    validate  lint a configuration file

Exit codes: 0 success, 2 configuration error, 3 data error, 4 experiment error.
The FAIRMIX_SEED environment variable overrides the configured seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiment as exp
from .augment import METHODS
from .config import PipelineConfig, load_config, parse_synth_spec
from .dataset import load_dataset, save_dataset
from .errors import ConfigError, DataError, FairmixError, InputError
from .synthgen import generate

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_EXPERIMENT = 0, 2, 3, 4


def _parse_overrides(pairs):
    out = {}
    for p in pairs or []:
        if "=" not in p:
            raise ConfigError(f"--set expects key=value, got {p!r}")
        k, _, v = p.partition("=")
        out[k.strip()] = v.strip()
    return out


def _load_config(args) -> PipelineConfig:
    overrides = _parse_overrides(args.set)
    env_seed = os.environ.get("FAIRMIX_SEED")
    if env_seed is not None:
        overrides["seed"] = env_seed
    return load_config(args.config, overrides)


def _resolve_dataset(cfg: PipelineConfig):
    if cfg.manifest is not None:
        return load_dataset(cfg.manifest)
    return generate(cfg.synth_spec)


def cmd_audit(args) -> int:
    cfg = _load_config(args)
    dataset = _resolve_dataset(cfg)
    report = exp.run_experiment(cfg, dataset)
    out = cfg.output_dir
    exp.write_report_json(report, os.path.join(out, "report.json"))
    exp.write_report_markdown(report, os.path.join(out, "report.md"))
    exp.write_predictions_csv(
        report.predictions, os.path.join(out, "predictions.csv"), dataset.declared_attributes
    )
    print(f"wrote report.json, report.md, predictions.csv to {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    dataset = _resolve_dataset(cfg)
    reports = dict(zip(METHODS, exp.run_arms(cfg, dataset, METHODS)))
    out = cfg.output_dir
    exp.write_json(os.path.join(out, "report.json"), {
        "arms": {arm: r.to_json_dict() for arm, r in reports.items()},
        "fold_fingerprints": reports["none"].fold_fingerprints,
        "seed": cfg.seed,
    })
    exp.write_comparison_markdown(reports, os.path.join(out, "report.md"))
    for arm, r in reports.items():
        exp.write_predictions_csv(
            r.predictions,
            os.path.join(out, f"predictions_{arm}.csv"),
            dataset.declared_attributes,
        )
    print(f"wrote comparison report.json / report.md to {out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = parse_synth_spec(args.spec)
    dataset = generate(spec)
    manifest = save_dataset(dataset, args.out, name=args.name)
    print(f"wrote {dataset.n_samples} samples; manifest: {manifest}")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    print(f"config OK (seed={cfg.seed}, model={cfg.model_kind}, "
          f"fusion={cfg.fusion_strategy}, augment={cfg.augment_method})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fairmix",
        description="Audit and mitigate ML bias on small multimodal tabular datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="pipeline config file (key=value lines)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key (repeatable)")

    p = sub.add_parser("audit", help="run one experiment and write reports")
    add_config_args(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("compare", help="compare none / random_oversample / mixfeat")
    add_config_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synth spec file (key=value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--name", default="data", help="file name stem")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="lint a configuration file")
    add_config_args(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FairmixError as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT


if __name__ == "__main__":
    sys.exit(main())
