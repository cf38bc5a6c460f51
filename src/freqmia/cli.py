"""Command-line interface.

Subcommands::

    gen-data      synthesize a dataset and export it as PGM + manifest
    train         train the toy denoiser on the member split
    attack        score a dataset against a trained model
    eval          metrics, ROC curves and the report from score CSVs
    verify-prop   constraint check + Monte-Carlo filter-improvement verifier
    run           full pipeline (train -> attack -> eval -> report)
    report        re-render JSON metrics as text tables

``train``, ``attack``, ``eval`` and ``run`` compose the stage functions of
:mod:`freqmia.experiment`, so the staged commands write the same bytes as
``run``.

Exit codes: 0 success, 1 configuration or input error (including bad
flags, missing config files and malformed input files), 2 failure of a
pipeline stage.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .attacks import read_score_csv
from .datasets import _check_both_classes, export_pgm_dir, generate_dataset
from .denoiser import load_denoiser
from .errors import ConfigurationError, EvaluationError, FreqMiaError, InputError, reading
from .evaluation import PropositionInputs, _read_report_metrics, proposition_mc_verify
from .experiment import (
    ExperimentConfig,
    Pipeline,
    _read_final_train_loss,
    attack_stage,
    evaluate_stage,
    load_inputs,
    report_stage,
    run_experiment,
    train_stage,
)


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors and reads no
    flag as an abbreviation of another (``--s`` is not ``--seed``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--out", help="override the output directory")


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    return dataclasses.replace(config, out_dir=args.out) if args.out else config


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    samples = generate_dataset(config.dataset_spec())
    pipe = Pipeline(config)
    with pipe.stage("gen-data"):
        export_pgm_dir(samples, lambda name: pipe.path(f"dataset/{name}"))
    print(f"wrote {len(samples)} samples to {pipe.out / 'dataset'}")
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    samples, sched = load_inputs(config)
    pipe = Pipeline(config)
    denoiser, trace = train_stage(pipe, samples, sched)
    final = f"{trace[-1]:.6g}" if trace else "n/a"
    print(f"trained {denoiser.params.size} parameters, final loss {final}")
    return 0


def _cmd_attack(args) -> int:
    config = _load_config(args)
    model_path = Path(args.model) if args.model else Path(config.out_dir) / "model.fmia"
    denoiser = load_denoiser(model_path)
    samples, sched = load_inputs(config)
    with reading(model_path):
        if denoiser.T != sched.T:
            raise ConfigurationError(
                f"model has T={denoiser.T}, the config's schedule has T={sched.T}")
        if denoiser.image_shape != samples[0].image.shape:
            raise ConfigurationError(f"model image shape {denoiser.image_shape}, "
                                     f"the config's samples have {samples[0].image.shape}")
    pipe = Pipeline(config)
    for attack_cfg in config.attack_configs():
        records = attack_stage(pipe, attack_cfg, samples, denoiser, sched)
        print(f"scored {len(records)} samples with {attack_cfg.kind}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    scores = {}
    for kind in config.attack_kinds:
        path = Path(config.out_dir) / f"scores_{kind}.csv"
        with reading(path):
            scores[kind] = read_score_csv(path)
            _check_both_classes(scores[kind])
    final_loss = _read_final_train_loss(config.out_dir)
    pipe = Pipeline(config)
    evaluated = {kind: evaluate_stage(pipe, kind, records) for kind, records in scores.items()}
    report_stage(pipe, evaluated, final_loss)
    print(f"evaluated {', '.join(evaluated)}")
    return 0


def _cmd_verify_prop(args) -> int:
    # every input comes from a flag, so an invalid one is a bad flag (exit 1)
    try:
        inputs = PropositionInputs(l_m=args.lm, l_h=args.lh, h_m=args.hm, h_h=args.hh)
        report = proposition_mc_verify(inputs, n_samples=args.n_samples, seed=args.seed,
                                       n_trials=args.n_trials)
    except EvaluationError as exc:
        raise ConfigurationError(str(exc)) from exc
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_run(args) -> int:
    config = _load_config(args)
    report = run_experiment(config)
    for kind, variants in report["attacks"].items():
        for variant, metrics in variants.items():
            print(f"{kind:>6} {variant:<8} asr={metrics['asr']:.4f} "
                  f"auc={metrics['auc']:.4f} tpr@1%fpr={metrics['tpr_at_1pct_fpr']:.4f}")
    print(f"outputs in {config.out_dir}")
    return 0


def _cmd_report(args) -> int:
    out = Path(args.out if args.out else "out")
    metric_files = sorted(out.glob("metrics_*.json"))
    if not metric_files:
        raise ConfigurationError(f"no metrics_*.json found in {out}")
    rows = [_read_report_metrics(path) for path in metric_files]
    print(f"{'attack':<10} {'variant':<10} {'asr':>8} {'auc':>8} {'tpr@1%':>8} {'sigma_h/m':>10}")
    for kind, variant, metrics in rows:
        ratio = metrics["sigma_ratio"]
        ratio_cell = f"{ratio:>10.4f}" if ratio is not None else f"{'n/a':>10}"
        print(f"{kind:<10} {variant:<10} {metrics['asr']:>8.4f} {metrics['auc']:>8.4f} "
              f"{metrics['tpr_at_1pct_fpr']:>8.4f} {ratio_cell}")
    comparison = out / "comparison.csv"
    if comparison.is_file():
        print()
        print(comparison.read_text(encoding="utf-8-sig", errors="replace").rstrip("\n"))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="freqmia",
                     description="frequency-filtered membership inference lab")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="synthesize and export a dataset")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train the toy denoiser")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", help="score a dataset against a model")
    _add_common(p)
    p.add_argument("--model", help="weights file (default <out>/model.fmia)")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("eval", help="recompute metrics from score CSVs")
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify-prop", help="verify the filter-improvement proposition")
    p.add_argument("--lm", type=float, required=True)
    p.add_argument("--lh", type=float, required=True)
    p.add_argument("--hm", type=float, required=True)
    p.add_argument("--hh", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=100_000)
    p.add_argument("--n-trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_prop)

    p = sub.add_parser("run", help="full pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="render metric JSONs as tables")
    p.add_argument("--out", help="experiment output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FreqMiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    sys.exit(main())
