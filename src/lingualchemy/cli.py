"""Command-line entry point.

Subcommands are the rows of ``_COMMANDS``. Exit codes: 0 success,
2 configuration error, 3 data error (a file that cannot be read or written
included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import alignment as al
from .errors import ConfigError, DataError, NumericError, write_csv
from .harness import (ExperimentConfig, ablation_sweep, config_items,
                      eval_batches, evaluate_languages, export_sweep,
                      family_split_experiment, load_run, parse_config,
                      prepare_benchmark, run_experiment, scaling_sweep,
                      svg_bar_chart, write_benchmark)

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 2, 3, 4


def _load_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    bench = prepare_benchmark(cfg)
    out = Path(cfg.out_dir)
    written = write_benchmark(bench, out)
    (out / "languages.txt").write_text(
        "seen: " + ",".join(bench.seen) + "\n" +
        "unseen: " + ",".join(bench.unseen) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(written)} under {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg, seed=cfg.seeds[0],
                            run_dir=Path(cfg.out_dir))
    for lang, split_tag, value in report.rows:
        print(f"{lang}\t{split_tag}\t{value:.4f}")
    for name, value in report.aggregates.items():
        print(f"{name} = {value:.4f}")
    print(f"outputs in {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    _load_config(args)  # a malformed --config still exits 2
    cfg, bench, model = load_run(args.run_dir)
    for lang, split_tag, value in evaluate_languages(model, bench, cfg):
        print(f"{lang}\t{split_tag}\t{value:.4f}")
    return 0


def cmd_align(args) -> int:
    out = Path(_load_config(args).out_dir)
    cfg, bench, model = load_run(args.run_dir)
    batches = eval_batches(bench.corpus.subset("train"), cfg)
    data = al.collect_sentence_reps(model, batches, bench.store, cfg.feature_sets)
    closed = al.fit_alignment(data, al.ClosedForm())
    descended = al.fit_alignment(data, al.GradientDescent())
    out.mkdir(parents=True, exist_ok=True)
    al.export_alignment_report([closed, descended], len(data.reps),
                               out / "alignment_report.csv")
    aligned = al.align_representations(closed, data.reps)
    al.export_alignment_pca(aligned, data.targets, data.langs,
                            out / "alignment_pca.csv")
    print(f"closed-form r_squared = {closed.r_squared:.4f}")
    print(f"gradient-descent r_squared = {descended.r_squared:.4f}")
    print(f"outputs in {out}")
    return 0


def _write_sweep(args, sweep, stem: str, title: str) -> int:
    """Run ``sweep`` on the config and write ``<stem>.csv`` and a bar chart of
    the row means, ``<stem>.svg``, with the recommended rows in orange."""
    cfg = _load_config(args)
    rows = sweep(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_sweep(rows, out / f"{stem}.csv")
    (out / f"{stem}.svg").write_text(
        svg_bar_chart([r.label for r in rows], [r.mean for r in rows],
                      [r.recommended for r in rows], title), encoding="utf-8")
    for row in rows:
        marker = " *" if row.recommended else ""
        print(f"{row.label}\t{row.mean:.4f}{marker}")
    return 0


def cmd_sweep_scale(args) -> int:
    return _write_sweep(args, scaling_sweep, "scaling_sweep", "unseen mean vs scaling")


def cmd_sweep_features(args) -> int:
    return _write_sweep(args, ablation_sweep, "feature_ablation",
                        "unseen mean by feature sets")


def cmd_family_gen(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(lang, group, seed, value)
            for seed, reports in zip(cfg.seeds, family_split_experiment(cfg))
            for group, report in enumerate(reports, start=1)
            for lang, split_tag, value in report.rows if split_tag == "unseen"]
    write_csv(out / "family_trajectory.csv", ["lang", "group", "seed", "value"], rows)
    print(f"wrote {out / 'family_trajectory.csv'}")
    return 0


# One row per subcommand: its name, the name of its handler in this module,
# its help, and whether it reads a run directory. Handlers are looked up when
# a command runs, so replacing one on the module takes effect.
_COMMANDS = (
    ("gen", "cmd_gen", "generate synthetic languages, store and corpus", False),
    ("train", "cmd_train", "train one model and report metrics", False),
    ("eval", "cmd_eval", "evaluate a saved checkpoint", True),
    ("align", "cmd_align", "fit the representation alignment map", True),
    ("sweep-scale", "cmd_sweep_scale", "run the loss-scaling sweep", False),
    ("sweep-features", "cmd_sweep_features", "run the feature-set ablation", False),
    ("family-gen", "cmd_family_gen", "run the cumulative family-split protocol",
     False),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command line, built once per process."""
    parser = argparse.ArgumentParser(
        prog="lingualchemy",
        description="Typology-regularized multilingual classification "
                    "experiments on synthetic corpora.",
        epilog="Config keys and their defaults: "
               + "; ".join(f"{key}={text}"
                           for key, text in config_items(ExperimentConfig())))
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=int, help="override to a single seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--threads", type=int, help="worker pool width for sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, reads_run_dir in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        if reads_run_dir:
            command.add_argument("--run-dir", required=True,
                                 help="directory produced by train")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
