"""Command-line entry point.

Subcommands: gen, train, eval, align, sweep-scale, sweep-features,
family-gen. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import alignment as al
from .alchemy import AlchemyModel, init_alchemy_model
from .autodiff import load_checkpoint
from .encoder import EncoderConfig
from .errors import ConfigError, DataError, NumericError
from .harness import (Benchmark, ExperimentConfig, _evaluate, ablation_sweep,
                      export_sweep, family_split_experiment, make_token_batch,
                      parse_config, prepare_benchmark, run_experiment,
                      scaling_sweep, svg_line_chart)
from .synthlang import Corpus, Vocab, write_corpus_tsv
from .uriel import write_uriel_tsv

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
    out.mkdir(parents=True, exist_ok=True)
    write_uriel_tsv(bench.store, out / "store")
    write_corpus_tsv(bench.corpus, out / "corpus.tsv")
    bench.corpus.vocab.save(out / "vocab.tsv")
    (out / "languages.txt").write_text(
        "seen: " + ",".join(bench.seen) + "\n" +
        "unseen: " + ",".join(bench.unseen) + "\n", encoding="utf-8")
    print(f"wrote store/, corpus.tsv, vocab.tsv under {out}")
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


def _rebuild_model(cfg: ExperimentConfig, vocab: Vocab, d_uriel: int,
                   checkpoint: Path) -> AlchemyModel:
    enc_cfg = EncoderConfig(vocab_size=len(vocab), d_model=cfg.d_model,
                            n_heads=cfg.n_heads, n_layers=cfg.n_layers,
                            max_seq_len=cfg.max_seq_len, seed=cfg.seeds[0])
    task = "classification" if cfg.task == "classification" else "regression"
    model = init_alchemy_model(
        enc_cfg, n_outputs=cfg.n_classes if task == "classification" else 1,
        d_uriel=d_uriel, feature_sets=cfg.feature_sets, task=task)
    weights = load_checkpoint(checkpoint)
    for name, tensor in model.named_parameters():
        if name not in weights:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        if weights[name].shape != tensor.data.shape:
            raise DataError(f"checkpoint parameter {name!r} has shape "
                            f"{weights[name].shape}, expected {tensor.data.shape}")
        tensor.data = weights[name].astype(np.float64)
    return model


def _load_run(args) -> tuple[ExperimentConfig, Benchmark, Corpus, AlchemyModel]:
    """Rebuild a trained run from ``--run-dir``.

    The config is the run's own ``config.resolved``; only ``out_dir`` comes
    from this invocation. The vocab and weights come from ``vocab.tsv`` and
    ``checkpoint.lalc`` in the same directory.
    """
    run_dir = Path(args.run_dir)
    cfg = replace(parse_config(run_dir / "config.resolved"),
                  out_dir=_load_config(args).out_dir)
    bench = prepare_benchmark(cfg)
    vocab = Vocab.load(run_dir / "vocab.tsv")
    model = _rebuild_model(cfg, vocab, bench.store.vector_dim(cfg.feature_sets),
                           run_dir / "checkpoint.lalc")
    return cfg, bench, bench.corpus.with_vocab(vocab), model


def cmd_eval(args) -> int:
    cfg, bench, corpus, model = _load_run(args)
    for split_tag, langs in (("seen", bench.seen), ("unseen", bench.unseen)):
        for lang in langs:
            subset = corpus.for_langs([lang]).subset("test")
            if subset.examples:
                value = _evaluate(model, subset, cfg)
                print(f"{lang}\t{split_tag}\t{value:.4f}")
    return 0


def cmd_align(args) -> int:
    cfg, bench, corpus, model = _load_run(args)
    train = corpus.subset("train")
    batches = [make_token_batch(train.examples[i:i + 64], corpus.vocab,
                                cfg.max_seq_len, cfg.task)
               for i in range(0, len(train.examples), 64)]
    data = al.collect_sentence_reps(model, batches, bench.store, cfg.feature_sets)
    closed = al.fit_alignment(data, al.ClosedForm())
    descended = al.fit_alignment(data, al.GradientDescent())
    out = Path(cfg.out_dir)
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


def cmd_sweep_scale(args) -> int:
    cfg = _load_config(args)
    rows = scaling_sweep(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_sweep(rows, out / "scaling_sweep.csv")
    (out / "scaling_sweep.svg").write_text(
        svg_line_chart({r.label: r.mean for r in rows},
                       title="unseen mean vs scaling"), encoding="utf-8")
    for row in rows:
        print(f"{row.label}\t{row.mean:.4f}")
    return 0


def cmd_sweep_features(args) -> int:
    cfg = _load_config(args)
    rows = ablation_sweep(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_sweep(rows, out / "feature_ablation.csv")
    for row in rows:
        marker = " *" if row.recommended else ""
        print(f"{row.label}\t{row.mean:.4f}{marker}")
    return 0


def cmd_family_gen(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trajectories: dict[str, list[float]] = {}
    for seed in cfg.seeds:
        reports = family_split_experiment(cfg, seed=seed)
        for gi, report in enumerate(reports):
            for lang, split_tag, value in report.rows:
                if split_tag == "unseen":
                    key = f"{lang}:group{gi + 1}:seed{seed}"
                    trajectories[key] = value
    with open(out / "family_trajectory.csv", "w", encoding="utf-8") as fh:
        fh.write("lang,group,seed,value\n")
        for key in trajectories:
            lang, group, seed_s = key.split(":")
            fh.write(f"{lang},{group[5:]},{seed_s[4:]},{trajectories[key]!r}\n")
    print(f"wrote {out / 'family_trajectory.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingualchemy",
        description="Typology-regularized multilingual classification "
                    "experiments on synthetic corpora.",
        epilog="Config keys and their defaults: "
               + "; ".join(f"{k}={getattr(ExperimentConfig(), k)!r}"
                           for k in ("task", "scaling", "factor", "epochs",
                                     "batch_size", "lr", "seeds", "n_langs",
                                     "n_families", "n_per_lang", "n_classes")))
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=int, help="override to a single seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--threads", type=int, help="worker pool width for sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate synthetic languages, store and corpus")
    sub.add_parser("train", help="train one model and report metrics")
    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    p_eval.add_argument("--run-dir", required=True,
                        help="directory produced by train")
    p_align = sub.add_parser("align", help="fit the representation alignment map")
    p_align.add_argument("--run-dir", required=True,
                         help="directory produced by train")
    sub.add_parser("sweep-scale", help="run the loss-scaling sweep")
    sub.add_parser("sweep-features", help="run the feature-set ablation")
    sub.add_parser("family-gen", help="run the cumulative family-split protocol")
    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "align": cmd_align,
    "sweep-scale": cmd_sweep_scale,
    "sweep-features": cmd_sweep_features,
    "family-gen": cmd_family_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
