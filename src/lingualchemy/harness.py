"""Configuration-driven experiment runner and report writer.

Protocols covered: a single seen/unseen generalization run, the cumulative
language-family split, the feature-combination ablation, and the loss
scaling sweep. Every protocol is reproducible row by row: a sweep cell
equals an independent run with the same configuration and seed.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .alchemy import (AlchemyScale, AlchemyTune, ConstantScaling, ScalingState,
                      TRACE_HEADER, init_alchemy_model, predict_classes,
                      predict_logits, train_loop)
from .autodiff import save_checkpoint
from .encoder import EncoderConfig, TokenBatch
from .errors import ConfigError, DataError, NumericError, read_text_lines
from .synthlang import (Corpus, Example, Vocab, generate_corpus,
                        generate_languages, read_corpus_tsv, tokenize)
from .uriel import ALL_FEATURE_SETS, FeatureSet, UrielStore, load_uriel_tsv

SCALING_MODES = ("constant", "alchemy_scale", "alchemy_tune")
TASKS = ("classification", "relatedness")
SWEEP_FACTORS = (0.0, 10.0, 25.0, 50.0, 100.0)

_SET_LABELS = {FeatureSet.SYNTAX_KNN: "syntax_knn",
               FeatureSet.SYNTAX_AVERAGE: "syntax_avg",
               FeatureSet.GEO: "geo"}


def feature_combo_label(sets) -> str:
    ordered = [fs for fs in ALL_FEATURE_SETS if fs in set(sets)]
    return "+".join(_SET_LABELS[fs] for fs in ordered)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults define the reference synthetic benchmark: 12 languages in 4
    families (8 seen / 4 unseen), width-32 encoder, constant 10x weighting.
    Calibrated so the unseen-language effect reproduces across seeds within
    a couple of minutes of training."""

    task: str = "classification"
    feature_sets: tuple[FeatureSet, ...] = ALL_FEATURE_SETS
    scaling: str = "constant"
    factor: float = 10.0
    epochs: int = 18
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.01
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 32
    seen: tuple[str, ...] = ()
    unseen: tuple[str, ...] = ()
    family_groups: tuple[tuple[str, ...], ...] = ()
    categories: tuple[tuple[str, str], ...] = ()
    n_langs: int = 12
    n_families: int = 4
    n_per_lang: int = 300
    n_classes: int = 4
    gen_seed: int = 0
    store_dir: str = ""
    corpus: str = ""
    out_dir: str = "runs"
    threads: int = 0

    def __post_init__(self):
        overlap = sorted(set(self.seen) & set(self.unseen))
        if overlap:
            raise ConfigError(f"languages listed as both seen and unseen: "
                              f"{', '.join(overlap)}")
        previous: set[str] = set()
        for i, group in enumerate(self.family_groups):
            if not previous <= set(group):
                raise ConfigError(f"family group {i + 1} must contain every "
                                  "language of the previous group (cumulative)")
            bad = sorted(set(group) & set(self.unseen))
            if bad:
                raise ConfigError(f"family group {i + 1} contains unseen "
                                  f"languages: {', '.join(bad)}")
            previous = set(group)


_KEY_TYPES = {
    "task": str, "feature_sets": "sets", "scaling": str, "factor": float,
    "epochs": int, "batch_size": int, "lr": float, "weight_decay": float,
    "seeds": "ints", "d_model": int, "n_layers": int, "n_heads": int,
    "max_seq_len": int, "seen": "langs", "unseen": "langs",
    "family_groups": "groups", "categories": "pairs",
    "n_langs": int, "n_families": int, "n_per_lang": int, "n_classes": int,
    "gen_seed": int, "store_dir": str, "corpus": str, "out_dir": str,
    "threads": int,
}


def _parse_value(key: str, raw: str, line_no: int):
    kind = _KEY_TYPES[key]
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip())
        if kind == "langs":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        if kind == "sets":
            out = []
            for name in (v.strip() for v in raw.split(",") if v.strip()):
                try:
                    out.append(FeatureSet(name))
                except ValueError:
                    raise ConfigError(
                        f"line {line_no}: unknown feature set {name!r} "
                        f"(choose from {', '.join(f.value for f in FeatureSet)})"
                    ) from None
            return tuple(out)
        if kind == "groups":
            groups = []
            for chunk in raw.split("|"):
                langs = tuple(v.strip() for v in chunk.split(",") if v.strip())
                if langs:
                    groups.append(langs)
            return tuple(groups)
        if kind == "pairs":
            pairs = []
            for chunk in (v.strip() for v in raw.split(",") if v.strip()):
                lang, _, tag = chunk.partition(":")
                if not tag:
                    raise ConfigError(f"line {line_no}: category {chunk!r} "
                                      "must look like lang:tag")
                pairs.append((lang.strip(), tag.strip()))
            return tuple(pairs)
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"line {line_no}: bad value {raw!r} for key "
                          f"{key!r} (expected {kind.__name__})") from None
    raise AssertionError(kind)


def parse_config(path) -> ExperimentConfig:
    """Parse a flat ``key = value`` file with ``[section]`` grouping lines.

    Sections are organizational only; keys are globally unique. Unknown
    keys and malformed values are rejected with their line number.
    """
    values: dict = {}
    seen_keys: dict[str, int] = {}
    for line_no, raw in enumerate(read_text_lines(path, ConfigError), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in seen_keys:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r} "
                              f"(first set on line {seen_keys[key]})")
        seen_keys[key] = line_no
        values[key] = _parse_value(key, value.strip(), line_no)
    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {cfg.task!r}")
    if cfg.scaling not in SCALING_MODES:
        raise ConfigError(f"scaling must be one of {SCALING_MODES}, got {cfg.scaling!r}")
    if cfg.factor < 0:
        raise ConfigError("factor must be >= 0")
    if not cfg.feature_sets:
        raise ConfigError("feature_sets must be nonempty")
    if len(set(cfg.feature_sets)) != len(cfg.feature_sets):
        raise ConfigError("feature_sets contains duplicates")
    if not cfg.seeds:
        raise ConfigError("seeds must be nonempty")
    for key in ("epochs", "batch_size", "n_langs", "n_families",
                "n_per_lang", "n_classes"):
        if getattr(cfg, key) < (0 if key == "epochs" else 1):
            raise ConfigError(f"{key} must be positive")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; reparsing it reproduces the config exactly."""
    def langs(v):
        return ",".join(v)

    lines = [
        "[task]",
        f"task = {cfg.task}",
        f"feature_sets = {','.join(fs.value for fs in cfg.feature_sets)}",
        "[scaling]",
        f"scaling = {cfg.scaling}",
        f"factor = {cfg.factor!r}",
        "[training]",
        f"epochs = {cfg.epochs}",
        f"batch_size = {cfg.batch_size}",
        f"lr = {cfg.lr!r}",
        f"weight_decay = {cfg.weight_decay!r}",
        f"seeds = {','.join(str(s) for s in cfg.seeds)}",
        "[model]",
        f"d_model = {cfg.d_model}",
        f"n_layers = {cfg.n_layers}",
        f"n_heads = {cfg.n_heads}",
        f"max_seq_len = {cfg.max_seq_len}",
        "[languages]",
        f"seen = {langs(cfg.seen)}",
        f"unseen = {langs(cfg.unseen)}",
        f"family_groups = {' | '.join(langs(g) for g in cfg.family_groups)}",
        f"categories = {','.join(f'{l}:{t}' for l, t in cfg.categories)}",
        "[generate]",
        f"n_langs = {cfg.n_langs}",
        f"n_families = {cfg.n_families}",
        f"n_per_lang = {cfg.n_per_lang}",
        f"n_classes = {cfg.n_classes}",
        f"gen_seed = {cfg.gen_seed}",
        "[paths]",
        f"store_dir = {cfg.store_dir}",
        f"corpus = {cfg.corpus}",
        f"out_dir = {cfg.out_dir}",
        f"threads = {cfg.threads}",
    ]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """Identity of the scientific inputs; where outputs land and how many
    workers run do not change results, so they are excluded."""
    canonical = replace(cfg, out_dir="", threads=0)
    return hashlib.sha256(serialize_config(canonical).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def accuracy(preds, gold) -> float:
    preds = list(preds)
    gold = list(gold)
    if len(preds) != len(gold):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(gold)}")
    if not preds:
        raise ValueError("need at least one prediction")
    return sum(1 for p, g in zip(preds, gold) if p == g) / len(preds)


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = (dx ** 2).sum()
    vy = (dy ** 2).sum()
    if vx == 0.0 or vy == 0.0:
        raise NumericError("pearson undefined: an input has zero variance")
    return float((dx * dy).sum() / np.sqrt(vx * vy))


@dataclass
class MetricsReport:
    metric_name: str
    rows: tuple[tuple[str, str, float], ...]      # (lang, split_tag, value)
    aggregates: dict[str, float]
    trace: list[list]
    config_hash: str
    seed: int
    wall_time: float = 0.0

    def value(self, lang: str) -> float:
        for row_lang, _, v in self.rows:
            if row_lang == lang:
                return v
        raise KeyError(lang)


# ---------------------------------------------------------------------------
# benchmark assembly
# ---------------------------------------------------------------------------

@dataclass
class Benchmark:
    store: UrielStore
    corpus: Corpus
    seen: tuple[str, ...]
    unseen: tuple[str, ...]
    families: dict[str, int] = field(default_factory=dict)


def _default_split(langs: list[str], n_families: int):
    """First two round-robin members of each family are seen, rest unseen."""
    cut = min(len(langs), 2 * n_families)
    return tuple(langs[:cut]), tuple(langs[cut:])


def prepare_benchmark(cfg: ExperimentConfig) -> Benchmark:
    """Load user-supplied files or generate the synthetic default."""
    if bool(cfg.corpus) != bool(cfg.store_dir):
        raise ConfigError("store_dir and corpus must be supplied together")
    if cfg.corpus and not cfg.seen:
        raise ConfigError("seen languages must be listed when using your own corpus")
    if cfg.corpus:
        store = load_uriel_tsv({fs: Path(cfg.store_dir) / f"{fs.value}.tsv"
                                for fs in cfg.feature_sets})
        examples = read_corpus_tsv(cfg.corpus, task=cfg.task, split_seed=cfg.gen_seed)
        langs = sorted({e.lang for e in examples})
        families = {}
    else:
        specs, store = generate_languages(cfg.n_langs, cfg.n_families, cfg.gen_seed)
        langs = [s.lang for s in specs]
        families = {s.lang: s.family for s in specs}
    seen, unseen = cfg.seen, cfg.unseen
    if not seen:
        default_seen, default_unseen = _default_split(langs, cfg.n_families)
        seen = default_seen
        unseen = unseen or tuple(l for l in default_unseen if l not in seen)
    missing = sorted((set(seen) | set(unseen)) - set(langs))
    if missing:
        raise DataError(f"languages not present in the data: {', '.join(missing)}")
    store_langs = set(store.list_languages())
    absent = sorted((set(seen) | set(unseen)) - store_langs)
    if absent:
        raise DataError(f"languages missing from the store: {', '.join(absent)}")

    if cfg.corpus:
        vocab = Vocab.build(e.tokens for e in examples
                            if e.split == "train" and e.lang in set(seen))
        corpus = Corpus(examples=examples, vocab=vocab, task=cfg.task)
    else:
        corpus = generate_corpus(specs, cfg.n_per_lang, cfg.n_classes,
                                 cfg.gen_seed, task=cfg.task, vocab_langs=seen)
    return Benchmark(store=store, corpus=corpus, seen=tuple(seen),
                     unseen=tuple(unseen), families=families)


def make_token_batch(examples: list[Example], vocab: Vocab,
                     max_seq_len: int, task: str) -> TokenBatch:
    id_lists = [tokenize(vocab, e.tokens)[:max_seq_len] for e in examples]
    width = max(len(ids) for ids in id_lists)
    ids = np.zeros((len(examples), width), dtype=np.int64)
    mask = np.zeros((len(examples), width), dtype=bool)
    for i, row in enumerate(id_lists):
        ids[i, :len(row)] = row
        mask[i, :len(row)] = True
    if task == "classification":
        labels = np.array([e.label for e in examples], dtype=np.int64)
    else:
        labels = np.array([e.label for e in examples], dtype=np.float64)
    return TokenBatch(ids=ids, attention_mask=mask,
                      langs=tuple(e.lang for e in examples), labels=labels)


def _make_scaling(cfg: ExperimentConfig) -> ScalingState:
    if cfg.scaling == "constant":
        return ConstantScaling(cfg.factor)
    if cfg.scaling == "alchemy_scale":
        return AlchemyScale()
    return AlchemyTune()


# ---------------------------------------------------------------------------
# experiment protocols
# ---------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, seed: int | None = None,
                   run_dir=None, persist: bool = True,
                   benchmark: Benchmark | None = None) -> MetricsReport:
    """Train on seen languages, evaluate on seen and unseen test splits.

    The unseen evaluation uses model outputs alone; no linguistic vector is
    consulted after training. With ``persist`` the run directory receives
    report.csv, trace.csv, config.resolved, plot.svg, vocab.tsv and a
    checkpoint; partial outputs are removed if the run fails.
    """
    seed = cfg.seeds[0] if seed is None else seed
    bench = benchmark if benchmark is not None else prepare_benchmark(cfg)
    resolved = replace(cfg, seen=bench.seen, unseen=bench.unseen)

    t0 = time.perf_counter()
    train_corpus = bench.corpus.for_langs(bench.seen).subset("train")
    if not train_corpus.examples:
        raise DataError("no training examples for the seen languages")
    enc_cfg = EncoderConfig(vocab_size=len(bench.corpus.vocab),
                            d_model=cfg.d_model, n_heads=cfg.n_heads,
                            n_layers=cfg.n_layers, max_seq_len=cfg.max_seq_len,
                            seed=seed)
    task = "classification" if cfg.task == "classification" else "regression"
    model = init_alchemy_model(
        enc_cfg,
        n_outputs=cfg.n_classes if task == "classification" else 1,
        d_uriel=bench.store.vector_dim(cfg.feature_sets),
        feature_sets=cfg.feature_sets, task=task)
    scaling = _make_scaling(cfg)

    train_examples = train_corpus.examples

    def batches_fn(indices):
        return make_token_batch([train_examples[i] for i in indices],
                                bench.corpus.vocab, cfg.max_seq_len, cfg.task)

    model, _, trace_rows = train_loop(
        model, batches_fn, len(train_examples), bench.store, cfg.feature_sets,
        scaling, epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        seed=seed, weight_decay=cfg.weight_decay)

    rows = []
    for split_tag, lang_list in (("seen", bench.seen), ("unseen", bench.unseen)):
        for lang in lang_list:
            subset = bench.corpus.for_langs([lang]).subset("test")
            if not subset.examples:
                continue
            rows.append((lang, split_tag,
                         _evaluate(model, subset, cfg)))
    aggregates = _aggregate(rows, dict(cfg.categories))
    report = MetricsReport(
        metric_name="accuracy" if cfg.task == "classification" else "pearson",
        rows=tuple(rows), aggregates=aggregates, trace=trace_rows,
        config_hash=config_hash(resolved), seed=seed,
        wall_time=time.perf_counter() - t0)

    if persist:
        run_dir = Path(run_dir) if run_dir else Path(cfg.out_dir) / f"run_seed{seed}"
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            export_report(report, run_dir, resolved_config=resolved)
            bench.corpus.vocab.save(run_dir / "vocab.tsv")
            save_checkpoint(run_dir / "checkpoint.lalc", model.named_parameters())
        except BaseException:
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
    return report


def _evaluate(model, corpus: Corpus, cfg: ExperimentConfig,
              chunk: int = 64) -> float:
    examples = corpus.examples
    preds: list = []
    gold: list = []
    for start in range(0, len(examples), chunk):
        part = examples[start:start + chunk]
        batch = make_token_batch(part, corpus.vocab, cfg.max_seq_len, cfg.task)
        if cfg.task == "classification":
            preds.extend(predict_classes(model, batch).tolist())
        else:
            preds.extend(predict_logits(model, batch)[:, 0].tolist())
        gold.extend(e.label for e in part)
    if cfg.task == "classification":
        return accuracy(preds, gold)
    return pearson(preds, gold)


def _aggregate(rows, categories: dict[str, str]) -> dict[str, float]:
    aggregates: dict[str, float] = {}
    for tag in ("seen", "unseen"):
        values = [v for _, t, v in rows if t == tag]
        if values:
            aggregates[f"{tag}_mean"] = float(np.mean(values))
    by_cat: dict[str, list[float]] = {}
    for lang, _, v in rows:
        if lang in categories:
            by_cat.setdefault(categories[lang], []).append(v)
    for tag, values in sorted(by_cat.items()):
        aggregates[f"cat:{tag}"] = float(np.mean(values))
    return aggregates


def family_split_experiment(cfg: ExperimentConfig,
                            seed: int | None = None) -> list[MetricsReport]:
    """One report per cumulative training group, fixed unseen evaluation set."""
    if not cfg.family_groups:
        raise ConfigError("family_groups must be set for the family experiment")
    if not cfg.unseen:
        raise ConfigError("unseen languages must be set for the family experiment")
    reports = []
    for group in cfg.family_groups:
        group_cfg = replace(cfg, seen=tuple(group), family_groups=())
        reports.append(run_experiment(group_cfg, seed=seed, persist=False))
    return reports


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    label: str
    per_seed: tuple[tuple[int, float], ...]   # (seed, unseen mean)
    recommended: bool = False

    @property
    def mean(self) -> float:
        return float(np.mean([v for _, v in self.per_seed]))


def _run_cell(args) -> float:
    cfg, seed, bench = args
    report = run_experiment(cfg, seed=seed, persist=False, benchmark=bench)
    return report.aggregates["unseen_mean"]


def _pool_width(cfg: ExperimentConfig, n_jobs: int) -> int:
    width = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    return max(1, min(width, n_jobs))


def _run_cells(cfg: ExperimentConfig, jobs: list) -> list[float]:
    width = _pool_width(cfg, len(jobs))
    if width == 1:
        return [_run_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=width) as pool:
        return list(pool.map(_run_cell, jobs))


def _sweep_benchmark(cfg: ExperimentConfig) -> Benchmark:
    """The one benchmark that every cell of a sweep trains and evaluates on."""
    bench = prepare_benchmark(cfg)
    if not bench.unseen:
        raise ConfigError("sweeps compare unseen-language means; configure "
                          "unseen languages (or generate enough languages "
                          "for the default split to leave some unseen)")
    return bench


def scaling_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Constant factors plus both dynamic modes, all on the same seeds."""
    bench = _sweep_benchmark(cfg)
    variants: list[tuple[str, ExperimentConfig]] = []
    for factor in SWEEP_FACTORS:
        variants.append((f"{factor:g}x",
                         replace(cfg, scaling="constant", factor=factor)))
    variants.append(("AlchemyScale", replace(cfg, scaling="alchemy_scale")))
    variants.append(("AlchemyTune", replace(cfg, scaling="alchemy_tune")))
    jobs = [(vcfg, seed, bench) for _, vcfg in variants for seed in cfg.seeds]
    values = _run_cells(cfg, jobs)
    rows = []
    for i, (label, _) in enumerate(variants):
        cells = values[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)]
        rows.append(SweepRow(label=label,
                             per_seed=tuple(zip(cfg.seeds, cells))))
    return rows


def ablation_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """All seven nonempty feature-set combinations on the same seeds."""
    # one store holding every feature set serves all seven combinations
    bench = _sweep_benchmark(replace(cfg, feature_sets=ALL_FEATURE_SETS))
    combos: list[tuple[FeatureSet, ...]] = []
    for size in (1, 2, 3):
        for bits in range(1, 8):
            combo = tuple(fs for i, fs in enumerate(ALL_FEATURE_SETS)
                          if bits >> i & 1)
            if len(combo) == size and combo not in combos:
                combos.append(combo)
    jobs = [(replace(cfg, feature_sets=combo), seed, bench)
            for combo in combos for seed in cfg.seeds]
    values = _run_cells(cfg, jobs)
    rows = []
    for i, combo in enumerate(combos):
        cells = values[i * len(cfg.seeds):(i + 1) * len(cfg.seeds)]
        rows.append(SweepRow(label=feature_combo_label(combo),
                             per_seed=tuple(zip(cfg.seeds, cells)),
                             recommended=len(combo) == 3))
    return rows


def export_sweep(rows: list[SweepRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        seeds = [s for s, _ in rows[0].per_seed]
        writer.writerow(["row", "recommended", "unseen_mean"]
                        + [f"seed{s}" for s in seeds])
        for row in rows:
            writer.writerow([row.label, str(row.recommended).lower(),
                             repr(row.mean)] + [repr(v) for _, v in row.per_seed])


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------

def export_report(report: MetricsReport, directory,
                  resolved_config: ExperimentConfig | None = None) -> None:
    """Write report.csv, trace.csv, config.resolved and plot.svg.

    Output bytes are a pure function of the report (and config), so
    re-exporting an identical report reproduces identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lang", "split", "metric", "value"])
        for lang, split_tag, value in report.rows:
            writer.writerow([lang, split_tag, report.metric_name, repr(value)])
    with open(directory / "trace.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        writer.writerows(report.trace)
    if resolved_config is not None:
        (directory / "config.resolved").write_text(
            serialize_config(resolved_config), encoding="utf-8")
    labels = [lang for lang, _, _ in report.rows]
    values = [v for _, _, v in report.rows]
    tags = [t for _, t, _ in report.rows]
    svg = svg_bar_chart(labels, values, tags,
                        title=f"per-language {report.metric_name}")
    (directory / "plot.svg").write_text(svg, encoding="utf-8")


def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def svg_bar_chart(labels, values, groups, title="", width=640, height=320) -> str:
    """Self-contained bar chart; blue bars for seen, orange for unseen."""
    pad, axis = 40, 30
    plot_w, plot_h = width - 2 * pad, height - 2 * pad - axis
    vmax = max(max(values, default=0.0), 1e-9)
    n = max(len(values), 1)
    bar_w = plot_w / n * 0.8
    gap = plot_w / n * 0.2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="13">{_svg_escape(title)}</text>',
        f'<line x1="{pad}" y1="{pad + plot_h}" x2="{pad + plot_w}" '
        f'y2="{pad + plot_h}" stroke="black"/>',
    ]
    for i, (label, value, group) in enumerate(zip(labels, values, groups)):
        h = plot_h * max(0.0, value) / vmax
        x = pad + i * (bar_w + gap)
        y = pad + plot_h - h
        color = "#4477aa" if group == "seen" else "#ee7733"
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{h:.2f}" fill="{color}"/>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{pad + plot_h + 14:.2f}" '
                     f'text-anchor="middle" font-size="8">{_svg_escape(label)}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{y - 3:.2f}" '
                     f'text-anchor="middle" font-size="8">{value:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_line_chart(points: dict[str, float], title="", width=640, height=320) -> str:
    """Self-contained line chart over ordered (label, value) pairs."""
    pad = 50
    labels = list(points)
    values = list(points.values())
    vmax = max(max(values, default=0.0), 1e-9)
    vmin = min(min(values, default=0.0), 0.0)
    span = max(vmax - vmin, 1e-9)
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    n = max(len(values) - 1, 1)
    coords = []
    for i, v in enumerate(values):
        x = pad + plot_w * i / n
        y = pad + plot_h * (1.0 - (v - vmin) / span)
        coords.append((x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="13">{_svg_escape(title)}</text>',
    ]
    if len(coords) > 1:
        path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(f'<polyline points="{path}" fill="none" stroke="#4477aa" '
                     'stroke-width="2"/>')
    for (x, y), label, v in zip(coords, labels, values):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#ee7733"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - pad + 16:.2f}" '
                     f'text-anchor="middle" font-size="9">{_svg_escape(label)}</text>')
        parts.append(f'<text x="{x:.2f}" y="{y - 6:.2f}" text-anchor="middle" '
                     f'font-size="8">{v:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
