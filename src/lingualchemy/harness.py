"""Configuration-driven experiment runner and report writer.

Protocols covered: a single seen/unseen generalization run, the cumulative
language-family split, the feature-combination ablation, and the loss
scaling sweep. Every protocol is reproducible row by row: a sweep cell
equals an independent run with the same configuration and seed.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
import os
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .alchemy import (AlchemyModel, AlchemyScale, AlchemyTune, ConstantScaling,
                      ScalingState, TRACE_HEADER, init_alchemy_model,
                      predict_classes, train_loop)
from .autodiff import load_checkpoint, save_checkpoint
from .encoder import EncoderConfig, TokenBatch
from .errors import ConfigError, DataError, read_text_lines, write_csv
from .synthlang import (UNK_ID, Corpus, Example, Vocab, generate_corpus,
                        generate_languages, read_corpus_tsv, tokenize,
                        write_corpus_tsv)
from .uriel import (ALL_FEATURE_SETS, FeatureSet, UrielStore, load_uriel_tsv,
                    write_uriel_tsv)

SCALING_MODES = ("constant", "alchemy_scale", "alchemy_tune")
SWEEP_FACTORS = (0.0, 10.0, 25.0, 50.0, 100.0)
EVAL_BATCH = 64   # examples per forward-only batch in evaluation and alignment

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
    a couple of minutes of training.

    The fields are the config file's keys, in the order it writes them; each
    field's annotation picks how its value is parsed and written
    (``_KINDS``). Every instance is validated, however it was made."""

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
        for key, values in (("seeds", self.seeds), ("seen", self.seen),
                            ("unseen", self.unseen),
                            ("feature_sets", [fs.value for fs in self.feature_sets]),
                            ("categories", [lang for lang, _ in self.categories]),
                            *((f"family group {i + 1}", group)
                              for i, group in enumerate(self.family_groups))):
            repeated = sorted({str(v) for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} repeats {', '.join(repeated)}")
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
        if self.scaling not in SCALING_MODES:
            raise ConfigError(f"scaling must be one of {SCALING_MODES}, "
                              f"got {self.scaling!r}")
        if not self.feature_sets:
            raise ConfigError("feature_sets must be nonempty")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ConfigError("seeds must be >= 0")
        if not 0 < self.lr < math.inf:  # also rejects nan
            raise ConfigError("lr must be finite and > 0")
        for key in ("factor", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0")
        for key, bound in (("gen_seed", 0), ("threads", 0), ("epochs", 0),
                           ("n_layers", 1),
                           ("batch_size", 1), ("n_langs", 1), ("n_families", 1),
                           ("n_per_lang", 1), ("n_classes", 2)):
            if not getattr(self, key) >= bound:  # also rejects nan
                raise ConfigError(f"{key} must be >= {bound}")
        if not self.corpus and self.n_langs < self.n_families:
            raise ConfigError(f"n_langs must be >= n_families ({self.n_families}) "
                              "to generate one language per family")
        try:
            _encoder_config(self, vocab_size=1, seed=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _items(raw: str) -> list[str]:
    return [v.strip() for v in raw.split(",") if v.strip()]


def _parse_sets(raw: str) -> tuple[FeatureSet, ...]:
    out = []
    for name in _items(raw):
        try:
            out.append(FeatureSet(name))
        except ValueError:
            raise ConfigError(
                f"unknown feature set {name!r} "
                f"(choose from {', '.join(f.value for f in FeatureSet)})") from None
    return tuple(out)


def _parse_groups(raw: str) -> tuple[tuple[str, ...], ...]:
    groups = (tuple(_items(chunk)) for chunk in raw.split("|"))
    return tuple(group for group in groups if group)


def _parse_pairs(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in _items(raw):
        lang, _, tag = chunk.partition(":")
        if not tag:
            raise ConfigError(f"category {chunk!r} must look like lang:tag")
        pairs.append((lang.strip(), tag.strip()))
    return tuple(pairs)


# Each annotation that ExperimentConfig uses, as (the name a bad value's
# error says was expected, parser of the file text, formatter back to it).
_KINDS = {
    "str": ("str", str, str),
    "int": ("int", int, str),
    "float": ("float", float, repr),
    "tuple[int, ...]": ("ints", lambda raw: tuple(int(v) for v in _items(raw)),
                        lambda v: ",".join(str(s) for s in v)),
    "tuple[str, ...]": ("langs", lambda raw: tuple(_items(raw)), ",".join),
    "tuple[FeatureSet, ...]": ("sets", _parse_sets,
                               lambda v: ",".join(fs.value for fs in v)),
    "tuple[tuple[str, ...], ...]": ("groups", _parse_groups,
                                    lambda v: " | ".join(",".join(g) for g in v)),
    "tuple[tuple[str, str], ...]": ("pairs", _parse_pairs,
                                    lambda v: ",".join(f"{l}:{t}" for l, t in v)),
}
_FIELD_KINDS = {f.name: _KINDS[f.type] for f in fields(ExperimentConfig)}

# The section header that config files write before the key opening it.
_SECTIONS = {"scaling": "scaling", "epochs": "training",
             "d_model": "model", "seen": "languages", "n_langs": "generate",
             "store_dir": "paths"}


def _parse_value(key: str, raw: str, line_no: int):
    expected, parse, _ = _FIELD_KINDS[key]
    try:
        return parse(raw)
    except ConfigError as exc:
        raise ConfigError(f"line {line_no}: {exc}") from None
    except ValueError:
        raise ConfigError(f"line {line_no}: bad value {raw!r} for key "
                          f"{key!r} (expected {expected})") from None


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
        if key not in _FIELD_KINDS:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in seen_keys:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r} "
                              f"(first set on line {seen_keys[key]})")
        seen_keys[key] = line_no
        values[key] = _parse_value(key, value.strip(), line_no)
    return ExperimentConfig(**values)


def config_items(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Every key with its value as a config file writes it, in file order."""
    return [(key, fmt(getattr(cfg, key)))
            for key, (_, _, fmt) in _FIELD_KINDS.items()]


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; reparsing it reproduces the config exactly."""
    lines = []
    for key, text in config_items(cfg):
        if key in _SECTIONS:
            lines.append(f"[{_SECTIONS[key]}]")
        lines.append(f"{key} = {text}")
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


@dataclass
class MetricsReport:
    rows: tuple[tuple[str, str, float], ...]      # (lang, split_tag, value)
    aggregates: dict[str, float]
    trace: list[list]
    config_hash: str
    seed: int
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# benchmark assembly
# ---------------------------------------------------------------------------

@dataclass
class Benchmark:
    store: UrielStore
    corpus: Corpus
    seen: tuple[str, ...]
    unseen: tuple[str, ...]


def _default_split(langs: list[str], n_families: int):
    """First two round-robin members of each family are seen, rest unseen."""
    cut = min(len(langs), 2 * n_families)
    return tuple(langs[:cut]), tuple(langs[cut:])


def prepare_benchmark(cfg: ExperimentConfig) -> Benchmark:
    """Load user-supplied files or generate the synthetic default.

    Both kinds of data then take one path: labels are checked, the default
    split applies, every listed language must be in the corpus and the
    store, and the vocabulary is built from the seen languages' train text.
    """
    if bool(cfg.corpus) != bool(cfg.store_dir):
        raise ConfigError("store_dir and corpus must be supplied together")
    if cfg.corpus and not cfg.seen:
        raise ConfigError("seen languages must be listed when using your own corpus")
    if cfg.corpus:
        examples = read_corpus_tsv(cfg.corpus, split_seed=cfg.gen_seed)
        store = load_uriel_tsv({fs: Path(cfg.store_dir) / f"{fs.value}.tsv"
                                for fs in cfg.feature_sets})
    else:
        specs, store = generate_languages(cfg.n_langs, cfg.n_families, cfg.gen_seed)
        examples = generate_corpus(specs, cfg.n_per_lang, cfg.n_classes, cfg.gen_seed)
    bad = [e for e in examples if not 0 <= e.label < cfg.n_classes]
    if bad:
        raise DataError(f"{cfg.corpus}: language {bad[0].lang} has class label "
                        f"{bad[0].label}, outside 0..{cfg.n_classes - 1}")
    # generated codes are zero-padded, so sorting keeps their spec order
    langs = sorted({e.lang for e in examples})
    seen, unseen = cfg.seen, cfg.unseen
    if not seen:
        default_seen, default_unseen = _default_split(langs, cfg.n_families)
        seen = tuple(l for l in default_seen if l not in unseen)
        unseen = unseen or default_unseen
        if not seen:
            raise ConfigError("the unseen languages leave no language of the "
                              "default seen split; list the seen languages")
    missing = sorted((set(seen) | set(unseen)) - set(langs))
    if missing:
        raise DataError(f"languages not present in the data: {', '.join(missing)}")
    absent = sorted((set(seen) | set(unseen)) - set(store.langs))
    if absent:
        raise DataError(f"languages missing from the store: {', '.join(absent)}")
    vocab = Vocab.build(e.tokens for e in examples
                        if e.split == "train" and e.lang in set(seen))
    return Benchmark(store=store, corpus=Corpus(examples=examples, vocab=vocab),
                     seen=tuple(seen), unseen=tuple(unseen))


# A benchmark's data files, as ``write_benchmark`` writes them.
STORE_NAME, CORPUS_NAME, VOCAB_NAME = "store", "corpus.tsv", "vocab.tsv"


def write_benchmark(bench: Benchmark, directory) -> list[str]:
    """Write ``bench``'s data under ``directory`` and return what was written:
    the feature store (``STORE_NAME``), every example in order with its split
    (``CORPUS_NAME``) and the vocabulary (``VOCAB_NAME``). ``load_run`` reads
    them back."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_uriel_tsv(bench.store, directory / STORE_NAME)
    write_corpus_tsv(bench.corpus.examples, directory / CORPUS_NAME)
    bench.corpus.vocab.save(directory / VOCAB_NAME)
    return [f"{STORE_NAME}/", CORPUS_NAME, VOCAB_NAME]


def make_token_batch(examples: list[Example], vocab: Vocab,
                     max_seq_len: int) -> TokenBatch:
    """Pad ``examples`` into one batch of CLS-prefixed ids, cut at ``max_seq_len``.

    Padding and every ``<unk>`` position are masked: the encoder drops them
    as attention keys, so they reach no sentence representation. The
    vocabulary is built from the seen languages' training text, so no
    training batch holds ``<unk>`` and its embedding row never gets a
    gradient; unmasked, it would feed one untrained random vector into
    every sentence with out-of-vocabulary tokens. CLS is never masked.
    """
    id_lists = [tokenize(vocab, e.tokens)[:max_seq_len] for e in examples]
    width = max(len(ids) for ids in id_lists)
    ids = np.zeros((len(examples), width), dtype=np.int64)
    mask = np.zeros((len(examples), width), dtype=bool)
    for i, row in enumerate(id_lists):
        ids[i, :len(row)] = row
        mask[i, :len(row)] = True
    mask &= ids != UNK_ID
    return TokenBatch(ids=ids, attention_mask=mask,
                      langs=tuple(e.lang for e in examples),
                      labels=np.array([e.label for e in examples], dtype=np.int64))


def cached_batches(examples: list[Example], vocab: Vocab, max_seq_len: int):
    """``batches_fn`` for ``train_loop``: ``examples`` are tokenized and
    padded once, and each call slices out the rows of its indices, cut to
    the width of their longest row. The result equals
    ``make_token_batch([examples[i] for i in indices], ...)``.
    """
    padded = make_token_batch(examples, vocab, max_seq_len)
    widths = np.array([min(1 + len(e.tokens), max_seq_len) for e in examples])

    def batch(indices):
        width = widths[indices].max()
        return TokenBatch(ids=padded.ids[indices, :width],
                          attention_mask=padded.attention_mask[indices, :width],
                          langs=tuple(padded.langs[i] for i in indices),
                          labels=padded.labels[indices])

    return batch


def _encoder_config(cfg: ExperimentConfig, vocab_size: int, seed: int) -> EncoderConfig:
    return EncoderConfig(vocab_size=vocab_size, d_model=cfg.d_model,
                         n_heads=cfg.n_heads, n_layers=cfg.n_layers,
                         max_seq_len=cfg.max_seq_len, seed=seed)


def build_model(cfg: ExperimentConfig, vocab_size: int, d_uriel: int,
                seed: int) -> AlchemyModel:
    """The untrained model that a run of ``cfg`` with ``seed`` starts from."""
    return init_alchemy_model(_encoder_config(cfg, vocab_size, seed),
                              n_outputs=cfg.n_classes, d_uriel=d_uriel)


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
    report.csv, trace.csv and plot.svg (``export_report``), config.resolved,
    which reruns this seed alone, a checkpoint, and the data the run trained
    and evaluated on (``write_benchmark``). ``load_run`` reads it back.
    Partial outputs are removed if the run fails.
    """
    seed = cfg.seeds[0] if seed is None else seed
    bench = benchmark if benchmark is not None else prepare_benchmark(cfg)
    resolved = replace(cfg, seen=bench.seen, unseen=bench.unseen, seeds=(seed,))

    t0 = time.perf_counter()
    train_corpus = bench.corpus.for_langs(bench.seen).subset("train")
    if not train_corpus.examples:
        raise DataError("no training examples for the seen languages")
    model = build_model(cfg, len(bench.corpus.vocab),
                        bench.store.vector_dim(cfg.feature_sets), seed)
    scaling = _make_scaling(cfg)

    train_examples = train_corpus.examples
    batches_fn = cached_batches(train_examples, bench.corpus.vocab, cfg.max_seq_len)
    model, trace_rows = train_loop(
        model, batches_fn, len(train_examples), bench.store, cfg.feature_sets,
        scaling, epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        seed=seed, weight_decay=cfg.weight_decay)

    rows = evaluate_languages(model, bench, cfg)
    aggregates = _aggregate(rows, dict(cfg.categories))
    report = MetricsReport(
        rows=tuple(rows), aggregates=aggregates, trace=trace_rows,
        config_hash=config_hash(resolved), seed=seed,
        wall_time=time.perf_counter() - t0)

    if persist:
        run_dir = Path(run_dir) if run_dir else Path(cfg.out_dir) / f"run_seed{seed}"
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            export_report(report, run_dir)
            (run_dir / "config.resolved").write_text(serialize_config(resolved),
                                                     encoding="utf-8")
            write_benchmark(bench, run_dir)
            save_checkpoint(run_dir / "checkpoint.lalc", model.named_parameters())
        except BaseException:
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
    return report


def load_run(run_dir) -> tuple[ExperimentConfig, Benchmark, AlchemyModel]:
    """The config (its config.resolved), benchmark and trained model of a
    directory that ``run_experiment`` persisted; the checkpoint must hold
    every parameter, in its shape, and nothing else.

    The benchmark is the run's own ``write_benchmark`` files: corpus and
    store read as user data (``prepare_benchmark``'s label and language
    checks included), on the saved vocabulary. The config's ``corpus`` and
    ``store_dir`` are not read, and nothing is regenerated. A directory
    without its corpus file raises ``OSError``.
    """
    run_dir = Path(run_dir)
    cfg = parse_config(run_dir / "config.resolved")
    bench = prepare_benchmark(replace(cfg, corpus=str(run_dir / CORPUS_NAME),
                                      store_dir=str(run_dir / STORE_NAME)))
    vocab = Vocab.load(run_dir / VOCAB_NAME)
    model = build_model(cfg, len(vocab), bench.store.vector_dim(cfg.feature_sets),
                        cfg.seeds[0])
    weights = load_checkpoint(run_dir / "checkpoint.lalc")
    named = model.named_parameters()
    extra = sorted(set(weights) - {name for name, _ in named})
    if extra:
        raise DataError(f"checkpoint holds tensors the model lacks: "
                        f"{', '.join(extra)}")
    for name, tensor in named:
        if name not in weights:
            raise DataError(f"checkpoint is missing parameter {name!r}")
        if weights[name].shape != tensor.data.shape:
            raise DataError(f"checkpoint parameter {name!r} has shape "
                            f"{weights[name].shape}, expected {tensor.data.shape}")
        tensor.data = weights[name].astype(np.float64)
    return cfg, replace(bench, corpus=replace(bench.corpus, vocab=vocab)), model


def evaluate_languages(model, bench: Benchmark,
                       cfg: ExperimentConfig) -> list[tuple[str, str, float]]:
    """``(lang, split_tag, accuracy)`` on the test split of each seen, then
    unseen, language of ``bench`` that has test examples."""
    rows = []
    for split_tag, langs in (("seen", bench.seen), ("unseen", bench.unseen)):
        for lang in langs:
            subset = bench.corpus.for_langs([lang]).subset("test")
            if subset.examples:
                rows.append((lang, split_tag, _evaluate(model, subset, cfg)))
    return rows


def eval_batches(corpus: Corpus, cfg: ExperimentConfig) -> list[TokenBatch]:
    """``corpus`` in order, as forward-only batches of ``EVAL_BATCH``."""
    examples = corpus.examples
    return [make_token_batch(examples[i:i + EVAL_BATCH], corpus.vocab,
                             cfg.max_seq_len)
            for i in range(0, len(examples), EVAL_BATCH)]


def _evaluate(model, corpus: Corpus, cfg: ExperimentConfig) -> float:
    preds: list = []
    for batch in eval_batches(corpus, cfg):
        preds.extend(predict_classes(model, batch).tolist())
    return accuracy(preds, [e.label for e in corpus.examples])


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


def family_split_experiment(cfg: ExperimentConfig) -> list[list[MetricsReport]]:
    """For each seed of ``cfg``, one report per cumulative training group,
    all on a fixed unseen evaluation set.

    Each group's benchmark (its own seen languages, so its own vocabulary) is
    built once; the (seed, group) runs are cells of one sweep pool, seed-major."""
    if not cfg.family_groups:
        raise ConfigError("family_groups must be set for the family experiment")
    if not cfg.unseen:
        raise ConfigError("unseen languages must be set for the family experiment")
    groups = [replace(cfg, seen=tuple(group), family_groups=())
              for group in cfg.family_groups]
    benches = [_sweep_benchmark(gcfg) for gcfg in groups]
    reports = _run_cells(cfg, benches, [(gcfg, seed, i) for seed in cfg.seeds
                                        for i, gcfg in enumerate(groups)])
    n = len(groups)
    return [reports[i:i + n] for i in range(0, len(reports), n)]


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


def _run_cell(job, benches: list[Benchmark]) -> MetricsReport:
    """The report of a ``(cfg, seed, i)`` job, run on ``benches[i]``, without
    its trace: every caller reads the rows and aggregates alone."""
    vcfg, seed, i = job
    report = run_experiment(vcfg, seed=seed, persist=False, benchmark=benches[i])
    return replace(report, trace=[])


# A pool worker's benchmarks, set once per worker rather than sent with every
# cell: under ``fork`` the workers inherit them and they are never pickled.
_worker_benchmarks: list[Benchmark] = []


def _set_worker_benchmarks(benches: list[Benchmark]) -> None:
    global _worker_benchmarks
    _worker_benchmarks = benches
    _pin_blas_to_one_thread()


# OpenBLAS's thread-count setter, by the names its builds export it under.
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_to_one_thread() -> None:
    """Run the OpenBLAS bundled with numpy on one thread in this process, so a
    pool of ``width`` workers runs ``width`` BLAS threads, not ``width`` times
    the default. Does nothing where numpy bundles no OpenBLAS."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(1)
                return


def _run_worker_cell(job) -> MetricsReport:
    return _run_cell(job, _worker_benchmarks)


def _pool_width(cfg: ExperimentConfig, n_jobs: int) -> int:
    width = cfg.threads if cfg.threads > 0 else (os.cpu_count() or 1)
    return max(1, min(width, n_jobs))


def _with_progress(reports, n: int) -> list[MetricsReport]:
    """``reports`` as a list, with one stderr line as each one arrives."""
    out = []
    for i, report in enumerate(reports, start=1):
        print(f"sweep cell {i}/{n}: unseen mean "
              f"{report.aggregates['unseen_mean']:.4f}", file=sys.stderr, flush=True)
        out.append(report)
    return out


def _run_cells(cfg: ExperimentConfig, benches: list[Benchmark],
               jobs: list) -> list[MetricsReport]:
    """Reports of the ``(cfg, seed, i)`` jobs, each run on ``benches[i]``, on
    a pool ``_pool_width`` wide; each finished cell writes a progress line
    to stderr, in job order."""
    width = _pool_width(cfg, len(jobs))
    if width == 1:
        return _with_progress((_run_cell(job, benches) for job in jobs), len(jobs))
    with ProcessPoolExecutor(max_workers=width, initializer=_set_worker_benchmarks,
                             initargs=(benches,)) as pool:
        return _with_progress(pool.map(_run_worker_cell, jobs), len(jobs))


def _sweep_benchmark(cfg: ExperimentConfig) -> Benchmark:
    """The benchmark that cells of ``cfg`` train and evaluate on. Its unseen
    languages must have test examples for a cell to take their mean."""
    bench = prepare_benchmark(cfg)
    if not bench.unseen:
        raise ConfigError("sweeps compare unseen-language means; configure "
                          "unseen languages (or generate enough languages "
                          "for the default split to leave some unseen)")
    if not bench.corpus.for_langs(bench.unseen).subset("test").examples:
        raise DataError("no test examples for the unseen languages: "
                        + ", ".join(bench.unseen))
    return bench


def _sweep(cfg: ExperimentConfig, bench: Benchmark, variants) -> list[SweepRow]:
    """One row per ``(label, variant config, recommended)``, each variant run
    on every seed of ``cfg``, all cells on ``bench``."""
    jobs = [(vcfg, seed, 0) for _, vcfg, _ in variants for seed in cfg.seeds]
    values = [r.aggregates["unseen_mean"] for r in _run_cells(cfg, [bench], jobs)]
    n = len(cfg.seeds)
    return [SweepRow(label=label, recommended=recommended,
                     per_seed=tuple(zip(cfg.seeds, values[i * n:(i + 1) * n])))
            for i, (label, _, recommended) in enumerate(variants)]


def scaling_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Constant factors plus both dynamic modes, all on the same seeds."""
    variants = [(f"{factor:g}x", replace(cfg, scaling="constant", factor=factor),
                 False) for factor in SWEEP_FACTORS]
    variants.append(("AlchemyScale", replace(cfg, scaling="alchemy_scale"), False))
    variants.append(("AlchemyTune", replace(cfg, scaling="alchemy_tune"), False))
    return _sweep(cfg, _sweep_benchmark(cfg), variants)


def ablation_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """All seven nonempty feature-set combinations on the same seeds."""
    # one store holding every feature set serves all seven combinations
    bench = _sweep_benchmark(replace(cfg, feature_sets=ALL_FEATURE_SETS))
    combos = [combo for size in range(1, len(ALL_FEATURE_SETS) + 1)
              for combo in itertools.combinations(ALL_FEATURE_SETS, size)]
    return _sweep(cfg, bench, [(feature_combo_label(combo),
                                replace(cfg, feature_sets=combo),
                                len(combo) == len(ALL_FEATURE_SETS))
                               for combo in combos])


def export_sweep(rows: list[SweepRow], path) -> None:
    seeds = [s for s, _ in rows[0].per_seed]
    write_csv(path, ["row", "recommended", "unseen_mean"]
              + [f"seed{s}" for s in seeds],
              [[row.label, str(row.recommended).lower(), row.mean]
               + [v for _, v in row.per_seed] for row in rows])


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------

def export_report(report: MetricsReport, directory) -> None:
    """Write report.csv, trace.csv and plot.svg.

    Output bytes are a pure function of the report, so re-exporting an
    identical report reproduces identical files.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_csv(directory / "report.csv", ["lang", "split", "metric", "value"],
              [[lang, split_tag, "accuracy", value]
               for lang, split_tag, value in report.rows])
    write_csv(directory / "trace.csv", TRACE_HEADER, report.trace)
    svg = svg_bar_chart([lang for lang, _, _ in report.rows],
                        [v for _, _, v in report.rows],
                        [t == "unseen" for _, t, _ in report.rows],
                        "per-language accuracy")
    (directory / "plot.svg").write_text(svg, encoding="utf-8")


def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


SVG_WIDTH, SVG_HEIGHT = 640, 320   # pixel size of every chart
LABEL_CHAR_W = 4.4   # estimated width of one label glyph: 0.55 em at font-size 8


def svg_bar_chart(labels, values, highlighted, title) -> str:
    """Self-contained bar chart: one bar per value, orange where
    ``highlighted`` is true and blue elsewhere. If any label is estimated
    wider than its bar's slot, odd bars' labels sit one row lower."""
    pad, axis = 40, 30
    plot_w, plot_h = SVG_WIDTH - 2 * pad, SVG_HEIGHT - 2 * pad - axis
    vmax = max(max(values, default=0.0), 1e-9)
    n = max(len(values), 1)
    stagger = any(LABEL_CHAR_W * len(label) > plot_w / n for label in labels)
    bar_w = plot_w / n * 0.8
    gap = plot_w / n * 0.2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
             f'height="{SVG_HEIGHT}">',
             f'<text x="{SVG_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
             f'font-size="13">{_svg_escape(title)}</text>',
             f'<line x1="{pad}" y1="{pad + plot_h}" x2="{pad + plot_w}" '
             f'y2="{pad + plot_h}" stroke="black"/>']
    for i, (label, value, orange) in enumerate(zip(labels, values, highlighted)):
        h = plot_h * max(0.0, value) / vmax
        x = pad + i * (bar_w + gap)
        y = pad + plot_h - h
        color = "#ee7733" if orange else "#4477aa"
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{h:.2f}" fill="{color}"/>')
        label_y = pad + plot_h + (26 if stagger and i % 2 else 14)
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{label_y:.2f}" '
                     f'text-anchor="middle" font-size="8">{_svg_escape(label)}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{y - 3:.2f}" '
                     f'text-anchor="middle" font-size="8">{value:.3f}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"
