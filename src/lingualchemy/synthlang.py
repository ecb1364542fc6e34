"""Synthetic multilingual corpora with ground-truth linguistic vectors.

Each generated language has a geographic coordinate and a 3-dim syntax
parameter vector (token-order pattern, affix rate, lexicon-shift rate).
Families are clusters in both spaces. The surface text of a sentence is
derived from cross-lingual label concepts, so the labeling task is shared
across languages while the realization differs per language:

* lexicon shift renames a concept stem to a language-unique form,
* affixation appends family-specific suffixes to stems,
* the token-order parameter rearranges content and filler blocks.

Because the feature store is derived from the same parameters, nearness in
vector space corresponds to nearness in surface realization, which is what
makes unseen-language generalization measurable.
"""

from __future__ import annotations

import sys
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TsvFormatError, read_text_lines
from .uriel import FeatureSet, UrielStore

CLS_TOKEN = "<cls>"
UNK_TOKEN = "<unk>"
CLS_ID = 0
UNK_ID = 1
_RESERVED = {CLS_TOKEN: CLS_ID, UNK_TOKEN: UNK_ID}

# Fixed reference points on the unit sphere (lat, lon in radians).
GEO_ANCHORS = (
    (0.0, 0.0),
    (0.9, 1.6),
    (-0.8, -2.4),
    (0.5, -1.0),
    (-0.3, 2.9),
)

SPLITS = ("train", "dev", "test")
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)

_STEMS_PER_CLASS = 6
_N_FILLERS = 12
_AFFIXES_PER_FAMILY = 3


@dataclass(frozen=True)
class SynthLanguageSpec:
    lang: str
    lat: float
    lon: float
    syntax_params: tuple[float, float, float]
    family: int
    geo_features: tuple[float, ...]

    @property
    def order_bucket(self) -> int:
        return min(3, int(self.syntax_params[0] * 4))

    @property
    def affix_rate(self) -> float:
        return self.syntax_params[1]

    @property
    def lexicon_shift(self) -> float:
        # compressed so even shift-heavy languages keep some readable stems
        return 0.9 * self.syntax_params[2]


@dataclass(frozen=True)
class Vocab:
    """Token-to-id map with reserved CLS (0) and UNK (1) slots."""

    token_to_id: dict[str, int]

    @classmethod
    def build(cls, token_iterables) -> "Vocab":
        tokens = set()
        for toks in token_iterables:
            tokens.update(toks)
        tokens.discard(CLS_TOKEN)
        tokens.discard(UNK_TOKEN)
        mapping = dict(_RESERVED)
        for i, tok in enumerate(sorted(tokens), start=2):
            mapping[tok] = i
        return cls(token_to_id=mapping)

    def __len__(self) -> int:
        return len(self.token_to_id)


def tokenize(vocab: Vocab, tokens) -> list[int]:
    """CLS-prefixed id sequence; unknown tokens map to the UNK id."""
    return [CLS_ID] + [vocab.token_to_id.get(t, UNK_ID) for t in tokens]


@dataclass(frozen=True)
class Example:
    lang: str
    label: int
    tokens: tuple[str, ...]
    split: str


@dataclass
class Corpus:
    examples: list[Example]
    vocab: Vocab

    def subset(self, split: str) -> "Corpus":
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        kept = [e for e in self.examples if e.split == split]
        return Corpus(examples=kept, vocab=self.vocab)

    def for_langs(self, langs) -> "Corpus":
        keep = set(langs)
        kept = [e for e in self.examples if e.lang in keep]
        return Corpus(examples=kept, vocab=self.vocab)

    def __len__(self) -> int:
        return len(self.examples)


# ---------------------------------------------------------------------------
# language generation
# ---------------------------------------------------------------------------

def haversine_angle(lat1, lon1, lat2, lon2) -> float:
    """Central angle of the great circle between two points, in radians."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = np.sin(dlat / 2) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2) ** 2
    return float(2.0 * np.arcsin(np.sqrt(min(1.0, h))))


def geo_feature_vector(lat: float, lon: float) -> tuple[float, ...]:
    """Great-circle distances to the fixed anchors, normalized by half the
    circumference (an antipodal point scores exactly 1)."""
    return tuple(haversine_angle(lat, lon, a_lat, a_lon) / np.pi
                 for a_lat, a_lon in GEO_ANCHORS)


def _sample_family_centroids(rng: np.random.Generator, families: int) -> np.ndarray:
    """Syntax-space centroids kept mutually separated (L-inf >= 0.28)."""
    centroids: list[np.ndarray] = []
    for _ in range(families):
        for _attempt in range(4000):
            cand = rng.uniform(0.15, 0.85, size=3)
            if all(np.abs(cand - c).max() >= 0.28 for c in centroids):
                centroids.append(cand)
                break
        else:
            raise DataError(f"could not place {families} separated families")
    return np.stack(centroids)


def lang_code(i: int, total: int) -> str:
    width = max(2, len(str(total - 1)))
    return f"syn{i:0{width}d}"


def generate_languages(g: int, families: int, seed: int
                       ) -> tuple[list[SynthLanguageSpec], UrielStore]:
    """Deterministically generate language specs plus their feature store.

    Families are round-robin assigned, so family ``f`` owns languages
    ``f, f+families, f+2*families, ...``. syntax_knn rows are means of the
    3 nearest languages' parameters; syntax_average rows are the family
    centroid; geo rows are anchored great-circle distances.
    """
    if families < 1 or g < families:
        raise ValueError("need g >= families >= 1")
    rng = np.random.default_rng(seed)
    centroids = _sample_family_centroids(rng, families)
    fam_lat = rng.uniform(-1.1, 1.1, size=families)
    fam_lon = rng.uniform(-np.pi, np.pi, size=families)

    specs: list[SynthLanguageSpec] = []
    for i in range(g):
        fam = i % families
        params = centroids[fam] + rng.uniform(-0.1, 0.1, size=3)
        lat = float(fam_lat[fam] + rng.uniform(-0.15, 0.15))
        lon = float(fam_lon[fam] + rng.uniform(-0.15, 0.15))
        specs.append(SynthLanguageSpec(
            lang=lang_code(i, g),
            lat=lat, lon=lon,
            syntax_params=tuple(round(float(p), 8) for p in params),
            family=fam,
            geo_features=tuple(round(v, 8) for v in geo_feature_vector(lat, lon)),
        ))

    params_matrix = np.array([s.syntax_params for s in specs])
    knn_rows = {}
    for i, spec in enumerate(specs):
        m = min(3, g - 1)
        if m == 0:
            knn_rows[spec.lang] = params_matrix[i]
            continue
        dists = np.linalg.norm(params_matrix - params_matrix[i], axis=1)
        ranked = sorted((float(dists[j]), specs[j].lang, j)
                        for j in range(g) if j != i)
        neighbors = [j for _, _, j in ranked[:m]]
        knn_rows[spec.lang] = params_matrix[neighbors].mean(axis=0)

    def table(rows: dict[str, np.ndarray]):
        return {lang: (np.round(np.asarray(v, dtype=np.float64), 8),
                       np.ones(len(v), dtype=bool))
                for lang, v in rows.items()}

    store = UrielStore.from_raw_tables({
        FeatureSet.SYNTAX_KNN: table(knn_rows),
        FeatureSet.SYNTAX_AVERAGE: table({s.lang: centroids[s.family] for s in specs}),
        FeatureSet.GEO: table({s.lang: np.array(s.geo_features) for s in specs}),
    })
    return specs, store


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

def _class_stems(n_classes: int) -> list[list[str]]:
    return [[f"k{c}_{j}" for j in range(_STEMS_PER_CLASS)] for c in range(n_classes)]


def _fillers() -> list[str]:
    return [f"f_{j}" for j in range(_N_FILLERS)]


def _family_affixes(family: int) -> list[str]:
    return [f"x{family}{j}" for j in range(_AFFIXES_PER_FAMILY)]


def _lang_rng(seed: int, spec: SynthLanguageSpec) -> np.random.Generator:
    # Derived per-language seed keyed on family and parameters, so two
    # parameter-identical languages realize identical surface text.
    quantized = [int(round(p * 1e8)) for p in spec.syntax_params]
    return np.random.default_rng([seed, spec.family] + quantized)


def _build_lexicon(rng: np.random.Generator, spec: SynthLanguageSpec,
                   stems: list[str]) -> dict[str, str]:
    """Per-language surface form of every stem; a shifted stem is unique to
    the language, an unshifted one is shared across all languages."""
    lexicon = {}
    for stem in stems:
        if rng.random() < spec.lexicon_shift:
            lexicon[stem] = f"{stem}~{spec.lang}"
        else:
            lexicon[stem] = stem
    return lexicon


def _realize(rng: np.random.Generator, spec: SynthLanguageSpec,
             lexicon: dict[str, str], affixes: list[str], stem: str) -> str:
    surface = lexicon[stem]
    if rng.random() < spec.affix_rate:
        surface = f"{surface}+{affixes[rng.integers(len(affixes))]}"
    return surface


def _arrange(bucket: int, content: list[str], fillers: list[str]) -> list[str]:
    if bucket == 0:
        return content + fillers
    if bucket == 1:
        return fillers + content
    if bucket == 2:
        out = []
        for i in range(max(len(content), len(fillers))):
            if i < len(content):
                out.append(content[i])
            if i < len(fillers):
                out.append(fillers[i])
        return out
    return list(reversed(content + fillers))


def _sentence(rng, spec, lexicon, affixes, stems: list[str],
              fillers: list[str]) -> list[str]:
    n_content = int(rng.integers(3, 6))
    n_filler = int(rng.integers(3, 7))
    content_ids = rng.choice(len(stems), size=n_content, replace=False)
    filler_ids = rng.choice(len(fillers), size=n_filler, replace=False)
    content = [_realize(rng, spec, lexicon, affixes, stems[i]) for i in content_ids]
    filler = [_realize(rng, spec, lexicon, affixes, fillers[i]) for i in filler_ids]
    return _arrange(spec.order_bucket, content, filler)


def _stratified_labels(rng, n: int, n_classes: int) -> list[int]:
    labels = [i % n_classes for i in range(n)]
    rng.shuffle(labels)
    return labels


def _assign_splits(rng, keys: list) -> list[str]:
    """Proportional split assignment within each distinct key (label)."""
    order = {}
    by_key: dict = {}
    for i, k in enumerate(keys):
        by_key.setdefault(k, []).append(i)
    for idxs in by_key.values():
        idxs = list(idxs)
        rng.shuffle(idxs)
        n = len(idxs)
        n_train = max(1, round(SPLIT_FRACTIONS[0] * n))
        n_dev = max(1, round(SPLIT_FRACTIONS[1] * n)) if n > 2 else 0
        for pos, i in enumerate(idxs):
            if pos < n_train:
                order[i] = "train"
            elif pos < n_train + n_dev:
                order[i] = "dev"
            else:
                order[i] = "test"
    return [order[i] for i in range(len(keys))]


def generate_corpus(specs, n_per_lang: int, n_classes: int,
                    seed: int) -> list[Example]:
    """Generate a deterministic multilingual corpus over the given languages.

    Examples come grouped by language in ``specs`` order, with their splits;
    labels are stratified within each language to +/-1. The vocabulary is
    the benchmark's to build (``harness.prepare_benchmark``).
    """
    if n_per_lang < 1:
        raise ValueError("n_per_lang must be positive")
    if n_classes < 2:
        raise ValueError("need at least 2 classes")

    stems_by_class = _class_stems(n_classes)
    all_stems = [s for group in stems_by_class for s in group] + _fillers()
    fillers = _fillers()

    examples: list[Example] = []
    for spec in specs:
        rng = _lang_rng(seed, spec)
        lexicon = _build_lexicon(rng, spec, all_stems)
        affixes = _family_affixes(spec.family)
        labels = _stratified_labels(rng, n_per_lang, n_classes)
        rows = []
        for label in labels:
            toks = _sentence(rng, spec, lexicon, affixes,
                             stems_by_class[label], fillers)
            rows.append((label, tuple(toks)))
        splits = _assign_splits(rng, labels)
        for (label, toks), split in zip(rows, splits):
            examples.append(Example(lang=spec.lang, label=label,
                                    tokens=toks, split=split))
    return examples


# ---------------------------------------------------------------------------
# statistics and I/O
# ---------------------------------------------------------------------------

def unk_rate(corpus: Corpus, vocab: Vocab) -> dict[str, float]:
    """Percentage of non-CLS tokens mapping to UNK, per language, 2 decimals."""
    unk: dict[str, int] = {}
    total: dict[str, int] = {}
    for e in corpus.examples:
        total[e.lang] = total.get(e.lang, 0) + len(e.tokens)
        unk[e.lang] = unk.get(e.lang, 0) + sum(
            1 for t in e.tokens if t not in vocab.token_to_id)
    rates = {}
    for lang in sorted(total):
        if total[lang] == 0:
            warnings.warn(f"language {lang} has no tokens; excluded from UNK rates")
            continue
        rates[lang] = round(100.0 * unk[lang] / total[lang], 2)
    return rates


def write_corpus_tsv(examples: list[Example], path) -> None:
    """One ``lang<TAB>label<TAB>tokens<TAB>split`` line per example, in order;
    :func:`read_corpus_tsv` reads it back."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in examples:
            fh.write(f"{e.lang}\t{e.label}\t{' '.join(e.tokens)}\t{e.split}\n")


def read_corpus_tsv(path, split_seed: int = 0) -> list[Example]:
    """Generic ingester: ``lang<TAB>label<TAB>space-joined tokens`` per line,
    the label an integer class index, optionally followed by ``<TAB>split``
    (one of ``SPLITS``); every row has the same number of cells.

    Examples come grouped by language, languages sorted, each in file order.
    A file with a split column keeps its splits. Otherwise split assignment
    is deterministic per language and stratified by label, mirroring the
    synthetic generator. Equal tokens share one string object.
    """
    raw: list[tuple[str, int, tuple[str, ...], str | None]] = []
    width = None
    for line_no, line in enumerate(read_text_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        width = width or len(cells)
        if len(cells) != width or width not in (3, 4):
            expected = width if width in (3, 4) else "3 or 4"
            raise TsvFormatError(path, line_no,
                                 f"expected {expected} columns, got {len(cells)}")
        lang, label_s, text, *split = cells
        try:
            label = int(label_s)
        except ValueError:
            raise TsvFormatError(path, line_no, f"bad label {label_s!r}") from None
        if split and split[0] not in SPLITS:
            raise TsvFormatError(path, line_no, f"split {split[0]!r} is not one "
                                 f"of {', '.join(SPLITS)}")
        raw.append((sys.intern(lang), label, tuple(map(sys.intern, text.split())),
                    sys.intern(split[0]) if split else None))
    if not raw:
        raise DataError(f"{path}: empty corpus")

    examples: list[Example] = []
    for lang in sorted({r[0] for r in raw}):
        rows = [r for r in raw if r[0] == lang]
        if width == 3:
            rng = np.random.default_rng([split_seed, zlib.crc32(lang.encode("utf-8"))])
            splits = _assign_splits(rng, [r[1] for r in rows])
        else:
            splits = [r[3] for r in rows]
        for (l, label, toks, _), split in zip(rows, splits):
            examples.append(Example(lang=l, label=label, tokens=toks, split=split))
    return examples
