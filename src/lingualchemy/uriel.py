"""Per-language linguistic feature vectors: loading, validation, lookup.

Three feature sets are supported: syntax_knn, syntax_average, geo.
Syntax values are typological indicators already on a unit scale and are
validated, not rescaled. Geo values are raw distances and get min-max
normalized per dimension at load time. Missing cells ("--") are imputed
to 0.0 and tracked in an explicit observation mask so downstream losses
keep fixed-width vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, TsvFormatError, UnknownLanguageError, read_text_lines

MISSING = "--"


class FeatureSet(Enum):
    """The three feature tables a language vector can be built from."""

    SYNTAX_KNN = "syntax_knn"
    SYNTAX_AVERAGE = "syntax_average"
    GEO = "geo"

    @property
    def is_geo(self) -> bool:
        return self is FeatureSet.GEO


#: Combination used by default throughout the harness: all three sets.
ALL_FEATURE_SETS = (FeatureSet.SYNTAX_KNN, FeatureSet.SYNTAX_AVERAGE, FeatureSet.GEO)


@dataclass(frozen=True)
class LinguisticVector:
    """Concatenated feature values for one language plus observation mask."""

    lang: str
    values: np.ndarray
    mask: np.ndarray
    feature_sets: tuple[FeatureSet, ...]

    def __post_init__(self):
        if len(self.values) != len(self.mask):
            raise ValueError("values and mask must have equal length")

    @property
    def dim(self) -> int:
        return len(self.values)


def _read_rows(path: Path) -> tuple[int, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Parse one feature TSV into (n_dims, {lang: (values, mask)})."""
    rows: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    header_cols = None
    for line_no, line in enumerate(read_text_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cells = line.split("\t")
        if header_cols is None:
            if cells[0] != "lang" or len(cells) < 2:
                raise TsvFormatError(path, line_no, "header must be lang<TAB>f0<TAB>...")
            header_cols = len(cells)
            continue
        if len(cells) != header_cols:
            raise TsvFormatError(
                path, line_no,
                f"expected {header_cols} columns, got {len(cells)}",
            )
        lang = cells[0].strip()
        if not lang or any(ch.isspace() for ch in lang):
            raise TsvFormatError(path, line_no, f"bad language code {cells[0]!r}")
        if lang in rows:
            raise TsvFormatError(path, line_no, f"duplicate language {lang!r}")
        values = np.zeros(header_cols - 1, dtype=np.float64)
        mask = np.ones(header_cols - 1, dtype=bool)
        for j, cell in enumerate(cells[1:]):
            cell = cell.strip()
            if cell == MISSING:
                mask[j] = False
                continue
            try:
                v = float(cell)
            except ValueError:
                raise TsvFormatError(path, line_no, f"non-numeric cell {cell!r}") from None
            if not math.isfinite(v):
                raise TsvFormatError(path, line_no, f"non-finite cell {cell!r}")
            values[j] = v
        rows[lang] = (values, mask)
    if header_cols is None:
        raise TsvFormatError(path, 0, "missing header line")
    if not rows:
        raise DataError(f"{path}: no language rows")
    return header_cols - 1, rows


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class UrielStore:
    """Immutable per-language feature tables, one per feature set.

    ``tables[fs]`` maps language code to an (values, mask) pair whose values
    are already normalized.
    """

    tables: dict[FeatureSet, dict[str, tuple[np.ndarray, np.ndarray]]]
    dims: dict[FeatureSet, int]
    # feature-set tuple -> {lang: vector}, filled by target_matrix
    _targets: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_raw_tables(
        cls,
        raw: Mapping[FeatureSet, tuple[int, Mapping[str, tuple[np.ndarray, np.ndarray]]]],
    ) -> "UrielStore":
        """Build a store from parsed tables: inner join, normalize, validate."""
        if not raw:
            raise DataError("no feature tables supplied")
        lang_sets = [set(rows) for _, rows in raw.values()]
        common = sorted(set.intersection(*lang_sets))
        if not common:
            raise DataError("no language present in every feature file")

        tables: dict[FeatureSet, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
        dims: dict[FeatureSet, int] = {}
        for fs, (dim, rows) in raw.items():
            dims[fs] = dim
            mat = np.stack([rows[lang][0] for lang in common])
            masks = np.stack([rows[lang][1] for lang in common])
            if fs.is_geo:
                mat = _normalize_geo(mat, masks)
            else:
                observed = mat[masks]
                if observed.size and (observed.min() < 0.0 or observed.max() > 1.0):
                    raise DataError(
                        f"{fs.value}: observed values outside [0, 1]; "
                        "syntax features are expected on a unit scale"
                    )
            mat = np.where(masks, mat, 0.0)
            tables[fs] = {
                lang: (_freeze(mat[i].copy()), _freeze(masks[i].copy()))
                for i, lang in enumerate(common)
            }
        return cls(tables=tables, dims=dims)

    # -- queries ---------------------------------------------------------

    def list_languages(self) -> list[str]:
        """All languages in the store, lexicographically sorted."""
        first = next(iter(self.tables.values()))
        return sorted(first)

    def get_vector(self, lang: str, sets: Sequence[FeatureSet]) -> LinguisticVector:
        """Concatenate the requested feature sets, in the given order."""
        sets = tuple(sets)
        if not sets:
            raise ValueError("sets must be nonempty")
        if len(set(sets)) != len(sets):
            raise ValueError(f"duplicate feature set in {sets}")
        values = []
        masks = []
        for fs in sets:
            table = self.tables[fs]
            if lang not in table:
                raise UnknownLanguageError(lang)
            v, m = table[lang]
            values.append(v)
            masks.append(m)
        return LinguisticVector(
            lang=lang,
            values=_freeze(np.concatenate(values)),
            mask=_freeze(np.concatenate(masks)),
            feature_sets=sets,
        )

    def nearest_languages(
        self, lang: str, sets: Sequence[FeatureSet], k: int
    ) -> list[tuple[str, float]]:
        """k nearest other languages by Euclidean distance over jointly
        observed dimensions; ties broken by language code."""
        langs = self.list_languages()
        if k < 1:
            raise ValueError("k must be positive")
        if k >= len(langs):
            raise ValueError(f"k={k} must be < number of languages ({len(langs)})")
        query = self.get_vector(lang, sets)
        scored = []
        for other in langs:
            if other == lang:
                continue
            vec = self.get_vector(other, sets)
            both = query.mask & vec.mask
            d = float(np.linalg.norm(query.values[both] - vec.values[both]))
            scored.append((d, other))
        scored.sort()
        return [(code, d) for d, code in scored[:k]]

    def vector_dim(self, sets: Sequence[FeatureSet]) -> int:
        return sum(self.dims[fs] for fs in sets)

    def target_matrix(self, langs: Sequence[str], sets: Sequence[FeatureSet]) -> np.ndarray:
        """Stack per-language vectors for a batch; rows repeat with languages.

        Each language's vector under one feature-set choice is concatenated
        once per store, since its tables do not change; later batches only
        gather the rows.
        """
        rows = self._targets.setdefault(tuple(sets), {})
        for lang in dict.fromkeys(langs):
            if lang not in rows:
                rows[lang] = self.get_vector(lang, sets).values
        return np.stack([rows[lang] for lang in langs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, UrielStore):
            return NotImplemented
        if set(self.tables) != set(other.tables) or self.dims != other.dims:
            return False
        for fs, table in self.tables.items():
            theirs = other.tables[fs]
            if set(table) != set(theirs):
                return False
            for lang, (v, m) in table.items():
                tv, tm = theirs[lang]
                if not (np.array_equal(v, tv) and np.array_equal(m, tm)):
                    return False
        return True


def _normalize_geo(mat: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Min-max scale each geo column to [0, 1] over its observed values."""
    out = mat.copy()
    for j in range(mat.shape[1]):
        col_mask = masks[:, j]
        if not col_mask.any():
            continue
        observed = mat[col_mask, j]
        lo, hi = float(observed.min()), float(observed.max())
        if hi > lo:
            out[col_mask, j] = (observed - lo) / (hi - lo)
        else:
            out[col_mask, j] = 0.0
    return out


def load_uriel_tsv(paths: Mapping[FeatureSet, str | Path]) -> UrielStore:
    """Load one TSV per feature set and inner-join them into a store.

    Format per file: header ``lang<TAB>f0<TAB>f1...``, then one row per
    language; ``--`` marks a missing value; ``#`` lines are comments.
    """
    if not paths:
        raise DataError("no feature files supplied")
    raw = {fs: _read_rows(Path(p)) for fs, p in paths.items()}
    return UrielStore.from_raw_tables(raw)


def write_uriel_tsv(store: UrielStore, directory: str | Path) -> dict[FeatureSet, Path]:
    """Write one TSV per feature set; inverse of :func:`load_uriel_tsv`.

    Values are written with repr so a reload reproduces the store exactly
    (normalization is idempotent on already-normalized columns).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for fs, table in store.tables.items():
        path = directory / f"{fs.value}.tsv"
        dim = store.dims[fs]
        lines = ["lang\t" + "\t".join(f"f{j}" for j in range(dim))]
        for lang in sorted(table):
            values, mask = table[lang]
            cells = [repr(float(v)) if m else MISSING for v, m in zip(values, mask)]
            lines.append(lang + "\t" + "\t".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written[fs] = path
    return written
