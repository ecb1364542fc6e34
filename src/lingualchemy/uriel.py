"""Per-language linguistic feature vectors: loading, validation, lookup.

Three feature sets are supported: syntax_knn, syntax_average, geo.
Syntax values are typological indicators already on a unit scale and are
validated, not rescaled. Geo values are raw distances and get min-max
normalized per dimension at load time. Each feature set is one read-only
languages × features matrix. A missing cell ("--") is imputed to 0.0, so
every vector keeps its width and the loss pulls toward 0.0 there; an
observation mask of the same shape records which cells the file gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, TsvFormatError, UnknownLanguageError, read_text_lines

MISSING = "--"


class FeatureSet(Enum):
    """The three feature tables a language vector can be built from."""

    SYNTAX_KNN = "syntax_knn"
    SYNTAX_AVERAGE = "syntax_average"
    GEO = "geo"


#: Combination used by default throughout the harness: all three sets.
ALL_FEATURE_SETS = (FeatureSet.SYNTAX_KNN, FeatureSet.SYNTAX_AVERAGE, FeatureSet.GEO)


def _read_rows(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Parse one feature TSV into {lang: (values, mask)}."""
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
    return rows


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class UrielStore:
    """A languages × features table per feature set.

    Row ``i`` of ``values[fs]`` is the normalized vector of ``langs[i]``, with
    every unobserved cell 0.0; ``observed[fs]`` marks the cells its file gave.
    Both matrices are read-only.
    """

    langs: tuple[str, ...]
    values: dict[FeatureSet, np.ndarray]
    observed: dict[FeatureSet, np.ndarray]
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._rows = {lang: i for i, lang in enumerate(self.langs)}

    @classmethod
    def from_raw_tables(
        cls, raw: Mapping[FeatureSet, Mapping[str, tuple[np.ndarray, np.ndarray]]],
    ) -> "UrielStore":
        """Build a store from parsed tables: inner join, normalize, validate."""
        if not raw:
            raise DataError("no feature tables supplied")
        common = sorted(set.intersection(*(set(rows) for rows in raw.values())))
        if not common:
            raise DataError("no language present in every feature file")
        values, observed = {}, {}
        for fs, rows in raw.items():
            mat = np.stack([rows[lang][0] for lang in common])
            mask = np.stack([rows[lang][1] for lang in common])
            if fs is FeatureSet.GEO:
                mat = _normalize_geo(mat, mask)
            elif mask.any() and (mat[mask].min() < 0.0 or mat[mask].max() > 1.0):
                raise DataError(
                    f"{fs.value}: observed values outside [0, 1]; "
                    "syntax features are expected on a unit scale"
                )
            values[fs] = _freeze(np.where(mask, mat, 0.0))
            observed[fs] = _freeze(mask)
        return cls(langs=tuple(common), values=values, observed=observed)

    # -- queries ---------------------------------------------------------

    def _gather(self, tables: dict[FeatureSet, np.ndarray], langs: Sequence[str],
                sets: Sequence[FeatureSet]) -> np.ndarray:
        """Rows of ``langs`` from ``tables``, the sets concatenated in order."""
        if not sets:
            raise ValueError("sets must be nonempty")
        if len(set(sets)) != len(sets):
            raise ValueError(f"duplicate feature set in {sets}")
        try:
            rows = [self._rows[lang] for lang in langs]
        except KeyError as exc:
            raise UnknownLanguageError(exc.args[0]) from None
        return np.concatenate([tables[fs][rows] for fs in sets], axis=1)

    def nearest_languages(
        self, lang: str, sets: Sequence[FeatureSet], k: int
    ) -> list[tuple[str, float]]:
        """k nearest other languages by Euclidean distance over jointly
        observed dimensions; ties broken by language code."""
        if k < 1:
            raise ValueError("k must be positive")
        if k >= len(self.langs):
            raise ValueError(f"k={k} must be < number of languages ({len(self.langs)})")
        query = self._gather(self.values, [lang], sets)[0]
        values = self._gather(self.values, self.langs, sets)
        both = (self._gather(self.observed, self.langs, sets)
                & self._gather(self.observed, [lang], sets)[0])
        # the norm of only the jointly observed cells: a zero-filled row would
        # sum in another order and move distances by an ulp
        scored = sorted((float(np.linalg.norm(d[b])), other)
                        for d, b, other in zip(query - values, both, self.langs)
                        if other != lang)
        return [(other, d) for d, other in scored[:k]]

    def vector_dim(self, sets: Sequence[FeatureSet]) -> int:
        return sum(self.values[fs].shape[1] for fs in sets)

    def target_matrix(self, langs: Sequence[str], sets: Sequence[FeatureSet]) -> np.ndarray:
        """One row per entry of ``langs`` (repeats included): the values of
        ``sets`` concatenated, an unobserved cell as its 0.0 imputation."""
        return self._gather(self.values, langs, sets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UrielStore):
            return NotImplemented
        return (self.langs == other.langs and self.values.keys() == other.values.keys()
                and all(np.array_equal(self.values[fs], other.values[fs])
                        and np.array_equal(self.observed[fs], other.observed[fs])
                        for fs in self.values))


def _normalize_geo(mat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Min-max scale each geo column to [0, 1] over its observed cells.

    A constant column, or one with no observed cell, scales to 0.0.
    """
    lo = np.where(mask, mat, np.inf).min(axis=0)
    hi = np.where(mask, mat, -np.inf).max(axis=0)
    varies = hi > lo
    return np.where(varies, (mat - lo) / np.where(varies, hi - lo, 1.0), 0.0)


def load_uriel_tsv(paths: Mapping[FeatureSet, str | Path]) -> UrielStore:
    """Load one TSV per feature set and inner-join them into a store.

    Format per file: header ``lang<TAB>f0<TAB>f1...``, then one row per
    language; ``--`` marks a missing value; ``#`` lines are comments.
    """
    if not paths:
        raise DataError("no feature files supplied")
    return UrielStore.from_raw_tables({fs: _read_rows(Path(p)) for fs, p in paths.items()})


def write_uriel_tsv(store: UrielStore, directory: str | Path) -> dict[FeatureSet, Path]:
    """Write one TSV per feature set; inverse of :func:`load_uriel_tsv`.

    Values are written with repr so a reload reproduces the store exactly
    (normalization is idempotent on already-normalized columns).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for fs, mat in store.values.items():
        path = directory / f"{fs.value}.tsv"
        lines = ["lang\t" + "\t".join(f"f{j}" for j in range(mat.shape[1]))]
        for lang, values, mask in zip(store.langs, mat, store.observed[fs]):
            cells = [repr(float(v)) if m else MISSING for v, m in zip(values, mask)]
            lines.append(lang + "\t" + "\t".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written[fs] = path
    return written
