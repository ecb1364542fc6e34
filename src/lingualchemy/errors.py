"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so anything user-facing
should raise one of the three roots (or a subclass) rather than a bare
ValueError. Text input is read through :func:`read_text_lines`, so bytes
that are not UTF-8 end in one of them too; every CSV is written through
:func:`write_csv`.
"""

import csv
import io
from pathlib import Path


class ConfigError(Exception):
    """Bad experiment configuration: unknown key, type mismatch, violated invariant."""


class DataError(Exception):
    """Bad input data: malformed TSV, unknown language, empty corpus."""


class NumericError(Exception):
    """Numerical failure: singular system, non-finite loss, undefined statistic."""


class TsvFormatError(DataError):
    """Structural problem in a TSV file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class UnknownLanguageError(DataError):
    """A language code was requested that the store does not contain."""

    def __init__(self, lang):
        super().__init__(f"unknown language: {lang!r}")
        self.lang = lang


def read_text_lines(path, error=DataError) -> list[str]:
    """A UTF-8 text file's lines without their ends, newline-translated as
    ``open`` does; bytes that do not decode raise ``error`` naming the line."""
    raw = Path(path).read_bytes()
    try:
        text = io.StringIO(raw.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line_no}: not UTF-8 text") from None
    return [line.rstrip("\n") for line in text]


def write_csv(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as CSV. A float cell, numpy's included,
    is written as Python's ``repr`` of the float, and None as an empty cell,
    so every number reads back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([float(v) if isinstance(v, float) else v for v in row]
                         for row in rows)
