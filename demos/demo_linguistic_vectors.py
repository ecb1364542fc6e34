"""Loading and querying per-language linguistic feature vectors.

Builds a tiny three-language store from TSV files, then shows lookup,
concatenation order, missing-value masks, and nearest-language queries.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from lingualchemy import FeatureSet, load_uriel_tsv

SYNTAX = """\
lang\tf0\tf1\tf2
nor\t0.8\t0.7\t0.1
swe\t0.8\t0.6\t0.2
tam\t0.1\t--\t0.9
"""

GEO = """\
lang\tf0\tf1
nor\t100\t6400
swe\t0\t6800
tam\t7600\t0
"""

with TemporaryDirectory() as tmp:
    (Path(tmp) / "syntax_knn.tsv").write_text(SYNTAX)
    (Path(tmp) / "geo.tsv").write_text(GEO)
    store = load_uriel_tsv({
        FeatureSet.SYNTAX_KNN: Path(tmp) / "syntax_knn.tsv",
        FeatureSet.GEO: Path(tmp) / "geo.tsv",
    })

print("languages:", list(store.langs))
print("dims:", {fs.value: m.shape[1] for fs, m in store.values.items()})

# geo columns are min-max scaled per dimension; syntax is validated as-is
sets = [FeatureSet.SYNTAX_KNN, FeatureSet.GEO]
values = store.target_matrix(store.langs, sets)
observed = np.concatenate([store.observed[fs] for fs in sets], axis=1)
for lang, row, mask in zip(store.langs, values, observed):
    cells = ", ".join(f"{v:.2f}" if m else "missing" for v, m in zip(row, mask))
    print(f"{lang}: [{cells}]")

# tam's f1 is missing, so the tam<->nor distance uses the observed dims only
print("\nnearest to nor:", store.nearest_languages(
    "nor", sets, k=2))
