"""Generating languages with ground-truth typology and a multilingual corpus.

Shows the family structure in the feature store, how surface text differs
across languages that share label semantics, and the UNK-rate table you get
when the vocabulary only covers the seen languages.
"""

import numpy as np

from lingualchemy import (ALL_FEATURE_SETS, ExperimentConfig,
                          generate_languages, unk_rate)
from lingualchemy.harness import prepare_benchmark

specs, store = generate_languages(12, 4, seed=0)

print("language  family  order  affix  shift")
for s in specs:
    print(f"{s.lang}     {s.family}       {s.order_bucket}      "
          f"{s.affix_rate:.2f}   {s.lexicon_shift:.2f}")

# same-family languages sit closer in the store than cross-family ones
sets = ALL_FEATURE_SETS
d_in = d_out = 0.0
n_in = n_out = 0
fam = {s.lang: s.family for s in specs}
for a in specs:
    for b in specs:
        if a.lang >= b.lang:
            continue
        d = np.linalg.norm(store.get_vector(a.lang, sets).values
                           - store.get_vector(b.lang, sets).values)
        if fam[a.lang] == fam[b.lang]:
            d_in, n_in = d_in + d, n_in + 1
        else:
            d_out, n_out = d_out + d, n_out + 1
print(f"\nmean in-family distance  {d_in / n_in:.3f}")
print(f"mean cross-family distance {d_out / n_out:.3f}")

# one concept, many realizations; the benchmark over the same 12 languages
# builds its vocabulary from the 8 seen languages' train text
bench = prepare_benchmark(ExperimentConfig(n_per_lang=50, gen_seed=0))
corpus, seen = bench.corpus, bench.seen
print("\nthe same label class rendered by three languages:")
for lang in ("syn00", "syn04", "syn08"):
    ex = next(e for e in corpus.examples if e.lang == lang and e.label == 2)
    print(f"  {lang}: {' '.join(ex.tokens)}")

print("\nUNK % with a seen-language vocabulary (unseen languages are syn08+):")
for lang, rate in unk_rate(corpus, corpus.vocab).items():
    marker = " <- unseen" if lang not in seen else ""
    print(f"  {lang}: {rate:5.2f}{marker}")
