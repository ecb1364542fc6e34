"""Fitting the linear map from sentence representations to language vectors.

Trains a small regularized model, collects its CLS representations over
the corpus, fits the alignment map two ways (ridge closed form and full-batch
gradient descent), and writes the 2-d projection CSV used for plotting.
"""

import tempfile
from pathlib import Path

import numpy as np

from lingualchemy import (ALL_FEATURE_SETS, ClosedForm, ConstantScaling,
                          EncoderConfig, ExperimentConfig, GradientDescent,
                          align_representations, collect_sentence_reps,
                          fit_alignment, init_alchemy_model, train_loop)
from lingualchemy.alignment import export_alignment_pca
from lingualchemy.harness import make_token_batch, prepare_benchmark

# 8 languages in 4 families, all seen
bench = prepare_benchmark(ExperimentConfig(n_langs=8, n_families=4,
                                           n_per_lang=60, gen_seed=1))
corpus, store = bench.corpus, bench.store
train = corpus.subset("train").examples

cfg = EncoderConfig(vocab_size=len(corpus.vocab), d_model=32, n_heads=4, n_layers=2,
                    max_seq_len=32, seed=1)
model = init_alchemy_model(cfg, n_outputs=4,
                           d_uriel=store.vector_dim(ALL_FEATURE_SETS))
scaling = ConstantScaling(10.0)


def batches_fn(indices):
    return make_token_batch([train[i] for i in indices], corpus.vocab,
                            cfg.max_seq_len)


model, trace = train_loop(model, batches_fn, len(train), store,
                          ALL_FEATURE_SETS, scaling, epochs=25, batch_size=32,
                          lr=1e-3, seed=1)
# trace rows: epoch, step, l_cls, l_uriel, ...
print(f"last step: task loss {float(trace[-1][2]):.3f}, "
      f"auxiliary loss {float(trace[-1][3]):.3f}")

batches = [batches_fn(range(i, min(i + 64, len(train))))
           for i in range(0, len(train), 64)]
data = collect_sentence_reps(model, batches, store, ALL_FEATURE_SETS)

closed = fit_alignment(data, ClosedForm())
descended = fit_alignment(data, GradientDescent())
print(f"closed form:      R^2 {closed.r_squared:.4f}, "
      f"residual {closed.residual_mse:.5f}")
print(f"gradient descent: R^2 {descended.r_squared:.4f}, "
      f"residual {descended.residual_mse:.5f}")
# encoder features are collinear, so weights can differ along flat
# directions even when the fits agree; compare predictions instead
pred_gap = np.abs(align_representations(closed, data.reps)
                  - align_representations(descended, data.reps)).mean()
print(f"mean prediction gap between the two fits: {pred_gap:.4f}")

aligned = align_representations(closed, data.reps)
with tempfile.TemporaryDirectory(prefix="lingualchemy_demo_") as tmp:
    pca_path = Path(tmp) / "alignment_pca.csv"
    export_alignment_pca(aligned, data.targets, data.langs, pca_path)
    n_rows = len(pca_path.read_text(encoding="utf-8").splitlines()) - 1
    print(f"wrote {n_rows} rows of (kind,lang,pc1,pc2) for external plotting "
          f"to {pca_path.name}, removed on exit")
