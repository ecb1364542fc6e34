"""The three ways to weight the auxiliary loss, traced over training.

Constant weighting needs a hand-picked factor; the EMA-based schedule
rebalances the two terms automatically; the trainable variant learns its
weights under a drift penalty on their sum.
"""

from lingualchemy import (ALL_FEATURE_SETS, AlchemyScale, AlchemyTune,
                          ConstantScaling, EncoderConfig, ExperimentConfig,
                          init_alchemy_model, train_loop)
from lingualchemy.harness import cached_batches, prepare_benchmark

# 8 languages in 4 families, all seen
bench = prepare_benchmark(ExperimentConfig(n_langs=8, n_families=4,
                                           n_per_lang=60, gen_seed=0))
corpus, store = bench.corpus, bench.store
train = corpus.subset("train").examples

for scaling in (ConstantScaling(10.0), AlchemyScale(), AlchemyTune()):
    cfg = EncoderConfig(vocab_size=len(corpus.vocab), d_model=32, n_heads=4,
                        n_layers=2, max_seq_len=32, seed=0)
    model = init_alchemy_model(cfg, n_outputs=4,
                               d_uriel=store.vector_dim(ALL_FEATURE_SETS))
    _, trace = train_loop(model, cached_batches(train, corpus.vocab, cfg.max_seq_len),
                          len(train), store, ALL_FEATURE_SETS, scaling, epochs=4,
                          batch_size=32, lr=1e-3, seed=0)
    print(f"\n{type(scaling).__name__}")
    for _, step, l_cls, l_uriel, lam_cls, lam_uriel, mini, total in trace[::20]:
        mini = f" mini={mini:.4f}" if mini is not None else ""
        print(f"  step {step:3d}: task {l_cls:.3f} aux {l_uriel:.3f} "
              f"weights ({lam_cls:.2f}, {lam_uriel:.2f}) total {total:.3f}{mini}")
