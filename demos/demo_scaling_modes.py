"""The three ways to weight the auxiliary loss, traced over training.

Constant weighting needs a hand-picked factor; the EMA-based schedule
rebalances the two terms automatically; the trainable variant learns its
weights under a drift penalty on their sum.
"""

import numpy as np

from lingualchemy import (ALL_FEATURE_SETS, AlchemyScale, AlchemyTune,
                          ConstantScaling, EncoderConfig, ExperimentConfig,
                          init_alchemy_model)
from lingualchemy.alchemy import iterate_batches, make_optimizer, train_step
from lingualchemy.harness import make_token_batch, prepare_benchmark

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
    opt = make_optimizer(model, scaling, lr=1e-3)
    name = type(scaling).__name__
    print(f"\n{name}")
    step = 0
    for epoch in range(4):
        order = np.random.default_rng([0, epoch]).permutation(len(train))
        for idx in iterate_batches(order, 32):
            batch = make_token_batch([train[i] for i in idx], corpus.vocab,
                                     cfg.max_seq_len)
            bd = train_step(model, batch, store, ALL_FEATURE_SETS, scaling, opt)
            step += 1
            if step % 20 == 1:
                mini = f" mini={bd.mini_loss:.4f}" if bd.mini_loss is not None else ""
                print(f"  step {step:3d}: task {bd.l_cls:.3f} aux {bd.l_uriel:.3f} "
                      f"weights ({bd.lambda_cls:.2f}, {bd.lambda_uriel:.2f})"
                      f" total {bd.total:.3f}{mini}")
