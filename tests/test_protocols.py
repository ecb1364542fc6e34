"""Slow empirical protocol oracles on the default benchmark.

These train real models and check directional claims; run them with the
full suite or deselect via ``-m "not slow"``.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from lingualchemy.alchemy import ConstantScaling, init_alchemy_model, train_loop
from lingualchemy.encoder import EncoderConfig
from lingualchemy.harness import (ExperimentConfig, family_split_experiment,
                                  make_token_batch, prepare_benchmark)
from lingualchemy.uriel import ALL_FEATURE_SETS

pytestmark = pytest.mark.slow


class TestFamilySplitDirection:
    def test_adding_neighbor_family_helps_its_unseen_member(self):
        """Training on two families then adding a third must lift the third
        family's unseen member in at least 4 of 5 seeds."""
        g1 = ("syn00", "syn01", "syn04", "syn05")          # families 0, 1
        g2 = g1 + ("syn02", "syn06")                       # + family 2
        cfg = ExperimentConfig(
            unseen=("syn08", "syn09", "syn10", "syn11"),
            family_groups=(g1, g2))
        target = "syn10"                                   # family 2, unseen
        wins = 0
        for seed in cfg.seeds:
            without, with_family = family_split_experiment(cfg, seed=seed)
            wins += with_family.value(target) > without.value(target)
        assert wins >= 4, f"only {wins}/5 seeds improved {target}"


class TestTrainLoopRuntime:
    def test_thirty_epochs_within_budget(self):
        """A 30-epoch run over the default corpus (<= 5k examples) stays
        under two minutes on one core, using the wider default encoder."""
        bench = prepare_benchmark(ExperimentConfig(n_per_lang=250))
        corpus, store = bench.corpus, bench.store
        assert len(bench.seen) == 8  # the vocabulary covers these only
        train = corpus.for_langs(bench.seen).subset("train").examples
        assert len(train) <= 5000
        cfg = EncoderConfig(vocab_size=len(corpus.vocab), seed=1)  # d_model 64
        model = init_alchemy_model(cfg, n_outputs=4,
                                   d_uriel=store.vector_dim(ALL_FEATURE_SETS))

        def batches_fn(indices):
            return make_token_batch([train[i] for i in indices], corpus.vocab,
                                    cfg.max_seq_len)

        t0 = time.perf_counter()
        train_loop(model, batches_fn, len(train), store, ALL_FEATURE_SETS,
                   ConstantScaling(10.0), epochs=30, batch_size=32, lr=1e-3,
                   seed=1)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"{elapsed:.0f}s"
