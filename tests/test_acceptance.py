"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The directional-generalization criteria (8, 9) train the full
default benchmark and take several minutes; everything else is fast.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.alchemy import (AlchemyScale, AlchemyTune, ConstantScaling,
                                  combine_losses, forward_losses,
                                  init_alchemy_model, make_optimizer,
                                  predict_classes, train_step, uriel_loss)
from lingualchemy.alignment import (ClosedForm, GradientDescent,
                                    SentenceRepSet, fit_alignment)
from lingualchemy.autodiff import AdamW, Tensor
from lingualchemy.encoder import EncoderConfig, TokenBatch
from lingualchemy.harness import (ExperimentConfig, _run_cells,
                                  make_token_batch, prepare_benchmark,
                                  run_experiment, scaling_sweep)
from lingualchemy.synthlang import Corpus, Example, Vocab, unk_rate
from lingualchemy.uriel import ALL_FEATURE_SETS, FeatureSet, load_uriel_tsv

from conftest import scale_update, write_tsv
from gradcheck import finite_difference_grad, relative_error, sum_all


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    path = write_tsv(tmp_path_factory.mktemp("store") / "knn.tsv",
                     ["lang", "f0", "f1"],
                     [["aa", "0.1", "0.9"], ["bb", "0.7", "0.2"],
                      ["cc", "0.4", "0.5"]])
    return load_uriel_tsv({FeatureSet.SYNTAX_KNN: path})


def random_batch(rng, vocab_size, n=6, t=7, langs=("aa", "bb", "cc"),
                 n_classes=3):
    ids = rng.integers(0, vocab_size, size=(n, t))
    ids[:, 0] = 0
    return TokenBatch(ids=ids, attention_mask=np.ones((n, t), dtype=bool),
                      langs=tuple(str(l) for l in rng.choice(langs, size=n)),
                      labels=rng.integers(0, n_classes, size=n))


class TestCriterion1Gradients:
    """Every differentiable op and the full model loss vs finite differences."""

    def test_gradient_suite(self, tiny_store):
        t0 = time.perf_counter()
        rng = np.random.default_rng(17)
        h, tol = 1e-5, 1e-4

        def sweep(build, make_tensors, n=20):
            for _ in range(n):
                tensors = make_tensors()
                loss = build(*tensors)
                ad.backward(loss)
                for tensor in tensors:
                    if not tensor.requires_grad:
                        continue
                    fd = finite_difference_grad(
                        lambda: build(*tensors).item(), tensor, h=h)
                    err = relative_error(tensor.grad, fd)
                    assert err < tol, f"rel err {err:.2e}"
                    tensor.zero_grad()

        def t(shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        mix_ln = Tensor(rng.normal(size=(2, 5)))
        # packed rows of the unmasked positions; row 1 keeps only its CLS
        mask = np.array([[True, True, False], [True, False, False],
                         [True, True, True]])
        mix_attn = Tensor(rng.normal(size=(6, 4)))
        mix_cls = Tensor(rng.normal(size=(3, 4)))
        sweep(lambda a, b: sum_all(ad.mul(ad.gelu(ad.add(a, b)), a)),
              lambda: (t((3, 4)), t((3, 4))))
        sweep(lambda x, w, b: sum_all(ad.linear(x, w, b)),
              lambda: (t((3, 4)), t((4, 2)), t(2)))
        sweep(lambda x, g, b: sum_all(ad.mul(ad.layer_norm(x, g, b), mix_ln)),
              lambda: (t((2, 5)), t(5), t(5)))
        sweep(lambda lg: ad.softmax_cross_entropy(lg, [0, 2, 1]),
              lambda: (t((3, 4)),))
        sweep(lambda p, q: ad.mse(p, q), lambda: (t((3, 4)), t((3, 4))))
        sweep(lambda q, k, v: sum_all(ad.mul(ad.attention(q, k, v, mask, 2),
                                             mix_attn)),
              lambda: (t((6, 4)), t((6, 4)), t((6, 4))))
        sweep(lambda q, k, v: sum_all(ad.mul(ad.attention(q, k, v, mask, 2),
                                             mix_cls)),
              lambda: (t((3, 4)), t((6, 4)), t((6, 4))))
        sweep(lambda r: sum_all(ad.softplus(r)), lambda: (t(()),))
        ids = np.array([[0, 3, 3], [4, 1, 0], [2, 3, 1]])
        mix_emb = Tensor(rng.normal(size=(6, 4)))
        sweep(lambda tok, pos: sum_all(ad.mul(ad.embedding(tok, pos, ids, mask),
                                              mix_emb)),
              lambda: (t((5, 4)), t((4, 4))))
        sweep(lambda x: sum_all(ad.mul(ad.take_rows(x, np.array([0, 2, 3])),
                                       mix_cls)),
              lambda: (t((6, 4)),))

        # full combined loss on a sub-1k-parameter model, sampled coordinates
        cfg = EncoderConfig(vocab_size=11, d_model=4, n_heads=2, n_layers=1,
                            max_seq_len=8, seed=5)
        for trial in range(20):
            model = init_alchemy_model(cfg, n_outputs=3, d_uriel=2)
            n_params = sum(p.data.size for p in model.parameters())
            assert n_params <= 1000, n_params
            batch = random_batch(np.random.default_rng(trial), 11)
            scaling = ConstantScaling(3.0)

            def full_loss():
                l_cls, l_uriel = forward_losses(model, batch, tiny_store,
                                                [FeatureSet.SYNTAX_KNN])
                return combine_losses(l_cls, l_uriel, scaling)[0]

            loss = full_loss()
            ad.backward(loss)
            rng_c = np.random.default_rng(trial + 100)
            for name, tensor in model.named_parameters()[:: 6]:
                size = tensor.data.size
                coords = rng_c.choice(size, size=min(3, size), replace=False)
                fd = finite_difference_grad(lambda: full_loss().item(),
                                            tensor, h=h, coords=coords)
                picked = np.zeros_like(fd)
                flat_ad = tensor.grad.reshape(-1)
                flat_fd = fd.reshape(-1)
                err = relative_error(flat_ad[coords], flat_fd[coords])
                assert err < tol, f"{name}: rel err {err:.2e}"
            for p in model.parameters():
                p.zero_grad()
        elapsed = time.perf_counter() - t0
        report("criterion 1: gradient suite (ops + full model, rel err < 1e-4)",
               elapsed < 60.0, f"{elapsed:.1f}s")


class TestCriterion2LossIdentity:
    def test_identity_thousand_triples(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            l_cls = float(rng.uniform(1e-4, 8.0))
            l_uriel = float(rng.uniform(1e-4, 8.0))
            mode = rng.integers(3)
            if mode == 0:
                scaling = ConstantScaling(float(rng.uniform(0.0, 100.0)))
            elif mode == 1:
                scaling = scale_update(AlchemyScale(),
                                       float(rng.uniform(0.01, 5.0)),
                                       float(rng.uniform(0.01, 5.0)))
                for _ in range(int(rng.integers(0, 5))):
                    scale_update(scaling, float(rng.uniform(0.01, 5)),
                                 float(rng.uniform(0.01, 5)))
            else:
                scaling = AlchemyTune()
                scaling.raw_cls.data = np.asarray(rng.normal())
                scaling.raw_uriel.data = np.asarray(rng.normal())
            _, bd = combine_losses(Tensor(l_cls), Tensor(l_uriel), scaling)
            expected = bd.lambda_cls * bd.l_cls + bd.lambda_uriel * bd.l_uriel
            if bd.mini_loss is not None:
                expected = expected + bd.mini_loss
            worst = max(worst, abs(bd.total - expected))
        report("criterion 2: loss identity over 1000 random triples",
               worst <= 1e-12, f"worst |diff| {worst:.2e}")


class TestCriterion3UrielLossOracle:
    def test_hundred_random_batches(self, tiny_store):
        rng = np.random.default_rng(3)
        sets = [FeatureSet.SYNTAX_KNN]
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            langs = [str(l) for l in
                     rng.choice(["aa", "bb", "cc"], size=n, replace=True)]
            projected = rng.normal(size=(n, 2))
            total = 0.0
            for i, lang in enumerate(langs):
                vec = tiny_store.target_matrix([lang], sets)[0]
                row = 0.0
                for j in range(len(vec)):
                    row += (projected[i, j] - vec[j]) ** 2
                total += row
            expected = total / n
            got = uriel_loss(Tensor(projected), langs, tiny_store, sets).item()
            worst = max(worst, abs(got - expected))
        report("criterion 3: auxiliary loss matches scalar-loop oracle",
               worst <= 1e-12, f"worst |diff| {worst:.2e}")


class TestCriterion4ZeroRegularizerEquivalence:
    def test_bit_match_fifty_steps(self, tiny_store):
        from lingualchemy.alchemy import task_logits
        from lingualchemy.encoder import encode_cls

        cfg = EncoderConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=1,
                            max_seq_len=8, seed=21)
        batch = random_batch(np.random.default_rng(4), 13, n=8)

        regularized = init_alchemy_model(cfg, 3, 2)
        scaling = ConstantScaling(0.0)
        opt_r = make_optimizer(regularized, scaling, lr=1e-3)

        plain = init_alchemy_model(cfg, 3, 2)
        opt_p = AdamW(list(plain.encoder.values()) + [plain.head_w, plain.head_b],
                      lr=1e-3, weight_decay=0.01)

        mismatches = 0
        for step in range(50):
            train_step(regularized, batch, tiny_store,
                       [FeatureSet.SYNTAX_KNN], scaling, opt_r)
            pooled = encode_cls(plain.cfg, plain.encoder, batch)
            loss = ad.softmax_cross_entropy(task_logits(plain, pooled),
                                            batch.labels)
            ad.backward(loss)
            opt_p.step()
            opt_p.zero_grad()
            plain_params = dict(plain.named_parameters())
            for name, tensor in regularized.named_parameters():
                if name.startswith("proj"):
                    continue
                if not np.array_equal(tensor.data, plain_params[name].data):
                    mismatches += 1
        report("criterion 4: constant-0 trajectory bit-matches plain run "
               "(50 steps)", mismatches == 0, f"{mismatches} mismatching steps")


class TestCriterion5AlchemyScale:
    def test_init_balance_and_fixed_point(self):
        rng = np.random.default_rng(5)
        worst_init = 0.0
        for _ in range(50):
            l_cls0 = float(rng.uniform(0.01, 5.0))
            l_uriel0 = float(rng.uniform(0.01, 5.0))
            state = scale_update(AlchemyScale(), l_cls0, l_uriel0)
            worst_init = max(worst_init, abs(state.lambda_cls * l_cls0
                                             - state.lambda_uriel * l_uriel0))
        state = scale_update(AlchemyScale(), 1.7, 0.03)
        lam0 = (state.lambda_cls, state.lambda_uriel)
        drift = 0.0
        for _ in range(1000):
            scale_update(state, 1.7, 0.03)
            drift = max(drift,
                        abs(state.lambda_cls - lam0[0]) / lam0[0],
                        abs(state.lambda_uriel - lam0[1]) / lam0[1])
        ok = worst_init <= 1e-9 and drift <= 1e-9
        report("criterion 5: scale init balance + 1000-step fixed point",
               ok, f"init {worst_init:.1e}, drift {drift:.1e}")


class TestCriterion6Alignment:
    def test_noisy_affine_recovery(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 8))
        a = rng.normal(size=(5, 8))
        c = rng.normal(size=5)
        y = x @ a.T + c + 0.01 * rng.normal(size=(400, 5))
        data = SentenceRepSet(reps=x, langs=tuple(f"l{i}" for i in range(400)),
                              targets=y)
        closed = fit_alignment(data, ClosedForm())
        descended = fit_alignment(data, GradientDescent())
        rel = (np.linalg.norm(descended.weight - closed.weight)
               / np.linalg.norm(closed.weight))
        elapsed = time.perf_counter() - t0
        ok = closed.r_squared >= 0.95 and rel < 1e-3 and elapsed < 30.0
        report("criterion 6: alignment (closed-form R2 >= 0.95, descent "
               "within 1e-3)", ok,
               f"R2 {closed.r_squared:.4f}, rel {rel:.2e}, {elapsed:.1f}s")


class TestCriterion7OverfitSmoke:
    def test_overfit_small_corpus(self):
        t0 = time.perf_counter()
        # both languages are seen, so the vocabulary covers all train text
        bench = prepare_benchmark(ExperimentConfig(
            n_langs=2, n_families=1, n_per_lang=100, n_classes=4, gen_seed=7))
        corpus, store = bench.corpus, bench.store
        examples = corpus.examples  # all 200, every split
        cfg = EncoderConfig(vocab_size=len(corpus.vocab), d_model=64, n_heads=4,
                            n_layers=2, max_seq_len=32, seed=7)
        model = init_alchemy_model(cfg, n_outputs=4,
                                   d_uriel=store.vector_dim(ALL_FEATURE_SETS))
        scaling = ConstantScaling(1.0)
        opt = make_optimizer(model, scaling, lr=1e-3)
        acc = 0.0
        for epoch in range(200):
            order = np.random.default_rng([7, epoch]).permutation(len(examples))
            for start in range(0, len(order), 32):
                idx = order[start:start + 32]
                batch = make_token_batch([examples[i] for i in idx],
                                         corpus.vocab, 32)
                train_step(model, batch, store, ALL_FEATURE_SETS, scaling, opt)
            if epoch % 5 == 4:
                batch = make_token_batch(examples, corpus.vocab, 32)
                preds = predict_classes(model, batch)
                acc = float(np.mean(preds == batch.labels))
                if acc >= 0.99:
                    break
        elapsed = time.perf_counter() - t0
        report("criterion 7: 200-example overfit to >= 0.99 within 200 epochs",
               acc >= 0.99 and elapsed < 60.0, f"acc {acc:.3f}, {elapsed:.1f}s")


#: The default synthetic benchmark: 12 languages / 4 families, 8 seen.
BENCH = ExperimentConfig()


@pytest.fixture(scope="module")
def bench_data():
    """The default benchmark, built once for every run of criteria 8 and 9."""
    return prepare_benchmark(BENCH)


def _run_jobs(bench, jobs):
    """Unseen means of the ``(cfg, seed)`` jobs on ``bench``, in job order, as
    sweep cells on one pool of 2 workers."""
    reports = _run_cells(replace(BENCH, threads=2), [bench],
                         [(cfg, seed, 0) for cfg, seed in jobs])
    return [r.aggregates["unseen_mean"] for r in reports]


@pytest.fixture(scope="module")
def paired_runs(bench_data):
    """Shared 5-seed paired runs for criteria 8 and 9's direction check."""
    t0 = time.perf_counter()
    zero = _run_jobs(bench_data, [(replace(BENCH, factor=0.0), s)
                                  for s in BENCH.seeds])
    ten = _run_jobs(bench_data, [(replace(BENCH, factor=10.0), s)
                                 for s in BENCH.seeds])
    return (dict(zip(BENCH.seeds, zero)), dict(zip(BENCH.seeds, ten)),
            time.perf_counter() - t0)


@pytest.mark.slow
class TestCriterion8DeskScaleGeneralization:
    def test_paired_unseen_gain(self, paired_runs):
        zero, ten, elapsed = paired_runs
        deltas = [ten[s] - zero[s] for s in BENCH.seeds]
        positive = sum(1 for d in deltas if d > 0)
        mean_delta = float(np.mean(deltas))
        ok = positive >= 4 and mean_delta > 0 and elapsed < 600.0
        report("criterion 8: 10x beats 0x on unseen mean (>=4/5 seeds, "
               "positive mean)", ok,
               f"{positive}/5 positive, mean {mean_delta:+.4f}, {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion9SweepShape:
    def test_sweep_direction_and_dynamic_modes(self, paired_runs, bench_data):
        zero, ten, _ = paired_runs
        wins = sum(1 for s in BENCH.seeds if ten[s] >= zero[s])
        # the 20 runs share one pool: 10 rounds on 2 workers, not 4 x 3
        factors = (25.0, 50.0, 100.0)
        configs = ([replace(BENCH, scaling="alchemy_scale")]
                   + [replace(BENCH, factor=f) for f in factors])
        values = _run_jobs(bench_data,
                           [(cfg, s) for cfg in configs for s in BENCH.seeds])
        n = len(BENCH.seeds)
        scale_vals = values[:n]
        constants = {0.0: float(np.mean(list(zero.values()))),
                     10.0: float(np.mean(list(ten.values())))}
        for i, factor in enumerate(factors, start=1):
            constants[factor] = float(np.mean(values[i * n:(i + 1) * n]))
        best_constant = max(constants.values())
        scale_mean = float(np.mean(scale_vals))
        gap = abs(scale_mean - best_constant)
        ok = wins >= 4 and gap <= 0.02
        report("criterion 9: sweep shape (10x >= 0x in >=4/5 seeds; "
               "AlchemyScale within 2 points of best constant)", ok,
               f"wins {wins}/5, scale {scale_mean:.4f} vs best "
               f"{best_constant:.4f}, gap {gap * 100:.2f} pts")


class TestCriterion10Determinism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(n_langs=6, n_families=3, n_per_lang=40,
                               n_classes=3, epochs=2, batch_size=16,
                               d_model=16, max_seq_len=16)
        run_experiment(replace(cfg, out_dir=str(tmp_path / "a")), seed=3)
        run_experiment(replace(cfg, out_dir=str(tmp_path / "b")), seed=3)
        # at this size report.csv is at chance for every seed, so it alone
        # cannot tell a rerun from another training run; trace.csv can
        same = all((tmp_path / "a" / "run_seed3" / name).read_bytes()
                   == (tmp_path / "b" / "run_seed3" / name).read_bytes()
                   for name in ("report.csv", "trace.csv"))
        report("criterion 10: identical config+seed give byte-identical "
               "report.csv", same)


class TestCriterion11UnkRates:
    def test_hand_counted_three_language_fixture(self):
        vocab = Vocab.build([["w1", "w2", "w3"]])
        examples = [
            Example("la", 0, ("w1", "w2", "w1", "zz"), "train"),      # 1/4
            Example("la", 0, ("w3", "qq"), "train"),                  # 1/2 -> 2/6
            Example("lb", 0, ("w1", "w2", "w3"), "train"),            # 0/3
            Example("lc", 0, ("uu", "vv", "ww", "w1"), "train"),      # 3/4
        ]
        corpus = Corpus(examples=examples, vocab=vocab)
        got = unk_rate(corpus, vocab)
        expected = {"la": round(100 * 2 / 6, 2),
                    "lb": 0.0,
                    "lc": round(100 * 3 / 4, 2)}
        report("criterion 11: UNK rates match hand-counted fixture",
               got == expected, f"{got}")
