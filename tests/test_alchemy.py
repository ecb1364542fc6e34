import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.alchemy import (AlchemyScale, AlchemyTune, ConstantScaling,
                                  alchemy_scale_update, combine_losses,
                                  init_alchemy_model, make_optimizer,
                                  project_to_uriel, train_loop, train_step,
                                  uriel_loss)
from lingualchemy.autodiff import Tensor
from lingualchemy.encoder import EncoderConfig, TokenBatch
from lingualchemy.errors import NumericError, UnknownLanguageError
from lingualchemy.uriel import FeatureSet, load_uriel_tsv

from conftest import write_tsv
from gradcheck import check_grad

SETS = [FeatureSet.SYNTAX_KNN]


@pytest.fixture
def small_store(tmp_path):
    path = write_tsv(tmp_path / "knn.tsv", ["lang", "f0", "f1"],
                     [["aa", "0.0", "0.0"],
                      ["bb", "1.0", "1.0"],
                      ["cc", "0.5", "0.25"]])
    return load_uriel_tsv({FeatureSet.SYNTAX_KNN: path})


def tiny_model(seed=0, d_uriel=2, n_outputs=3):
    cfg = EncoderConfig(vocab_size=13, d_model=8, n_heads=2, n_layers=1,
                        max_seq_len=6, seed=seed)
    return init_alchemy_model(cfg, n_outputs=n_outputs, d_uriel=d_uriel)


def tiny_batch(langs=("aa", "bb"), labels=(0, 1), seed=0):
    rng = np.random.default_rng(seed)
    n = len(langs)
    ids = rng.integers(0, 13, size=(n, 5))
    ids[:, 0] = 0
    return TokenBatch(ids=ids, attention_mask=np.ones((n, 5), dtype=bool),
                      langs=tuple(langs),
                      labels=np.asarray(labels, dtype=np.int64))


class TestProjection:
    def test_identity_block(self):
        model = tiny_model(d_uriel=8)
        model.proj_w.data = np.eye(8)
        model.proj_b.data = np.zeros(8)
        pooled = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
        got = project_to_uriel(model, pooled)
        np.testing.assert_array_equal(got.data, pooled.data)

    def test_output_shape(self):
        model = tiny_model(d_uriel=2)
        got = project_to_uriel(model, Tensor(np.zeros((4, 8))))
        assert got.shape == (4, 2)

    def test_dim_mismatch(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="d_model"):
            project_to_uriel(model, Tensor(np.zeros((4, 5))))

    def test_gradient(self):
        model = tiny_model(d_uriel=2)
        pooled = Tensor(np.random.default_rng(1).normal(size=(3, 8)),
                        requires_grad=True)

        def build():
            return ad.mse(project_to_uriel(model, pooled),
                          Tensor(np.ones((3, 2))))

        loss = build()
        ad.backward(loss)
        for t in (pooled, model.proj_w, model.proj_b):
            check_grad(lambda: build().item(), t, tol=1e-5)
            t.zero_grad()


class TestUrielLoss:
    def test_exact_match_is_zero(self, small_store):
        targets = small_store.target_matrix(["aa", "bb"], SETS)
        loss = uriel_loss(Tensor(targets), ["aa", "bb"], small_store, SETS)
        assert loss.item() == 0.0

    def test_hand_value(self, small_store):
        # distances: aa -> (1,1): 2 ; bb -> (0,0) from (1,1) target: 2; mean 2
        projected = Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]))
        loss = uriel_loss(projected, ["aa", "bb"], small_store, SETS)
        assert loss.item() == 2.0

    def test_repeated_language_shares_target(self, small_store):
        projected = Tensor(np.array([[0.2, 0.2], [0.2, 0.2]]))
        both = uriel_loss(projected, ["cc", "cc"], small_store, SETS).item()
        single = uriel_loss(Tensor(projected.data[:1]), ["cc"],
                            small_store, SETS).item()
        assert both == pytest.approx(single, abs=1e-15)

    def test_unknown_language_named(self, small_store):
        with pytest.raises(UnknownLanguageError, match="zz"):
            uriel_loss(Tensor(np.zeros((1, 2))), ["zz"], small_store, SETS)

    def test_matches_scalar_loop_oracle(self, small_store):
        rng = np.random.default_rng(5)
        for _ in range(25):
            langs = [str(l) for l in
                     rng.choice(["aa", "bb", "cc"], size=4, replace=True)]
            projected = rng.normal(size=(4, 2))
            total = 0.0
            for i, lang in enumerate(langs):
                vec = small_store.get_vector(lang, SETS).values
                row = 0.0
                for j in range(2):
                    row += (projected[i, j] - vec[j]) ** 2
                total += row
            expected = total / 4
            got = uriel_loss(Tensor(projected), langs, small_store, SETS).item()
            assert got == pytest.approx(expected, abs=1e-12)


def combined(l_cls, l_uriel, scaling):
    """The breakdown combine_losses gives for two loss values."""
    return combine_losses(Tensor(l_cls), Tensor(l_uriel), scaling)[1]


class TestCombineLosses:
    def test_hand_arithmetic(self):
        bd = combined(0.7, 0.05, ConstantScaling(10.0))
        assert bd.total == pytest.approx(1.2, abs=1e-15)
        assert bd.lambda_cls == 1.0

    def test_zero_factor_reduces_to_task_loss(self):
        bd = combined(0.42, 9.9, ConstantScaling(0.0))
        assert bd.total == 0.42

    def test_default_factor_is_ten(self):
        assert ConstantScaling().factor == 10.0

    def test_breakdown_identity_property(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            l_cls, l_uriel = rng.uniform(0.001, 5.0, size=2)
            mode = rng.integers(3)
            if mode == 0:
                scaling = ConstantScaling(float(rng.uniform(0, 100)))
            elif mode == 1:
                scaling = alchemy_scale_update(AlchemyScale(),
                                               float(rng.uniform(0.01, 5)),
                                               float(rng.uniform(0.01, 5)))
            else:
                scaling = AlchemyTune()
            bd = combined(l_cls, l_uriel, scaling)
            expected = bd.lambda_cls * bd.l_cls + bd.lambda_uriel * bd.l_uriel
            if bd.mini_loss is not None:
                expected = expected + bd.mini_loss
            assert abs(bd.total - expected) <= 1e-12

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            combined(-0.1, 0.0, ConstantScaling(1.0))


class TestAlchemyScale:
    def test_init_balances_scaled_losses(self):
        state = alchemy_scale_update(AlchemyScale(), 1.0, 0.1)
        assert (state.lambda_cls, state.lambda_uriel) == (0.55, 5.5)
        assert state.lambda_cls * 1.0 == pytest.approx(
            state.lambda_uriel * 0.1, abs=1e-9)

    def test_equal_losses_give_unit_lambdas(self):
        state = alchemy_scale_update(AlchemyScale(), 0.7, 0.7)
        assert state.lambda_cls == 1.0 and state.lambda_uriel == 1.0

    def test_ten_to_one_ratio(self):
        # initial task loss 10x the auxiliary loss -> weight ratio 10
        state = alchemy_scale_update(AlchemyScale(), 1.0, 0.1)
        assert state.lambda_uriel / state.lambda_cls == pytest.approx(10.0)

    def test_zero_loss_rejected(self):
        with pytest.raises(NumericError):
            alchemy_scale_update(AlchemyScale(), 0.0, 0.5)

    def test_ema_hand_value(self):
        state = alchemy_scale_update(AlchemyScale(), 1.0, 1.0)
        alchemy_scale_update(state, 0.5, 1.0)
        assert state.ema_cls == pytest.approx(0.95, abs=1e-15)

    def test_constant_losses_fixed_point(self):
        state = alchemy_scale_update(AlchemyScale(), 2.0, 0.5)
        lam0 = (state.lambda_cls, state.lambda_uriel)
        for _ in range(1000):
            alchemy_scale_update(state, 2.0, 0.5)
        assert state.lambda_cls == pytest.approx(lam0[0], rel=1e-9)
        assert state.lambda_uriel == pytest.approx(lam0[1], rel=1e-9)

    def test_balance_identity_at_recompute(self):
        state = alchemy_scale_update(AlchemyScale(update_period=10), 1.0, 0.25)
        rng = np.random.default_rng(3)
        for step in range(1, 101):
            alchemy_scale_update(state, float(rng.uniform(0.1, 2)),
                                 float(rng.uniform(0.1, 2)))
            if step % 10 == 0:
                assert state.lambda_cls * state.ema_cls == pytest.approx(
                    state.lambda_uriel * state.ema_uriel, abs=1e-9)

    def test_wrong_mode_rejected(self):
        with pytest.raises(TypeError):
            alchemy_scale_update(ConstantScaling(1.0), 1.0, 1.0)


class TestAlchemyTune:
    def test_neutral_lambdas_no_penalty(self):
        bd = combined(0.5, 0.5, AlchemyTune())
        assert bd.lambda_cls == pytest.approx(1.0, abs=1e-12)
        assert bd.lambda_uriel == pytest.approx(1.0, abs=1e-12)
        assert bd.mini_loss == pytest.approx(0.0, abs=1e-12)

    def test_hand_mini_loss(self):
        state = AlchemyTune()
        # raw values chosen so softplus gives 1.3 and 0.9
        state.raw_cls.data = np.asarray(np.log(np.expm1(1.3)))
        state.raw_uriel.data = np.asarray(np.log(np.expm1(0.9)))
        bd = combined(0.0, 0.0, state)
        assert bd.mini_loss == pytest.approx(0.04, abs=1e-9)

    def test_lambdas_strictly_positive(self):
        state = AlchemyTune()
        for raw in (-50.0, -5.0, 0.0, 5.0):
            state.raw_cls.data = np.asarray(raw)
            assert combined(0.5, 0.5, state).lambda_cls > 0.0

    def test_gradients_flow_into_raw_scalars(self):
        state = AlchemyTune()
        l_cls = Tensor(0.8)
        l_uriel = Tensor(0.2)

        def build():
            total, _ = combine_losses(l_cls, l_uriel, state)
            return total

        total = build()
        ad.backward(total)
        for raw in (state.raw_cls, state.raw_uriel):
            check_grad(lambda: build().item(), raw, tol=1e-4)
            raw.zero_grad()

    def test_drift_penalty_only_for_tune(self):
        assert combined(0.3, 0.2, ConstantScaling(10.0)).mini_loss is None
        scale = alchemy_scale_update(AlchemyScale(), 0.3, 0.2)
        assert combined(0.3, 0.2, scale).mini_loss is None
        assert combined(0.3, 0.2, AlchemyTune()).mini_loss is not None


class TestTrainStep:
    def test_breakdown_identity_on_graph(self, small_store):
        model = tiny_model()
        opt = make_optimizer(model, ConstantScaling(3.0), lr=1e-3)
        bd = train_step(model, tiny_batch(), small_store, SETS,
                        ConstantScaling(3.0), opt)
        expected = bd.lambda_cls * bd.l_cls + bd.lambda_uriel * bd.l_uriel
        assert abs(bd.total - expected) <= 1e-12

    def test_total_decreases_early(self, small_store):
        # smoke: total drops over the first 10 steps for most seeds
        wins = 0
        for seed in range(10):
            model = tiny_model(seed=seed)
            scaling = ConstantScaling(1.0)
            opt = make_optimizer(model, scaling, lr=5e-3)
            batch = tiny_batch(seed=seed)
            first = train_step(model, batch, small_store, SETS, scaling, opt)
            last = None
            for _ in range(9):
                last = train_step(model, batch, small_store, SETS, scaling, opt)
            wins += last.total < first.total
        assert wins >= 9

    def test_single_batch_overfit(self, small_store):
        cfg = EncoderConfig(vocab_size=13, d_model=16, n_heads=2, n_layers=1,
                            max_seq_len=8, seed=3)
        model = init_alchemy_model(cfg, n_outputs=4, d_uriel=2)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 13, size=(32, 7))
        ids[:, 0] = 0
        batch = TokenBatch(ids=ids, attention_mask=np.ones((32, 7), dtype=bool),
                           langs=tuple(str(l) for l in
                                       rng.choice(["aa", "bb"], size=32)),
                           labels=rng.integers(0, 4, size=32))
        scaling = ConstantScaling(1.0)
        opt = make_optimizer(model, scaling, lr=3e-3)
        bd = None
        for step in range(300):
            bd = train_step(model, batch, small_store, SETS, scaling, opt)
            if bd.l_cls < 0.01:
                break
        assert bd.l_cls < 0.01

    def test_alchemy_scale_lazy_init_balances(self, small_store):
        model = tiny_model()
        scaling = AlchemyScale()
        opt = make_optimizer(model, scaling, lr=1e-3)
        bd = train_step(model, tiny_batch(), small_store, SETS, scaling, opt)
        assert bd.lambda_cls * bd.l_cls == pytest.approx(
            bd.lambda_uriel * bd.l_uriel, abs=1e-9)
        # set-up takes the first losses as the EMAs and is not a step
        assert (scaling.ema_cls, scaling.ema_uriel) == (bd.l_cls, bd.l_uriel)
        assert scaling.step == 0

    def test_alchemy_scale_updates_once_per_step(self, small_store):
        # the first step sets the EMAs up; each later step advances them once
        model = tiny_model()
        scaling = AlchemyScale()
        opt = make_optimizer(model, scaling, lr=1e-3)
        for k in range(1, 5):
            train_step(model, tiny_batch(), small_store, SETS, scaling, opt)
            assert scaling.step == k - 1

    def test_alchemy_tune_moves_raws(self, small_store):
        model = tiny_model()
        scaling = AlchemyTune()
        opt = make_optimizer(model, scaling, lr=1e-2)
        before = scaling.raw_cls.data.copy()
        for _ in range(3):
            train_step(model, tiny_batch(), small_store, SETS, scaling, opt)
        assert scaling.raw_cls.data != before

    def test_optimizer_adds_only_tune_scalars(self):
        model = tiny_model()
        params = model.parameters()
        for scaling in (ConstantScaling(), AlchemyScale()):
            opt = make_optimizer(model, scaling, lr=1e-3)
            assert opt.params == params and opt._no_decay == set()
        tune = AlchemyTune()
        opt = make_optimizer(model, tune, lr=1e-3)
        assert opt.params == params + [tune.raw_cls, tune.raw_uriel]
        # the raw scalars are exempt from weight decay
        assert opt._no_decay == {id(tune.raw_cls), id(tune.raw_uriel)}


class TestTrainLoop:
    def _loop(self, small_store, epochs, scaling, seed=0):
        model = tiny_model(seed=seed)
        batch = tiny_batch()

        def batches_fn(indices):
            return TokenBatch(ids=batch.ids[indices],
                              attention_mask=batch.attention_mask[indices],
                              langs=tuple(batch.langs[i] for i in indices),
                              labels=batch.labels[indices])

        return train_loop(model, batches_fn, 2, small_store, SETS, scaling,
                          epochs=epochs, batch_size=2, lr=1e-3, seed=seed)

    def test_zero_epochs_leaves_parameters(self, small_store):
        model, trace = self._loop(small_store, 0, ConstantScaling(1.0))
        reference = tiny_model(seed=0)
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  reference.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert trace == []

    def test_same_seed_identical_traces(self, small_store):
        _, t1 = self._loop(small_store, 3, ConstantScaling(2.0), seed=4)
        _, t2 = self._loop(small_store, 3, ConstantScaling(2.0), seed=4)
        assert t1 == t2

    def test_trace_rows_shape(self, small_store):
        _, trace = self._loop(small_store, 2, AlchemyTune())
        assert len(trace) == 2
        assert len(trace[0]) == 8

    def test_non_finite_loss_stops_training(self, small_store):
        # regression targets of inf make the task loss inf on the first step
        model = init_alchemy_model(tiny_model().cfg, n_outputs=1, d_uriel=2,
                                   task="regression")
        base = tiny_batch()
        batch = TokenBatch(ids=base.ids, attention_mask=base.attention_mask,
                           langs=base.langs, labels=np.array([np.inf, 0.0]))
        initial = [p.data.copy() for p in model.parameters()]
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=r"non-finite l_cls at epoch 0, step 1$"):
            train_loop(model, lambda indices: batch, 2, small_store, SETS,
                       ConstantScaling(1.0), epochs=2, batch_size=2,
                       lr=1e-3, seed=0)
        # the loss is checked before backward, so AdamW never ran
        for param, before in zip(model.parameters(), initial):
            np.testing.assert_array_equal(param.data, before)


class TestZeroRegularizerEquivalence:
    def test_constant_zero_matches_plain_loop(self, small_store):
        """Constant(0) trajectories bit-match a loop with no auxiliary code."""
        seed = 7
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 13, size=(8, 6))
        ids[:, 0] = 0
        langs = tuple(str(l) for l in rng.choice(["aa", "bb", "cc"], size=8))
        labels = rng.integers(0, 3, size=8)
        batch = TokenBatch(ids=ids, attention_mask=np.ones((8, 6), dtype=bool),
                           langs=langs, labels=labels)

        regularized = tiny_model(seed=seed)
        scaling = ConstantScaling(0.0)
        opt_r = make_optimizer(regularized, scaling, lr=1e-3)

        plain = tiny_model(seed=seed)
        from lingualchemy.alchemy import _task_loss, task_logits
        from lingualchemy.encoder import encode_cls
        from lingualchemy.autodiff import AdamW

        opt_p = AdamW(list(plain.encoder.values()) + [plain.head_w, plain.head_b],
                      lr=1e-3, weight_decay=0.01)

        for step in range(50):
            train_step(regularized, batch, small_store, SETS, scaling, opt_r)
            pooled = encode_cls(plain.cfg, plain.encoder, batch)
            loss = _task_loss(plain, task_logits(plain, pooled), batch.labels)
            ad.backward(loss)
            opt_p.step()
            opt_p.zero_grad()

        for name, tensor in regularized.named_parameters():
            if name.startswith("proj"):
                continue
            other = dict(plain.named_parameters())[name]
            assert np.array_equal(tensor.data, other.data), name
