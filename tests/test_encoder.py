import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.encoder import (EncoderConfig, TokenBatch, encoder_forward,
                                  init_encoder_params, pool_cls,
                                  pool_mean_masked)

from gradcheck import finite_difference_grad, relative_error

CFG = EncoderConfig(vocab_size=19, d_model=16, n_heads=2, n_layers=2,
                    max_seq_len=8, seed=11)


def batch_of(ids, mask=None, langs=None):
    ids = np.asarray(ids)
    if mask is None:
        mask = np.ones_like(ids, dtype=bool)
    langs = langs or tuple("xx" for _ in range(len(ids)))
    return TokenBatch(ids=ids, attention_mask=mask, langs=tuple(langs),
                      labels=np.zeros(len(ids), dtype=np.int64))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_min_seq_len(self):
        with pytest.raises(ValueError, match="max_seq_len"):
            EncoderConfig(vocab_size=10, max_seq_len=1)


class TestInit:
    def test_same_seed_bit_identical(self):
        p1 = init_encoder_params(CFG)
        p2 = init_encoder_params(CFG)
        assert p1.keys() == p2.keys()
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)

    def test_different_seed_differs(self):
        p1 = init_encoder_params(CFG)
        p2 = init_encoder_params(EncoderConfig(**{**CFG.__dict__, "seed": 12}))
        assert any(not np.array_equal(p1[k].data, p2[k].data) for k in p1)

    def test_fan_in_bound(self):
        params = init_encoder_params(CFG)
        w = params["l0.wq"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(CFG.d_model)


class TestForward:
    def test_output_shape(self):
        params = init_encoder_params(CFG)
        out = encoder_forward(CFG, params, batch_of([[0, 5, 7], [0, 2, 2]]))
        assert out.shape == (2, 3, CFG.d_model)

    def test_forward_is_pure(self):
        params = init_encoder_params(CFG)
        b = batch_of([[0, 5, 7, 1]])
        o1 = encoder_forward(CFG, params, b)
        o2 = encoder_forward(CFG, params, b)
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_batch_row_permutation_equivariance(self):
        params = init_encoder_params(CFG)
        ids = np.array([[0, 5, 7], [0, 2, 3], [0, 9, 9]])
        out = encoder_forward(CFG, params, batch_of(ids)).data
        perm = [2, 0, 1]
        out_p = encoder_forward(CFG, params, batch_of(ids[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_masked_position_cannot_influence_others(self):
        # recompute with a different token id at a masked slot: oracle check
        params = init_encoder_params(CFG)
        mask = np.array([[True, True, False, True]])
        a = encoder_forward(CFG, params,
                            batch_of([[0, 5, 7, 2]], mask=mask)).data
        b = encoder_forward(CFG, params,
                            batch_of([[0, 5, 12, 2]], mask=mask)).data
        keep = [0, 1, 3]
        assert np.abs(a[:, keep] - b[:, keep]).max() < 1e-6

    def test_id_out_of_range(self):
        params = init_encoder_params(CFG)
        with pytest.raises(ValueError, match="vocabulary"):
            encoder_forward(CFG, params, batch_of([[0, 99]]))

    def test_overlength_sequence(self):
        params = init_encoder_params(CFG)
        with pytest.raises(ValueError, match="max_seq_len"):
            encoder_forward(CFG, params, batch_of([[0] * 9]))

    def test_cls_mask_enforced(self):
        with pytest.raises(ValueError, match="CLS"):
            batch_of([[0, 5]], mask=np.array([[False, True]]))


class TestPooling:
    def test_pool_cls_slice(self):
        hidden = ad.Tensor(np.arange(12, dtype=np.float64).reshape(1, 4, 3))
        got = pool_cls(hidden)
        assert got.data.tolist() == [[0.0, 1.0, 2.0]]

    def test_pool_cls_ignores_other_positions(self):
        base = np.zeros((1, 3, 2))
        base[0, 0] = [1.0, 2.0]
        other = base.copy()
        other[0, 1:] = 9.0
        np.testing.assert_array_equal(pool_cls(ad.Tensor(base)).data,
                                      pool_cls(ad.Tensor(other)).data)

    def test_pool_cls_gradient_only_into_position_zero(self):
        hidden = ad.Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)),
                           requires_grad=True)
        pooled = pool_cls(hidden)
        loss = ad.mse(pooled, ad.Tensor(np.zeros((2, 4))))
        ad.backward(loss)
        assert np.abs(hidden.grad[:, 1:]).max() == 0.0
        # finite differences confirm zero gradient at a non-CLS input
        def loss_fn():
            return ad.mse(pool_cls(hidden), ad.Tensor(np.zeros((2, 4)))).item()
        fd = finite_difference_grad(loss_fn, hidden, coords=[5, 9])
        flat_positions = fd.reshape(-1)
        assert abs(flat_positions[5]) < 1e-9 and abs(flat_positions[9]) < 1e-9

    def test_mean_masked_hand_case(self):
        hidden = ad.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
        mask = np.array([[True, True, False]])
        assert pool_mean_masked(hidden, mask).data.tolist() == [[2.0, 3.0]]

    def test_mean_masked_all_true_constant(self):
        hidden = ad.Tensor(np.full((2, 3, 4), 7.0))
        mask = np.ones((2, 3), dtype=bool)
        np.testing.assert_allclose(pool_mean_masked(hidden, mask).data, 7.0)

    def test_mean_masked_ignores_masked_values(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(1, 3, 2))
        mask = np.array([[True, False, True]])
        toggled = base.copy()
        toggled[0, 1] = 123.0
        a = pool_mean_masked(ad.Tensor(base), mask).data
        b = pool_mean_masked(ad.Tensor(toggled), mask).data
        np.testing.assert_array_equal(a, b)

    def test_all_false_row_rejected(self):
        hidden = ad.Tensor(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="no unmasked"):
            pool_mean_masked(hidden, np.array([[False, False]]))
