import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.encoder import (EncoderConfig, TokenBatch, _layer, encode_cls,
                                  init_encoder_params)
from lingualchemy.harness import (ExperimentConfig, build_model, eval_batches,
                                  prepare_benchmark)

from gradcheck import finite_difference_grad, sum_all

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
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3, n_layers=2,
                          max_seq_len=32, seed=0)

    def test_min_seq_len(self):
        with pytest.raises(ValueError, match="max_seq_len"):
            EncoderConfig(vocab_size=10, d_model=64, n_heads=4, n_layers=2,
                          max_seq_len=1, seed=0)

    @pytest.mark.parametrize("d_model, n_heads", [(16, 0), (16, -4), (0, 4)])
    def test_nonpositive_width_or_heads(self, d_model, n_heads):
        with pytest.raises(ValueError, match="positive"):
            EncoderConfig(vocab_size=10, d_model=d_model, n_heads=n_heads,
                          n_layers=2, max_seq_len=32, seed=0)


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
        out = encode_cls(CFG, params, batch_of([[0, 5, 7], [0, 2, 2]]))
        assert out.shape == (2, CFG.d_model)

    def test_forward_is_pure(self):
        params = init_encoder_params(CFG)
        b = batch_of([[0, 5, 7, 1]])
        o1 = encode_cls(CFG, params, b)
        o2 = encode_cls(CFG, params, b)
        np.testing.assert_array_equal(o1.data, o2.data)

    def test_batch_row_permutation_equivariance(self):
        params = init_encoder_params(CFG)
        ids = np.array([[0, 5, 7], [0, 2, 3], [0, 9, 9]])
        out = encode_cls(CFG, params, batch_of(ids)).data
        perm = [2, 0, 1]
        out_p = encode_cls(CFG, params, batch_of(ids[perm])).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_masked_position_cannot_influence_others(self):
        # recompute with a different token id at a masked slot: oracle check
        params = init_encoder_params(CFG)
        mask = np.array([[True, True, False, True]])
        a = encode_cls(CFG, params, batch_of([[0, 5, 7, 2]], mask=mask)).data
        b = encode_cls(CFG, params, batch_of([[0, 5, 12, 2]], mask=mask)).data
        assert np.abs(a - b).max() < 1e-6
        # an unmasked slot does reach the CLS row
        c = encode_cls(CFG, params, batch_of([[0, 5, 7, 9]], mask=mask)).data
        assert np.abs(a - c).max() > 1e-6

    def test_non_finite_row_at_a_masked_position_is_never_read(self):
        params = init_encoder_params(CFG)
        mask = np.array([[True, True, False, True], [True, False, False, False]])
        batch = batch_of([[0, 5, 7, 2], [0, 7, 7, 7]], mask=mask)
        clean = encode_cls(CFG, params, batch).data
        params["tok_emb"].data[7] = np.nan  # token 7 sits at masked positions only
        params["pos_emb"].data[2] = np.inf  # position 2 is masked in every row
        np.testing.assert_array_equal(encode_cls(CFG, params, batch).data, clean)

    def test_id_out_of_range(self):
        params = init_encoder_params(CFG)
        with pytest.raises(ValueError, match="vocabulary"):
            encode_cls(CFG, params, batch_of([[0, 99]]))

    def test_overlength_sequence(self):
        params = init_encoder_params(CFG)
        with pytest.raises(ValueError, match="max_seq_len"):
            encode_cls(CFG, params, batch_of([[0] * 9]))

    def test_cls_mask_enforced(self):
        with pytest.raises(ValueError, match="CLS"):
            batch_of([[0, 5]], mask=np.array([[False, True]]))


class TestForwardPacked(TestForward):
    """The same checks under ``no_grad``, where no graph is recorded."""

    @pytest.fixture(autouse=True)
    def _no_grad(self):
        with ad.no_grad():
            yield


def cls_rows(mask):
    """Indices of the CLS positions among the unmasked rows of ``mask``."""
    return np.flatnonzero(np.flatnonzero(mask) % mask.shape[1] == 0)


def full_forward_cls(cfg, params, batch):
    """Oracle: every layer, the last one included, on the rows of every
    unmasked position, then ``ln_f``, then the CLS rows."""
    mask = batch.attention_mask
    x = ad.embedding(params["tok_emb"], params["pos_emb"], batch.ids, mask)
    for i in range(cfg.n_layers):
        x = _layer(cfg, params, i, x, mask, None)
    x = ad.layer_norm(x, params["ln_f_g"], params["ln_f_b"])
    return ad.take_rows(x, cls_rows(mask))


class TestEncodeCls:
    """The CLS-only last layer gives what the full-length forward gives."""

    @staticmethod
    def value_and_grads(build, params, weights):
        out = build()
        ad.backward(sum_all(ad.mul(out, ad.Tensor(weights))))
        grads = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()
        return out.data, grads

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_matches_pooled_full_forward(self, n_layers):
        cfg = EncoderConfig(**{**CFG.__dict__, "n_layers": n_layers})
        params = init_encoder_params(cfg)
        mask = np.array([[True, True, True, True, True],
                         [True, True, True, False, False],
                         [True, False, False, False, False]])
        batch = batch_of([[0, 5, 7, 3, 1], [0, 2, 2, 9, 9], [0, 4, 0, 0, 0]],
                         mask=mask)
        weights = np.random.default_rng(n_layers).normal(size=(3, cfg.d_model))
        full, full_grads = self.value_and_grads(
            lambda: full_forward_cls(cfg, params, batch), params, weights)
        cls, cls_grads = self.value_and_grads(
            lambda: encode_cls(cfg, params, batch), params, weights)
        assert cls.shape == (3, cfg.d_model)
        np.testing.assert_allclose(cls, full, rtol=0, atol=1e-12)
        assert full_grads.keys() == cls_grads.keys()
        for name in full_grads:
            np.testing.assert_allclose(cls_grads[name], full_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)


def recorded_and_packed(cfg, params, batch):
    recorded = encode_cls(cfg, params, batch)
    with ad.no_grad():
        packed = encode_cls(cfg, params, batch)
    assert recorded.requires_grad and not packed.requires_grad
    return recorded.data, packed.data


# (ids, mask) batches; every row keeps its CLS
PACKED_CASES = {
    "mixed": ([[0, 5, 7, 3, 1], [0, 2, 2, 9, 9], [0, 4, 0, 0, 0]],
              [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]]),
    "row_of_cls_only": ([[0, 5, 7, 3], [0, 8, 8, 8]],
                        [[1, 1, 0, 1], [1, 0, 0, 0]]),
    "t1": ([[0], [3], [6]], [[1], [1], [1]]),
    "b1": ([[0, 5, 7, 3, 1, 2]], [[1, 1, 0, 1, 0, 1]]),
    "b1_cls_only": ([[0, 5, 7]], [[1, 0, 0]]),
}


class TestPackedLayout:
    """``encode_cls`` runs on packed rows of the unmasked positions whether
    or not the graph is recorded, so both forwards give the same bits."""

    @pytest.mark.parametrize("case", PACKED_CASES)
    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("d_model", [16, 32])
    def test_agrees_with_recorded_forward(self, case, n_layers, d_model):
        cfg = EncoderConfig(**{**CFG.__dict__, "n_layers": n_layers,
                               "d_model": d_model})
        params = init_encoder_params(cfg)
        ids, mask = PACKED_CASES[case]
        recorded, packed = recorded_and_packed(
            cfg, params, batch_of(ids, mask=np.array(mask, dtype=bool)))
        assert packed.shape == (len(ids), d_model)
        assert np.array_equal(packed, recorded)

    def test_position_wise_work_runs_on_unmasked_rows(self, monkeypatch):
        shapes, layer_norm = [], ad.layer_norm

        def recording_norm(x, gamma, beta):
            shapes.append(x.shape)
            return layer_norm(x, gamma, beta)

        monkeypatch.setattr(ad, "layer_norm", recording_norm)
        ids, mask = PACKED_CASES["mixed"]
        batch = batch_of(ids, mask=np.array(mask, dtype=bool))
        n, d = int(np.sum(mask)), CFG.d_model
        for recorded in (True, False):
            shapes.clear()
            if recorded:
                assert encode_cls(CFG, init_encoder_params(CFG), batch).requires_grad
            else:
                with ad.no_grad():
                    encode_cls(CFG, init_encoder_params(CFG), batch)
            # layer 0 twice on rows, then the last layer's ln1, its CLS ln2, ln_f
            assert shapes == [(n, d), (n, d), (n, d), (3, d), (3, d)], recorded

    def test_bit_equal_on_default_benchmark(self):
        """Every forward-only batch that eval and align encode on the default
        benchmark: each language's test split and the train split."""
        cfg = ExperimentConfig()
        bench = prepare_benchmark(cfg)
        model = build_model(cfg, len(bench.corpus.vocab),
                            bench.store.vector_dim(cfg.feature_sets), 1)
        corpora = [bench.corpus.subset("train")] + [
            bench.corpus.for_langs([lang]).subset("test")
            for lang in bench.seen + bench.unseen]
        batches = [b for corpus in corpora for b in eval_batches(corpus, cfg)]
        assert len(batches) > len(corpora)
        for batch in batches:
            recorded, packed = recorded_and_packed(model.cfg, model.encoder, batch)
            np.testing.assert_array_equal(packed.view(np.uint64),
                                          recorded.view(np.uint64))


class TestPooling:
    """The last layer takes the CLS rows out of the packed rows."""

    MASK = np.array([[True, True, False, True], [True, False, False, False],
                     [True, True, True, False]])

    def test_pool_cls_slice(self):
        rows = ad.Tensor(np.arange(18, dtype=np.float64).reshape(6, 3))
        got = ad.take_rows(rows, cls_rows(self.MASK))
        assert got.data.tolist() == [[0.0, 1.0, 2.0], [9.0, 10.0, 11.0],
                                     [12.0, 13.0, 14.0]]

    def test_pool_cls_ignores_other_positions(self):
        base = np.zeros((6, 2))
        base[[0, 3, 4]] = [1.0, 2.0]
        other = base.copy()
        other[[1, 2, 5]] = 9.0
        np.testing.assert_array_equal(
            ad.take_rows(ad.Tensor(base), cls_rows(self.MASK)).data,
            ad.take_rows(ad.Tensor(other), cls_rows(self.MASK)).data)

    def test_pool_cls_gradient_only_into_position_zero(self):
        hidden = ad.Tensor(np.random.default_rng(0).normal(size=(6, 4)),
                           requires_grad=True)
        cls = cls_rows(self.MASK)
        loss = ad.mse(ad.take_rows(hidden, cls), ad.Tensor(np.zeros((3, 4))))
        ad.backward(loss)
        assert np.abs(hidden.grad[[1, 2, 5]]).max() == 0.0
        # finite differences confirm zero gradient at a non-CLS input
        def loss_fn():
            return ad.mse(ad.take_rows(hidden, cls),
                          ad.Tensor(np.zeros((3, 4)))).item()
        fd = finite_difference_grad(loss_fn, hidden, coords=[5, 9])
        flat_positions = fd.reshape(-1)
        assert abs(flat_positions[5]) < 1e-9 and abs(flat_positions[9]) < 1e-9
