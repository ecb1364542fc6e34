import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.autodiff import AdamW, Tensor
from lingualchemy.errors import DataError

from gradcheck import check_grad, sum_all


def scalarize(out: Tensor) -> Tensor:
    """Deterministic weighted-sum reduction so gradients stay dense."""
    if out.data.shape == ():
        return out
    w = np.linspace(0.3, 1.7, out.data.size).reshape(out.data.shape)
    return sum_all(ad.mul(out, Tensor(w)))


def run_gradcheck(build, tensors, tol=1e-6):
    """backward() vs finite differences for every tensor in ``tensors``."""
    loss = scalarize(build())
    ad.backward(loss)
    for t in tensors:
        check_grad(lambda: scalarize(build()).item(), t, tol=tol)
        t.zero_grad()


class TestLinear:
    def test_hand_product(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[1.0], [1.0]])
        assert ad.linear(x, w, Tensor([0.5])).data.tolist() == [[3.5], [7.5]]

    def test_identity(self, rng):
        x = rng.normal(size=(3, 3))
        got = ad.linear(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3))).data
        np.testing.assert_array_equal(got, x)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="inner dims"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))),
                      Tensor(np.ones(3)))
        with pytest.raises(ValueError, match="bias shape"):
            ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))),
                      Tensor(np.ones(3)))
        # batched products live inside ad.attention; the weight is a matrix
        with pytest.raises(ValueError, match="unsupported ranks"):
            ad.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 3))),
                      Tensor(np.ones(3)))

    def test_gradient_vs_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        run_gradcheck(lambda: ad.linear(x, w, b), [x, w, b])

    def test_rank3_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        run_gradcheck(lambda: ad.linear(x, w, b), [x, w, b])


class TestElementwise:
    def test_add(self):
        got = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert got.data.tolist() == [4.0, 6.0]

    def test_gelu_at_zero(self):
        assert ad.gelu(Tensor(0.0)).item() == 0.0

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible"):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_binary_gradients(self, op, rng):
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        run_gradcheck(lambda: op(a, b), [a, b])

    def test_gelu_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        run_gradcheck(lambda: ad.gelu(x), [x])

    def test_softplus_gradient(self, rng):
        x = Tensor(rng.normal(size=(5,)), requires_grad=True)
        run_gradcheck(lambda: ad.softplus(x), [x])


class TestLayerNorm:
    def test_constant_row_zeroes(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        got = ad.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(got.data, 0.0, atol=1e-9)

    def test_two_point_row(self):
        # mean 2, population variance 1 -> (x - 2) / sqrt(1 + eps), eps = 1e-5
        x = Tensor([[1.0, 3.0]])
        got = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        r = 1.0 / np.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(got.data, [[-r, r]], atol=1e-6)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        g = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        run_gradcheck(lambda: ad.layer_norm(x, g, b), [x, g, b], tol=1e-5)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [1])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_dominant_logit_is_stable(self):
        loss = ad.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="label"):
            ad.softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_matches_naive_loop_oracle(self, rng):
        logits = rng.normal(size=(2, 5))
        labels = [3, 0]
        # independent scalar-loop computation
        total = 0.0
        for i, label in enumerate(labels):
            row = logits[i]
            denom = sum(np.exp(v) for v in row)
            total += -np.log(np.exp(row[label]) / denom)
        expected = total / len(labels)
        got = ad.softmax_cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        run_gradcheck(lambda: ad.softmax_cross_entropy(logits, [0, 2, 1, 1]),
                      [logits])


class TestMse:
    def test_equal_inputs(self, rng):
        x = rng.normal(size=(3, 4))
        assert ad.mse(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_hand_example(self):
        # rows each at squared distance 2 -> mean 2
        pred = Tensor([[0.0, 0.0], [2.0, 2.0]])
        target = Tensor([[1.0, 1.0], [1.0, 1.0]])
        assert ad.mse(pred, target).item() == 2.0

    def test_matches_naive_loop_oracle(self, rng):
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        total = 0.0
        for i in range(4):
            row = 0.0
            for j in range(3):
                row += (pred[i, j] - target[i, j]) ** 2
            total += row
        expected = total / 4
        got = ad.mse(Tensor(pred), Tensor(target)).item()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            ad.mse(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))

    def test_gradient(self, rng):
        pred = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        run_gradcheck(lambda: ad.mse(pred, target), [pred, target])


class TestStructuralOps:
    def test_embedding_gather_and_gradient(self, rng):
        tok = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        pos = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        out = ad.embedding(tok, pos, ids)
        for b in range(2):
            for t in range(3):
                np.testing.assert_array_equal(out.data[b, t],
                                              tok.data[ids[b, t]] + pos.data[t])
        run_gradcheck(lambda: ad.embedding(tok, pos, ids), [tok, pos])
        # position rows past the sequence length get no gradient
        ad.backward(scalarize(ad.embedding(tok, pos, ids)))
        assert (pos.grad[3:] == 0.0).all() and (pos.grad[:3] != 0.0).all()

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ValueError, match="id out of range"):
            ad.embedding(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))),
                         np.array([[4]]))

    def test_embedding_sequence_longer_than_positions(self):
        with pytest.raises(ValueError, match="exceeds max_seq_len 4"):
            ad.embedding(Tensor(np.ones((3, 2))), Tensor(np.ones((4, 2))),
                         np.zeros((1, 5), dtype=np.int64))

    def test_pooling_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        run_gradcheck(lambda: ad.take_first_position(x), [x])
        run_gradcheck(lambda: ad.slice_positions(x, 2), [x])


class TestAttention:
    MASK = np.array([[True, True, False, True],
                     [True, False, False, False]])

    @staticmethod
    def reference(q, k, v, key_mask, n_heads):
        """Plain per-head loop: softmax(q_h k_h^T / sqrt(hd)) v_h, concatenated."""
        hd = q.shape[-1] // n_heads
        heads = []
        for h in range(n_heads):
            lo, hi = h * hd, (h + 1) * hd
            qh, kh, vh = (z[..., lo:hi].copy() for z in (q, k, v))
            scores = (qh @ np.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(hd))
            scores = np.where(key_mask[:, None, :], scores, -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append((e / e.sum(axis=-1, keepdims=True)) @ vh)
        return np.concatenate(heads, axis=-1)

    def qkv(self, rng, shape=(2, 4, 6)):
        return [Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(3)]

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_equals_per_head_reference(self, rng, n_heads):
        q, k, v = self.qkv(rng)
        got = ad.attention(q, k, v, self.MASK, n_heads)
        assert got.data.shape == (2, 4, 6)
        np.testing.assert_array_equal(
            got.data, self.reference(q.data, k.data, v.data, self.MASK, n_heads))

    def test_rows_are_probabilities(self, rng):
        # one head, d == T, v[b, t] = e_t: each output row is that query's
        # attention distribution over the keys
        t = 4
        q = Tensor(rng.normal(size=(2, t, t)))
        k = Tensor(rng.normal(size=(2, t, t)))
        v = Tensor(np.broadcast_to(np.eye(t), (2, t, t)).copy())
        probs = ad.attention(q, k, v, self.MASK, n_heads=1).data
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert (probs[0, :, 2] == 0.0).all()
        assert (probs[1, :, 1:] == 0.0).all()

    def test_gradient_under_partial_mask(self, rng):
        q, k, v = self.qkv(rng)
        run_gradcheck(lambda: ad.attention(q, k, v, self.MASK, 2), [q, k, v],
                      tol=1e-5)

    def test_first_query_row_equals_row_zero_of_full_result(self, rng):
        q, k, v = self.qkv(rng)
        full = ad.attention(q, k, v, self.MASK, 2).data
        first = ad.attention(Tensor(q.data[:, :1]), k, v, self.MASK, 2).data
        assert first.shape == (2, 1, 6)
        np.testing.assert_allclose(first, full[:, :1], rtol=0, atol=1e-12)

    def test_gradient_with_fewer_queries_than_keys(self, rng):
        q = Tensor(rng.normal(size=(2, 1, 6)), requires_grad=True)
        _, k, v = self.qkv(rng)
        run_gradcheck(lambda: ad.attention(q, k, v, self.MASK, 2), [q, k, v],
                      tol=1e-5)

    def test_shape_errors(self, rng):
        q, k, v = self.qkv(rng)
        with pytest.raises(ValueError, match="share one"):
            ad.attention(q, k, Tensor(np.ones((2, 4, 4))), self.MASK, 2)
        with pytest.raises(ValueError, match="share one"):
            flat = Tensor(np.ones((4, 6)))
            ad.attention(flat, flat, flat, self.MASK, 2)
        with pytest.raises(ValueError, match="key_mask"):
            ad.attention(q, k, v, self.MASK[:, :3], 2)
        with pytest.raises(ValueError, match="Tq <= T"):
            ad.attention(Tensor(np.ones((2, 5, 6))), k, v, self.MASK, 2)

    @pytest.mark.parametrize("n_heads", [0, 4])
    def test_heads_must_divide_width(self, rng, n_heads):
        q, k, v = self.qkv(rng)
        with pytest.raises(ValueError, match="not divisible"):
            ad.attention(q, k, v, self.MASK, n_heads)


class TestBackwardSemantics:
    def test_x_squared(self):
        x = Tensor(3.0, requires_grad=True)
        ad.backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_accumulation_without_zeroing(self):
        x = Tensor(3.0, requires_grad=True)
        loss = ad.mul(x, x)
        ad.backward(loss)
        ad.backward(loss)
        assert x.grad == pytest.approx(12.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_diamond_graph(self):
        # loss = (x*x) + (x*x) -> d/dx = 4x
        x = Tensor(2.0, requires_grad=True)
        sq = ad.mul(x, x)
        ad.backward(ad.add(sq, sq))
        assert x.grad == pytest.approx(8.0)

    def test_only_leaves_keep_a_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        sq = ad.mul(x, x)
        loss = ad.add(sq, sq)
        ad.backward(loss)
        assert x.grad == pytest.approx(12.0)
        assert sq.grad is None and loss.grad is None

    def test_no_grad_suppresses_graph(self):
        x = Tensor(3.0, requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._vjp is None and not y.requires_grad

    def test_replay_determinism(self, rng):
        def run():
            r = np.random.default_rng(7)
            a = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            b = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            c = Tensor(r.normal(size=4), requires_grad=True)
            loss = ad.mse(ad.gelu(ad.linear(a, b, c)), Tensor(np.zeros((4, 4))))
            ad.backward(loss)
            return loss.item(), a.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestAdamW:
    def test_first_step_magnitude(self):
        # bias correction makes the first update ~lr in the direction of g
        w = Tensor(1.0, requires_grad=True)
        w.grad = np.asarray(1.0)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        opt.step()
        assert w.data == pytest.approx(0.9, abs=1e-8)

    def test_zero_gradient_no_motion(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        w.grad = np.zeros(2)
        opt = AdamW([w], lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(w.data, [1.0, -2.0])

    def test_decoupled_weight_decay(self):
        w = Tensor(1.0, requires_grad=True)
        w.grad = np.asarray(0.0)
        opt = AdamW([w], lr=0.1, weight_decay=0.01)
        opt.step()
        assert w.data == pytest.approx(0.999, abs=1e-15)

    def test_missing_grad_raises(self):
        w = Tensor(1.0, requires_grad=True)
        opt = AdamW([w], lr=0.1)
        with pytest.raises(RuntimeError, match="no gradient"):
            opt.step()

    def test_step_counter(self):
        w = Tensor(1.0, requires_grad=True)
        opt = AdamW([w], lr=0.1)
        w.grad = np.asarray(1.0)
        opt.step()
        w.grad = np.asarray(1.0)
        opt.step()
        assert opt.step_count == 2


class TestFlatAdamW:
    """The flat, fused AdamW against today's per-parameter loop."""

    @staticmethod
    def reference_steps(values, grads_per_step, decayed, lr, weight_decay):
        """The per-parameter update, one parameter at a time."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        values = [np.array(x, dtype=np.float64) for x in values]
        m = [np.zeros_like(v) for v in values]
        v = [np.zeros_like(x) for x in values]
        for t, grads in enumerate(grads_per_step, start=1):
            bc1 = 1.0 - beta1 ** t
            bc2 = 1.0 - beta2 ** t
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1.0 - beta1) * g
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
                m_hat = m[i] / bc1
                v_hat = v[i] / bc2
                values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
                if weight_decay and decayed[i]:
                    values[i] = values[i] - lr * weight_decay * values[i]
        return values

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bit_identical_to_per_parameter_loop(self, rng, weight_decay):
        shapes = [(3, 4), (), (5,), (), (2, 3, 2)]
        values = [rng.normal(size=s) for s in shapes]
        params = [Tensor(v.copy(), requires_grad=True) for v in values]
        raw = params[3]   # a 0-d no_decay scalar amid decayed parameters
        decayed = [p is not raw for p in params]
        opt = AdamW(params, lr=0.01, weight_decay=weight_decay, no_decay=[raw])
        grads_per_step = [[rng.normal(size=s) for s in shapes]
                          for _ in range(50)]
        for grads in grads_per_step:
            for p, g in zip(params, grads):
                p.grad = np.asarray(g)
            opt.step()
            opt.zero_grad()
        want = self.reference_steps(values, grads_per_step, decayed, lr=0.01,
                                    weight_decay=weight_decay)
        for p, w in zip(params, want):
            assert p.data.shape == w.shape
            np.testing.assert_array_equal(p.data, w)

    def test_replaced_data_raises(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = AdamW([w], lr=0.1)
        w.data = np.array([3.0, 4.0])
        w.grad = np.ones(2)
        with pytest.raises(RuntimeError, match="replaced"):
            opt.step()

    def test_no_decay_outside_parameters_raises(self):
        w = Tensor(1.0, requires_grad=True)
        stray = Tensor(2.0, requires_grad=True)
        with pytest.raises(ValueError, match="no_decay"):
            AdamW([w], lr=0.1, no_decay=[stray])


class TestInPlaceOps:
    """layer_norm and gelu compute in place: same bits as the plain
    formulas, and no input, saved array or upstream gradient is written."""

    @staticmethod
    def layer_norm_reference(x, gamma, beta, g, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc ** 2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        out = gamma * xhat + beta
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return out, (dx, dgamma, dbeta)

    @staticmethod
    def gelu_reference(x, g):
        sq = x * x
        t = np.tanh(ad._GELU_C * (x + 0.044715 * sq * x))
        out = 0.5 * x * (1.0 + t)
        du = ad._GELU_C * (1.0 + 3 * 0.044715 * sq)
        return out, (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    @staticmethod
    def check(op, inputs, g, want_out, want_grads):
        before = [t.data.copy() for t in inputs] + [g.copy()]
        out = op()
        np.testing.assert_array_equal(out.data, want_out)
        # twice: a second backward pass must find the saved arrays intact
        for _ in range(2):
            grads = out._vjp(g)
            assert len(grads) == len(want_grads)
            for got, want in zip(grads, want_grads):
                np.testing.assert_array_equal(got, want)
        for arr, copy in zip([t.data for t in inputs] + [g], before):
            np.testing.assert_array_equal(arr, copy)

    @pytest.mark.parametrize("shape", [(4, 5, 8), (3, 6)])
    def test_layer_norm(self, rng, shape):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gamma = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        beta = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
        g = rng.normal(size=shape)
        want_out, want_grads = self.layer_norm_reference(x.data, gamma.data,
                                                         beta.data, g)
        self.check(lambda: ad.layer_norm(x, gamma, beta), [x, gamma, beta], g,
                   want_out, want_grads)

    @pytest.mark.parametrize("shape", [(4, 5, 8), ()])
    def test_gelu(self, rng, shape):
        x = Tensor(rng.normal(size=shape) * 3.0, requires_grad=True)
        g = np.asarray(rng.normal(size=shape))
        want_out, want_grads = self.gelu_reference(x.data, g)
        self.check(lambda: ad.gelu(x), [x], g, want_out, want_grads)


class TestGradProperty:
    """Finite differences agree with backward on random instances of every op."""

    def test_random_op_sweep(self):
        ops = []
        r = np.random.default_rng(99)
        for trial in range(20):
            a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(r.normal(size=(3, 4)), requires_grad=True)
            m = Tensor(r.normal(size=(4, 2)), requires_grad=True)
            c = Tensor(r.normal(size=2), requires_grad=True)
            minus = Tensor(np.full((3, 4), -1.0))
            run_gradcheck(lambda: ad.mul(ad.add(a, b), ad.add(a, ad.mul(b, minus))),
                          [a, b], tol=1e-4)
            run_gradcheck(lambda: ad.linear(ad.gelu(a), m, c), [a, m, c], tol=1e-4)


class TestCheckpoint:
    def test_round_trip_exact_for_float32(self, tmp_path, rng):
        params = [
            ("w1", Tensor(rng.normal(size=(3, 4)).astype(np.float32))),
            ("nested.b", Tensor(rng.normal(size=(4,)).astype(np.float32))),
            ("scalar", Tensor(np.float32(1.25))),
        ]
        path = tmp_path / "model.lalc"
        ad.save_checkpoint(path, params)
        loaded = ad.load_checkpoint(path)
        assert list(loaded) == ["w1", "nested.b", "scalar"]
        for name, tensor in params:
            np.testing.assert_array_equal(loaded[name],
                                          tensor.data.astype(np.float32))

    def test_file_level_round_trip_bytes(self, tmp_path, rng):
        params = [("w", Tensor(rng.normal(size=(5, 2))))]
        p1, p2 = tmp_path / "a.lalc", tmp_path / "b.lalc"
        ad.save_checkpoint(p1, params)
        loaded = ad.load_checkpoint(p1)
        ad.save_checkpoint(p2, list(loaded.items()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_layout(self, tmp_path):
        path = tmp_path / "m.lalc"
        ad.save_checkpoint(path, [("x", Tensor(np.zeros((2,))))])
        blob = path.read_bytes()
        assert blob[:4] == b"LALC"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:8], "little") == 1  # name length
        assert blob[8:9] == b"x"
        assert blob[9] == 1  # rank
        assert int.from_bytes(blob[10:14], "little") == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.lalc"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(DataError, match="magic"):
            ad.load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "cut.lalc"
        ad.save_checkpoint(path, [("w", Tensor(np.ones((3, 4))))])
        blob = path.read_bytes()
        for cut in (5, 7, 9, 12, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="truncated"):
                ad.load_checkpoint(path)


class TestOpSet:
    def test_every_public_function_has_a_caller_in_src(self):
        """The engine holds only what the package uses; test helpers such
        as ``sum_all`` live with the tests."""
        used = set()
        for path in Path(ad.__file__).parent.glob("*.py"):
            if path.name == "autodiff.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "autodiff":
                    used.update(alias.name for alias in node.names)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "ad"):
                    used.add(node.attr)
        public = [name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                  if not name.startswith("_") and fn.__module__ == ad.__name__]
        assert "embedding" in public
        assert [name for name in public if name not in used] == []
