import numpy as np
import pytest

from lingualchemy import autodiff as ad
from lingualchemy.autodiff import AdamW, Tensor
from lingualchemy.errors import DataError

from gradcheck import check_grad, finite_difference_grad, relative_error


def scalarize(out: Tensor) -> Tensor:
    """Deterministic weighted-sum reduction so gradients stay dense."""
    if out.data.shape == ():
        return out
    w = np.linspace(0.3, 1.7, out.data.size).reshape(out.data.shape)
    return ad.sum_all(ad.mul(out, Tensor(w)))


def run_gradcheck(build, tensors, tol=1e-6):
    """backward() vs finite differences for every tensor in ``tensors``."""
    loss = scalarize(build())
    ad.backward(loss)
    for t in tensors:
        check_grad(lambda: scalarize(build()).item(), t, tol=tol)
        t.zero_grad()


class TestMatmul:
    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert ad.matmul(a, b).data.tolist() == [[3.0], [7.0]]

    def test_identity(self, rng):
        x = rng.normal(size=(3, 3))
        got = ad.matmul(Tensor(np.eye(3)), Tensor(x)).data
        np.testing.assert_array_equal(got, x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradient_vs_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        run_gradcheck(lambda: ad.matmul(a, b), [a, b])

    def test_batched_right_operand_rejected(self):
        # batched products live inside ad.attention; the right operand is a matrix
        with pytest.raises(ValueError, match="unsupported ranks"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 3))))

    def test_rank3_by_rank2_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        run_gradcheck(lambda: ad.matmul(a, b), [a, b])


class TestElementwise:
    def test_add(self):
        got = ad.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert got.data.tolist() == [4.0, 6.0]

    def test_gelu_at_zero(self):
        assert ad.gelu(Tensor(0.0)).item() == 0.0

    def test_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible"):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_scalar_broadcast(self):
        got = ad.mul(Tensor([2.0, 3.0]), Tensor(2.0))
        assert got.data.tolist() == [4.0, 6.0]

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
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

    def test_add_bias_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        run_gradcheck(lambda: ad.add_bias(x, b), [x, b])


class TestLayerNorm:
    def test_constant_row_zeroes(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        got = ad.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(got.data, 0.0, atol=1e-9)

    def test_two_point_row(self):
        # mean 2, population sd 1 -> normalized to (-1, 1) as eps -> 0
        x = Tensor([[1.0, 3.0]])
        got = ad.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(got.data, [[-1.0, 1.0]], atol=1e-6)

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
    def test_slice_rows_gradient(self, rng):
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        run_gradcheck(lambda: ad.slice_rows(x, 2), [x])

    def test_embedding_gather_and_gradient(self, rng):
        table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        out = ad.embedding(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])
        run_gradcheck(lambda: ad.embedding(table, ids), [table])

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ValueError, match="id out of range"):
            ad.embedding(Tensor(np.ones((3, 2))), np.array([[4]]))

    def test_mean_pool_masked_hand_case(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
        mask = np.array([[True, True, False]])
        got = ad.mean_pool_masked(x, mask)
        assert got.data.tolist() == [[2.0, 3.0]]

    def test_pooling_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        mask = np.array([[True, True, False, True],
                         [True, False, False, False]])
        run_gradcheck(lambda: ad.mean_pool_masked(x, mask), [x])
        run_gradcheck(lambda: ad.take_first_position(x), [x])


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

    def test_shape_errors(self, rng):
        q, k, v = self.qkv(rng)
        with pytest.raises(ValueError, match="share one"):
            ad.attention(q, k, Tensor(np.ones((2, 4, 4))), self.MASK, 2)
        with pytest.raises(ValueError, match="share one"):
            flat = Tensor(np.ones((4, 6)))
            ad.attention(flat, flat, flat, self.MASK, 2)
        with pytest.raises(ValueError, match="key_mask"):
            ad.attention(q, k, v, self.MASK[:, :3], 2)

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
            loss = ad.mse(ad.gelu(ad.matmul(a, b)), Tensor(np.zeros((4, 4))))
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


class TestGradProperty:
    """Finite differences agree with backward on random instances of every op."""

    def test_random_op_sweep(self):
        ops = []
        r = np.random.default_rng(99)
        for trial in range(20):
            a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(r.normal(size=(3, 4)), requires_grad=True)
            m = Tensor(r.normal(size=(4, 2)), requires_grad=True)
            run_gradcheck(lambda: ad.mul(ad.add(a, b), ad.sub(a, b)), [a, b],
                          tol=1e-4)
            run_gradcheck(lambda: ad.matmul(ad.gelu(a), m), [a, m], tol=1e-4)


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
