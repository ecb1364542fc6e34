import csv
import time

import numpy as np
import pytest

from lingualchemy.alignment import (GD_CLIP_NORM, GD_ITERS, GD_LR, GD_SEED,
                                    AlignmentFit, ClosedForm, GradientDescent,
                                    SentenceRepSet, align_representations,
                                    collect_sentence_reps, export_alignment_pca,
                                    export_alignment_report, fit_alignment,
                                    pca_2d, r_squared)
from lingualchemy.alchemy import init_alchemy_model
from lingualchemy.encoder import EncoderConfig, TokenBatch, encode_cls
from lingualchemy.errors import NumericError
from lingualchemy.uriel import FeatureSet, load_uriel_tsv

from conftest import write_tsv


def random_affine_data(rng, n=200, d_rep=6, d_out=3, noise=0.0):
    x = rng.normal(size=(n, d_rep))
    a = rng.normal(size=(d_out, d_rep))
    c = rng.normal(size=d_out)
    y = x @ a.T + c + noise * rng.normal(size=(n, d_out))
    return SentenceRepSet(reps=x, langs=tuple(f"l{i}" for i in range(n)),
                          targets=y), a, c


class TestRSquared:
    def test_perfect_prediction(self, rng):
        y = rng.normal(size=(10, 3))
        assert r_squared(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_column_mean_baseline_is_zero(self, rng):
        y = rng.normal(size=(12, 4))
        pred = np.tile(y.mean(axis=0), (12, 1))
        assert r_squared(pred, y) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # residual 1 against total variation 2 -> 0.5
        target = np.array([1.0, 2.0, 3.0])
        pred = np.array([1.0, 2.0, 4.0])
        assert r_squared(pred, target) == pytest.approx(0.5, abs=1e-12)

    def test_can_be_negative(self):
        target = np.array([1.0, 2.0, 3.0])
        pred = np.array([10.0, -5.0, 8.0])
        assert r_squared(pred, target) < 0.0

    def test_all_constant_dims_undefined(self):
        target = np.full((5, 2), 3.0)
        with pytest.raises(NumericError, match="undefined"):
            r_squared(np.zeros((5, 2)), target)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="2 rows"):
            r_squared(np.ones((1, 2)), np.ones((1, 2)))

    def test_partially_constant_dims_skipped(self):
        # the constant dim is excluded from the uniform average
        target = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        pred = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assert r_squared(pred, target) == pytest.approx(0.5, abs=1e-12)

    def test_row_permutation_invariance(self, rng):
        pred = rng.normal(size=(9, 2))
        target = rng.normal(size=(9, 2))
        perm = rng.permutation(9)
        assert r_squared(pred, target) == pytest.approx(
            r_squared(pred[perm], target[perm]), abs=1e-12)


class TestFitClosedForm:
    def test_identity_design_exact(self):
        # rank-deficient after centering; minimum-norm solve must still
        # reproduce the two targets exactly
        data = SentenceRepSet(reps=np.eye(2), langs=("a", "b"),
                              targets=np.array([[2.0, 3.0], [4.0, 5.0]]))
        fit = fit_alignment(data, ClosedForm(ridge=0.0))
        assert fit.residual_mse < 1e-12

    def test_exact_affine_map_r2_one(self, rng):
        data, a, c = random_affine_data(rng)
        fit = fit_alignment(data, ClosedForm(ridge=0.0))
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(fit.weight, a, atol=1e-8)
        np.testing.assert_allclose(fit.bias, c, atol=1e-8)

    def test_ridge_shrinks_weights(self, rng):
        data, _, _ = random_affine_data(rng, n=50)
        small = fit_alignment(data, ClosedForm(ridge=1e-6))
        big = fit_alignment(data, ClosedForm(ridge=1e3))
        assert np.linalg.norm(big.weight) < np.linalg.norm(small.weight)

    def test_closed_form_is_optimal(self, rng):
        data, _, _ = random_affine_data(rng, n=80, noise=0.3)
        closed = fit_alignment(data, ClosedForm(ridge=0.0))
        descended = fit_alignment(data, GradientDescent())
        assert closed.residual_mse <= descended.residual_mse + 1e-12


class TestFitGradientDescent:
    def test_matches_closed_form(self, rng):
        data, _, _ = random_affine_data(rng, n=150, d_rep=5, d_out=3, noise=0.05)
        closed = fit_alignment(data, ClosedForm(ridge=0.0))
        descended = fit_alignment(data, GradientDescent())
        rel = (np.linalg.norm(descended.weight - closed.weight)
               / np.linalg.norm(closed.weight))
        assert rel < 1e-3

    def test_deterministic_given_seed(self, rng):
        data, _, _ = random_affine_data(rng, n=40)
        f1 = fit_alignment(data, GradientDescent())
        f2 = fit_alignment(data, GradientDescent())
        np.testing.assert_array_equal(f1.weight, f2.weight)

    @pytest.mark.parametrize("n, d_rep, d_out, offset", [
        (400, 8, 5, 0.0),      # criterion 6's data
        (2496, 32, 6, 100.0),  # the default align shape, far from the origin
        (50, 32, 4, 0.0),      # fewer rows than columns
    ])
    def test_matches_per_row_loop(self, n, d_rep, d_out, offset):
        data, _, _ = random_affine_data(np.random.default_rng(6), n=n,
                                        d_rep=d_rep, d_out=d_out, noise=0.01)
        data.reps += offset
        w_ref, b_ref = per_row_descent(data.reps, data.targets)
        fit = fit_alignment(data, GradientDescent())
        for got, ref in ((fit.weight, w_ref), (fit.bias, b_ref)):
            assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_cost_does_not_grow_with_rows(self):
        data, _, _ = random_affine_data(np.random.default_rng(7), n=100_000,
                                        d_rep=8, d_out=5, noise=0.1)
        t0 = time.perf_counter()
        fit = fit_alignment(data, GradientDescent())
        assert time.perf_counter() - t0 < 2.0
        assert fit.r_squared > 0.9


def per_row_descent(x, y):
    """The descent fit as a pass over every row per iteration: the oracle."""
    n, d_rep = x.shape
    rng = np.random.default_rng(GD_SEED)
    w = rng.uniform(-0.01, 0.01, size=(y.shape[1], d_rep))
    b = rng.uniform(-0.01, 0.01, size=y.shape[1])
    for _ in range(GD_ITERS):
        resid = x @ w.T + b - y
        gw = 2.0 / n * resid.T @ x
        gb = 2.0 / n * resid.sum(axis=0)
        norm = np.sqrt((gw ** 2).sum() + (gb ** 2).sum())
        if norm > GD_CLIP_NORM:
            gw, gb = gw * (GD_CLIP_NORM / norm), gb * (GD_CLIP_NORM / norm)
        w = w - GD_LR * gw
        b = b - GD_LR * gb
    return w, b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [ClosedForm(), ClosedForm(ridge=0.0),
                                    GradientDescent()])
class TestNonFiniteInput:
    def test_nan_reps(self, rng, method):
        data, _, _ = random_affine_data(rng, n=40)
        data.reps[3, 1] = np.nan
        with pytest.raises(NumericError, match="reps hold 1 non-finite"):
            fit_alignment(data, method)

    def test_inf_targets(self, rng, method):
        data, _, _ = random_affine_data(rng, n=40)
        data.targets[:2, 0] = np.inf
        with pytest.raises(NumericError, match="targets hold 2 non-finite"):
            fit_alignment(data, method)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [ClosedForm(), GradientDescent()])
def test_overflowing_reps_raise(rng, method):
    # finite entries whose squares overflow float64
    data, _, _ = random_affine_data(rng, n=40)
    data.reps *= 1e200
    with pytest.raises(NumericError, match="overflow float64"):
        fit_alignment(data, method)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_overflowing_descent_norm_raises(rng, scale):
    # the statistics stay finite, the clip's squared gradient norm does not
    data, _, _ = random_affine_data(rng, n=40)
    data.reps *= scale
    with pytest.raises(NumericError, match="gradient norm overflows float64; "
                                           "rescale the representations"):
        fit_alignment(data, GradientDescent())
    assert fit_alignment(data, ClosedForm()).r_squared > 0.99


class TestAlignRepresentations:
    def test_zero_weight_returns_bias(self):
        fit = AlignmentFit(weight=np.zeros((3, 2)), bias=np.array([1.0, 2.0, 3.0]),
                           r_squared=0.0, residual_mse=0.0,
                           method=ClosedForm())
        out = align_representations(fit, np.random.default_rng(0).normal(size=(4, 2)))
        np.testing.assert_array_equal(out, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_training_reps_reproduce_residual(self, rng):
        data, _, _ = random_affine_data(rng, n=60, noise=0.2)
        fit = fit_alignment(data, ClosedForm())
        aligned = align_representations(fit, data.reps)
        mse = float(((aligned - data.targets) ** 2).sum() / len(aligned))
        assert mse == pytest.approx(fit.residual_mse, rel=1e-12)

    def test_dim_mismatch(self):
        fit = AlignmentFit(weight=np.zeros((3, 2)), bias=np.zeros(3),
                           r_squared=0.0, residual_mse=0.0, method=ClosedForm())
        with pytest.raises(ValueError, match="input dim"):
            align_representations(fit, np.zeros((4, 5)))


class TestPca:
    def test_rank_one_cloud_first_pc_dominates(self, rng):
        direction = rng.normal(size=5)
        coeffs = rng.normal(size=40)
        cloud = np.outer(coeffs, direction) + 0.001 * rng.normal(size=(40, 5))
        proj = pca_2d(cloud)
        var1 = proj[:, 0].var()
        var2 = proj[:, 1].var()
        assert var1 / (var1 + var2) > 0.99

    def test_deterministic_bytes(self, rng, tmp_path):
        aligned = rng.normal(size=(6, 4))
        targets = rng.normal(size=(6, 4))
        langs = [f"l{i}" for i in range(6)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_alignment_pca(aligned, targets, langs, p1)
        export_alignment_pca(aligned, targets, langs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_schema(self, rng, tmp_path):
        path = tmp_path / "pca.csv"
        export_alignment_pca(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                             ["x", "y", "z"], path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "lang", "pc1", "pc2"]
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"lang_rep", "uriel"}
        assert len(rows) == 1 + 6


class TestCollectSentenceReps:
    @pytest.fixture
    def setup(self, tmp_path):
        path = write_tsv(tmp_path / "knn.tsv", ["lang", "f0", "f1"],
                         [["aa", "0.1", "0.9"], ["bb", "0.8", "0.2"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: path})
        cfg = EncoderConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1,
                            max_seq_len=6, seed=0)
        model = init_alchemy_model(cfg, n_outputs=2, d_uriel=2)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 11, size=(5, 6))
        ids[:, 0] = 0
        mask = np.ones((5, 6), dtype=bool)
        mask[2, 4:] = False
        batch = TokenBatch(ids=ids, attention_mask=mask,
                           langs=("aa", "bb", "aa", "bb", "aa"),
                           labels=np.zeros(5, dtype=np.int64))
        return store, model, batch

    def test_row_count_and_targets(self, setup):
        store, model, batch = setup
        data = collect_sentence_reps(model, [batch], store,
                                     [FeatureSet.SYNTAX_KNN])
        assert data.reps.shape[0] == 5
        np.testing.assert_array_equal(
            data.targets[0], store.target_matrix(["aa"], [FeatureSet.SYNTAX_KNN])[0])

    def test_identical_sentences_identical_rows(self, setup):
        store, model, batch = setup
        twin = TokenBatch(ids=np.vstack([batch.ids[:1], batch.ids[:1]]),
                          attention_mask=np.vstack([batch.attention_mask[:1]] * 2),
                          langs=("aa", "aa"),
                          labels=np.zeros(2, dtype=np.int64))
        data = collect_sentence_reps(model, [twin], store,
                                     [FeatureSet.SYNTAX_KNN])
        np.testing.assert_array_equal(data.reps[0], data.reps[1])

    def test_matches_direct_recomputation(self, setup):
        store, model, batch = setup
        data = collect_sentence_reps(model, [batch], store,
                                     [FeatureSet.SYNTAX_KNN])
        direct = encode_cls(model.cfg, model.encoder, batch).data
        np.testing.assert_array_equal(data.reps, direct)


class TestReportExport:
    def test_report_schema(self, rng, tmp_path):
        data, _, _ = random_affine_data(rng, n=30)
        fits = [fit_alignment(data, ClosedForm()),
                fit_alignment(data, GradientDescent())]
        path = tmp_path / "rep.csv"
        export_alignment_report(fits, 30, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "n", "d_rep", "d_uriel",
                           "residual_mse", "r_squared"]
        assert rows[1][0] == "ClosedForm"
        assert rows[2][0] == "GradientDescent"
