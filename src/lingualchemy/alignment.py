"""Fitting a linear map from sentence representations to language vectors.

The fit quality (coefficient of determination) measures how much linguistic
structure the encoder's CLS representations, the ones the regularizer trains,
carry. Both a ridge closed form and a plain full-batch gradient-descent fit
are provided; the closed form doubles as the optimality oracle for the
iterative path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .alchemy import AlchemyModel
from .encoder import TokenBatch, encode_cls
from .errors import NumericError, write_csv
from .uriel import FeatureSet, UrielStore


@dataclass(frozen=True)
class ClosedForm:
    """Ridge least squares on mean-centered data; ridge=0 falls back to a
    minimum-norm least-squares solve."""

    ridge: float = 1e-6


# gradient descent's step size, iterations, gradient-norm clip and init seed
GD_LR, GD_ITERS, GD_CLIP_NORM, GD_SEED = 1e-2, 2000, 1.0, 0


@dataclass(frozen=True)
class GradientDescent:
    """Full-batch gradient descent on the fixed ``GD_*`` schedule."""


@dataclass
class SentenceRepSet:
    """CLS sentence representations with per-example language targets."""

    reps: np.ndarray
    langs: tuple[str, ...]
    targets: np.ndarray

    def __post_init__(self):
        if not (len(self.reps) == len(self.langs) == len(self.targets)):
            raise ValueError("reps, langs and targets must have equal row counts")


@dataclass
class AlignmentFit:
    weight: np.ndarray        # (d_uriel, d_rep)
    bias: np.ndarray          # (d_uriel,)
    r_squared: float
    residual_mse: float
    method: ClosedForm | GradientDescent


def collect_sentence_reps(model: AlchemyModel, batches: Sequence[TokenBatch],
                          store: UrielStore, sets: Sequence[FeatureSet]
                          ) -> SentenceRepSet:
    """The CLS representation of every example, plus its targets."""
    reps, langs = [], []
    with ad.no_grad():
        for batch in batches:
            reps.append(encode_cls(model.cfg, model.encoder, batch).data)
            langs.extend(batch.langs)
    reps = np.concatenate(reps, axis=0)
    targets = store.target_matrix(langs, sets)
    return SentenceRepSet(reps=reps, langs=tuple(langs), targets=targets)


def r_squared(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination, averaged uniformly over output dims.

    Dimensions with zero target variance are skipped; if every dimension is
    degenerate the statistic is undefined.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64).T).T
    target = np.atleast_2d(np.asarray(target, dtype=np.float64).T).T
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    ss_res = ((target - pred) ** 2).sum(axis=0)
    ss_tot = ((target - target.mean(axis=0)) ** 2).sum(axis=0)
    defined = ss_tot > 0.0
    if not defined.any():
        raise NumericError("r_squared undefined: zero target variance in every dimension")
    return float(np.mean(1.0 - ss_res[defined] / ss_tot[defined]))


def _row_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Same convention as the training loss: row square-sums averaged over N."""
    return float(((pred - target) ** 2).sum() / len(pred))


def fit_alignment(data: SentenceRepSet,
                  method: ClosedForm | GradientDescent = ClosedForm()) -> AlignmentFit:
    """Fit targets ~= W @ rep + b by the requested method."""
    x = np.asarray(data.reps, dtype=np.float64)
    y = np.asarray(data.targets, dtype=np.float64)
    if isinstance(method, ClosedForm):
        w, b = _fit_closed_form(x, y, method.ridge)
    elif isinstance(method, GradientDescent):
        w, b = _fit_gradient_descent(x, y)
    else:
        raise TypeError(f"unknown method {method!r}")
    pred = x @ w.T + b
    return AlignmentFit(weight=w, bias=b,
                        r_squared=r_squared(pred, y),
                        residual_mse=_row_mse(pred, y),
                        method=method)


def _fit_closed_form(x: np.ndarray, y: np.ndarray, ridge: float):
    x_mean = x.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x - x_mean
    yc = y - y_mean
    if ridge > 0.0:
        gram = xc.T @ xc + ridge * np.eye(x.shape[1])
        try:
            coef = np.linalg.solve(gram, xc.T @ yc)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"normal equations failed ({exc}); "
                               "increase the ridge parameter") from exc
    else:
        coef, *_ = np.linalg.lstsq(xc, yc, rcond=None)
    if not np.isfinite(coef).all():
        raise NumericError("least-squares solution is not finite; "
                           "use a positive ridge parameter")
    w = coef.T
    b = y_mean - w @ x_mean
    return w, b


def _fit_gradient_descent(x: np.ndarray, y: np.ndarray):
    n, d_rep = x.shape
    d_out = y.shape[1]
    rng = np.random.default_rng(GD_SEED)
    w = rng.uniform(-0.01, 0.01, size=(d_out, d_rep))
    b = rng.uniform(-0.01, 0.01, size=d_out)
    for _ in range(GD_ITERS):
        resid = x @ w.T + b - y            # (n, d_out)
        gw = 2.0 / n * resid.T @ x
        gb = 2.0 / n * resid.sum(axis=0)
        norm = np.sqrt((gw ** 2).sum() + (gb ** 2).sum())
        if norm > GD_CLIP_NORM:
            factor = GD_CLIP_NORM / norm
            gw, gb = gw * factor, gb * factor
        w = w - GD_LR * gw
        b = b - GD_LR * gb
    return w, b


def align_representations(fit: AlignmentFit, reps: np.ndarray) -> np.ndarray:
    """Apply the fitted affine map row-wise."""
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim != 2 or reps.shape[1] != fit.weight.shape[1]:
        raise ValueError(f"reps of shape {reps.shape} do not match the "
                         f"fitted input dim {fit.weight.shape[1]}")
    return reps @ fit.weight.T + fit.bias


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Project rows onto the top two principal directions, deterministically.

    Component signs are fixed by making each direction's largest-magnitude
    coefficient positive.
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    if comps.shape[0] < 2:
        comps = np.vstack([comps, np.zeros((2 - comps.shape[0], pts.shape[1]))])
    for i in range(2):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


def export_alignment_pca(aligned: np.ndarray, targets: np.ndarray,
                         langs: Sequence[str], path) -> None:
    """Two-dimensional projection of the joint {aligned, target} cloud as CSV."""
    cloud = np.concatenate([aligned, targets], axis=0)
    proj = pca_2d(cloud)
    n = len(aligned)
    write_csv(path, ["kind", "lang", "pc1", "pc2"],
              [[kind, lang, *proj[offset + i]]
               for kind, offset in (("lang_rep", 0), ("uriel", n))
               for i, lang in enumerate(langs)])


def export_alignment_report(fits: Sequence[AlignmentFit], n: int, path) -> None:
    write_csv(path, ["method", "n", "d_rep", "d_uriel", "residual_mse", "r_squared"],
              [[type(fit.method).__name__, n, fit.weight.shape[1],
                fit.weight.shape[0], fit.residual_mse, fit.r_squared]
               for fit in fits])
