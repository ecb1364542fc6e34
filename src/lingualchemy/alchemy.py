"""Typology-regularized training: projection head, combined loss, scaling.

Training adds an auxiliary term to the task loss: the pooled CLS
representation is projected into linguistic-vector space and pulled toward
each example's language vector by mean squared error. The two terms are
combined as ``lambda_cls * task + lambda_uriel * aux`` where the weights
come from one of three scaling policies:

* ``ConstantScaling`` -- lambda_cls fixed at 1, lambda_uriel a constant
  factor (0 recovers plain fine-tuning; 10 is the recommended default).
* ``AlchemyScale`` -- weights start at mean(initial losses)/loss_i and are
  periodically recomputed from exponential moving averages of the losses.
* ``AlchemyTune`` -- weights are trainable scalars (softplus of raw
  parameters) regularized by a penalty on their sum drifting from 2.

Inference is language-agnostic: the store is consulted only while training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .encoder import (EncoderConfig, TokenBatch, encoder_forward,
                      init_encoder_params, pool_cls)
from .errors import NumericError
from .uriel import FeatureSet, UrielStore

TRACE_HEADER = ("epoch", "step", "l_cls", "l_uriel", "lambda_cls",
                "lambda_uriel", "mini_loss", "total")


# ---------------------------------------------------------------------------
# scaling policies
# ---------------------------------------------------------------------------

@dataclass
class ConstantScaling:
    """Fixed weighting: lambda_cls = 1, lambda_uriel = factor."""

    factor: float = 10.0

    def __post_init__(self):
        if self.factor < 0:
            raise ValueError("scaling factor must be >= 0")

    @property
    def lambdas(self) -> tuple[float, float]:
        return 1.0, self.factor


@dataclass
class AlchemyScale:
    """EMA-rebalanced weighting, lazily initialized from the first losses."""

    decay: float = 0.9
    update_period: int = 100
    ema_cls: float | None = None
    ema_uriel: float | None = None
    lambda_cls: float = 1.0
    lambda_uriel: float = 1.0
    step: int = 0

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        if self.update_period < 1:
            raise ValueError("update_period must be >= 1")

    @property
    def initialized(self) -> bool:
        return self.ema_cls is not None

    @property
    def lambdas(self) -> tuple[float, float]:
        return self.lambda_cls, self.lambda_uriel


@dataclass
class AlchemyTune:
    """Trainable weighting: lambda_i = softplus(raw_i), both starting at 1."""

    raw_cls: Tensor = field(default_factory=lambda: _raw_unit_lambda())
    raw_uriel: Tensor = field(default_factory=lambda: _raw_unit_lambda())

    @property
    def lambdas(self) -> tuple[float, float]:
        return (float(np.logaddexp(0.0, self.raw_cls.data)),
                float(np.logaddexp(0.0, self.raw_uriel.data)))

    def trainable(self) -> list[Tensor]:
        return [self.raw_cls, self.raw_uriel]


ScalingState = ConstantScaling | AlchemyScale | AlchemyTune


def _raw_unit_lambda() -> Tensor:
    # softplus(log(e - 1)) == 1, the neutral starting weight
    return Tensor(np.log(np.e - 1.0), requires_grad=True)


def alchemy_scale_init(l_cls_0: float, l_uriel_0: float,
                       decay: float = 0.9, update_period: int = 100) -> AlchemyScale:
    """A fresh state set up from the initial losses."""
    return alchemy_scale_update(AlchemyScale(decay=decay, update_period=update_period),
                                l_cls_0, l_uriel_0)


def alchemy_scale_update(state: AlchemyScale, l_cls: float, l_uriel: float) -> AlchemyScale:
    """Feed one step's losses into the state.

    A fresh state is set up from the first losses it sees, without advancing
    ``step``: weights are set relative to their mean, so both scaled terms
    start equal (lambda_i = mean(l_0)/l_i_0). After that the losses are
    EMA'd every step and the weights recomputed every update_period steps.
    """
    if not isinstance(state, AlchemyScale):
        raise TypeError(f"expected AlchemyScale state, got {type(state).__name__}")
    if state.initialized:
        b = state.decay
        state.ema_cls = b * state.ema_cls + (1.0 - b) * l_cls
        state.ema_uriel = b * state.ema_uriel + (1.0 - b) * l_uriel
        state.step += 1
        if state.step % state.update_period != 0:
            return state
    else:
        if l_cls <= 0 or l_uriel <= 0:
            raise NumericError("initial losses must be positive to balance weights")
        state.ema_cls, state.ema_uriel = l_cls, l_uriel
    mean_ema = (state.ema_cls + state.ema_uriel) / 2.0
    state.lambda_cls = mean_ema / state.ema_cls
    state.lambda_uriel = mean_ema / state.ema_uriel
    return state


# ---------------------------------------------------------------------------
# loss bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossBreakdown:
    l_cls: float
    l_uriel: float
    lambda_cls: float
    lambda_uriel: float
    total: float
    mini_loss: float | None = None

    def as_row(self, epoch: int, step: int) -> list:
        mini = "" if self.mini_loss is None else repr(self.mini_loss)
        return [epoch, step, repr(self.l_cls), repr(self.l_uriel),
                repr(self.lambda_cls), repr(self.lambda_uriel), mini, repr(self.total)]


def combine_losses(l_cls_t: Tensor, l_uriel_t: Tensor,
                   scaling: ScalingState) -> tuple[Tensor, LossBreakdown]:
    """``lambda_cls * task + lambda_uriel * aux`` as a graph node.

    Under AlchemyTune the weights are softplus nodes of the raw scalars, so
    gradients flow into them, and the drift penalty
    ``((lambda_cls + lambda_uriel) - 2)^2`` is added to the total.
    """
    l_cls, l_uriel = l_cls_t.item(), l_uriel_t.item()
    if l_cls < 0 or l_uriel < 0:
        raise ValueError("losses must be nonnegative")
    mini = None
    if isinstance(scaling, AlchemyTune):
        lam_c_t = ad.softplus(scaling.raw_cls)
        lam_u_t = ad.softplus(scaling.raw_uriel)
        drift = ad.add(ad.add(lam_c_t, lam_u_t), -2.0)
        mini_t = ad.mul(drift, drift)
        total_t = ad.add(ad.add(ad.mul(lam_c_t, l_cls_t), ad.mul(lam_u_t, l_uriel_t)),
                         mini_t)
        lam_c, lam_u, mini = lam_c_t.item(), lam_u_t.item(), mini_t.item()
    else:
        lam_c, lam_u = scaling.lambdas
        total_t = ad.add(ad.scale(l_cls_t, lam_c), ad.scale(l_uriel_t, lam_u))
    breakdown = LossBreakdown(l_cls=l_cls, l_uriel=l_uriel, lambda_cls=lam_c,
                              lambda_uriel=lam_u, total=total_t.item(),
                              mini_loss=mini)
    return total_t, breakdown


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class AlchemyModel:
    """Encoder plus task head plus the linguistic projection head."""

    cfg: EncoderConfig
    task: str
    encoder: dict[str, Tensor]
    head_w: Tensor
    head_b: Tensor
    proj_w: Tensor
    proj_b: Tensor
    feature_sets: tuple[FeatureSet, ...]
    d_uriel: int

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"encoder.{k}", v) for k, v in self.encoder.items()]
        named += [("head_w", self.head_w), ("head_b", self.head_b),
                  ("proj_w", self.proj_w), ("proj_b", self.proj_b)]
        return named

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def task_parameters(self) -> list[Tensor]:
        """Everything the plain (regularizer-free) path trains."""
        return list(self.encoder.values()) + [self.head_w, self.head_b]


def init_alchemy_model(cfg: EncoderConfig, n_outputs: int, d_uriel: int,
                       feature_sets: Sequence[FeatureSet],
                       task: str = "classification") -> AlchemyModel:
    """Build a model whose heads are drawn after the encoder from one rng.

    The linguistic projection starts near zero so the auxiliary loss first
    learns to read the pooled representation before reshaping it; a full-
    scale random head can lock early training into poor layouts.
    """
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    encoder = init_encoder_params(cfg)
    rng = np.random.default_rng((cfg.seed, 0x6EAD))
    d = cfg.d_model
    bound = 1.0 / np.sqrt(d)
    proj_bound = 0.01
    model = AlchemyModel(
        cfg=cfg, task=task, encoder=encoder,
        head_w=Tensor(rng.uniform(-bound, bound, (d, n_outputs)), requires_grad=True),
        head_b=Tensor(rng.uniform(-bound, bound, (n_outputs,)), requires_grad=True),
        proj_w=Tensor(rng.uniform(-proj_bound, proj_bound, (d, d_uriel)),
                      requires_grad=True),
        proj_b=Tensor(rng.uniform(-proj_bound, proj_bound, (d_uriel,)),
                      requires_grad=True),
        feature_sets=tuple(feature_sets),
        d_uriel=d_uriel,
    )
    return model


def project_to_uriel(model: AlchemyModel, pooled: Tensor) -> Tensor:
    """Affine map from pooled representations into linguistic-vector space."""
    if pooled.shape[-1] != model.cfg.d_model:
        raise ValueError(f"pooled dim {pooled.shape[-1]} != d_model {model.cfg.d_model}")
    return ad.add_bias(ad.matmul(pooled, model.proj_w), model.proj_b)


def uriel_loss(projected: Tensor, batch_langs: Sequence[str],
               store: UrielStore, sets: Sequence[FeatureSet]) -> Tensor:
    """Mean squared distance between projections and per-language vectors.

    Each example's target row is the vector of its own language, so repeated
    languages share one target. Missing dimensions enter as imputed zeros.
    """
    targets = Tensor(store.target_matrix(batch_langs, sets))
    return ad.mse(projected, targets)


def task_logits(model: AlchemyModel, pooled: Tensor) -> Tensor:
    return ad.add_bias(ad.matmul(pooled, model.head_w), model.head_b)


def _task_loss(model: AlchemyModel, logits: Tensor, labels: np.ndarray) -> Tensor:
    if model.task == "classification":
        return ad.softmax_cross_entropy(logits, labels)
    target = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    return ad.mse(logits, target)


def forward_losses(model: AlchemyModel, batch: TokenBatch, store: UrielStore,
                   sets: Sequence[FeatureSet]) -> tuple[Tensor, Tensor]:
    """One forward pass; returns (task loss, linguistic loss) graph nodes."""
    hidden = encoder_forward(model.cfg, model.encoder, batch)
    pooled = pool_cls(hidden)
    l_cls = _task_loss(model, task_logits(model, pooled), batch.labels)
    l_uriel = uriel_loss(project_to_uriel(model, pooled), batch.langs, store, sets)
    return l_cls, l_uriel


def train_step(model: AlchemyModel, batch: TokenBatch, store: UrielStore,
               sets: Sequence[FeatureSet], scaling: ScalingState,
               opt: AdamW) -> LossBreakdown:
    """Forward, combine per the scaling policy, backward, AdamW, zero grads."""
    l_cls_t, l_uriel_t = forward_losses(model, batch, store, sets)
    if isinstance(scaling, AlchemyScale):
        alchemy_scale_update(scaling, l_cls_t.item(), l_uriel_t.item())
    total_t, breakdown = combine_losses(l_cls_t, l_uriel_t, scaling)
    ad.backward(total_t)
    opt.step()
    opt.zero_grad()
    return breakdown


def make_optimizer(model: AlchemyModel, scaling: ScalingState, lr: float,
                   weight_decay: float = 0.01) -> AdamW:
    """AdamW over all model parameters plus any trainable scaling scalars.

    The raw weighting scalars are exempt from weight decay so their neutral
    point is set by the drift penalty alone.
    """
    params = model.parameters()
    no_decay = []
    if isinstance(scaling, AlchemyTune):
        params = params + scaling.trainable()
        no_decay = scaling.trainable()
    return AdamW(params, lr=lr, weight_decay=weight_decay, no_decay=no_decay)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def iterate_batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def train_loop(model: AlchemyModel, batches_fn, n_examples: int,
               store: UrielStore, sets: Sequence[FeatureSet],
               scaling: ScalingState, epochs: int, batch_size: int,
               lr: float, seed: int, weight_decay: float = 0.01
               ) -> tuple[AlchemyModel, list[LossBreakdown], list[list]]:
    """Run the full schedule; returns the model, per-epoch mean breakdowns,
    and the per-step trace rows.

    ``batches_fn(indices) -> TokenBatch`` materializes a batch for the given
    example indices; shuffling is fixed per (seed, epoch) so identical seeds
    replay identical trajectories. A non-finite loss stops training with a
    ``NumericError`` naming the epoch and step as ``trace.csv`` numbers them.
    """
    opt = make_optimizer(model, scaling, lr=lr, weight_decay=weight_decay)
    epoch_means: list[LossBreakdown] = []
    trace_rows: list[list] = []
    global_step = 0
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(n_examples)
        collected: list[LossBreakdown] = []
        for idx in iterate_batches(order, batch_size):
            batch = batches_fn(idx)
            breakdown = train_step(model, batch, store, sets, scaling, opt)
            global_step += 1
            for name in ("l_cls", "l_uriel", "total"):
                if not math.isfinite(getattr(breakdown, name)):
                    raise NumericError(f"non-finite {name} at epoch {epoch}, "
                                       f"step {global_step}")
            collected.append(breakdown)
            trace_rows.append(breakdown.as_row(epoch, global_step))
        if collected:
            epoch_means.append(_mean_breakdown(collected))
    return model, epoch_means, trace_rows


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    minis = [b.mini_loss for b in items if b.mini_loss is not None]
    return LossBreakdown(
        l_cls=float(np.mean([b.l_cls for b in items])),
        l_uriel=float(np.mean([b.l_uriel for b in items])),
        lambda_cls=float(np.mean([b.lambda_cls for b in items])),
        lambda_uriel=float(np.mean([b.lambda_uriel for b in items])),
        total=float(np.mean([b.total for b in items])),
        mini_loss=float(np.mean(minis)) if minis else None,
    )


# ---------------------------------------------------------------------------
# inference (store-free by construction)
# ---------------------------------------------------------------------------

def predict_logits(model: AlchemyModel, batch: TokenBatch) -> np.ndarray:
    with ad.no_grad():
        hidden = encoder_forward(model.cfg, model.encoder, batch)
        return task_logits(model, pool_cls(hidden)).data


def predict_classes(model: AlchemyModel, batch: TokenBatch) -> np.ndarray:
    """Argmax with lowest-index tie-breaking (np.argmax picks the first max)."""
    return np.argmax(predict_logits(model, batch), axis=1)
