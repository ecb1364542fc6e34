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

Each policy supplies its own weights, so the loss is combined one way for
all three. ``weights(l_cls, l_uriel)`` is called once per training step with
that step's two loss values and returns ``(lambda_cls, lambda_uriel,
penalty)``: the weights as tensors (constants, or graph nodes that gradients
flow into) and a penalty node to add to the total, or None. ``trainable()``
lists the tensors the optimizer updates on the policy's behalf.

Inference is language-agnostic: the store is consulted only while training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tensor
from .encoder import EncoderConfig, TokenBatch, encode_cls, init_encoder_params
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
        if not self.factor >= 0:  # also rejects nan
            raise ValueError("scaling factor must be >= 0")

    def weights(self, l_cls: float, l_uriel: float):
        return Tensor(1.0), Tensor(self.factor), None

    def trainable(self) -> list[Tensor]:
        return []


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

    def weights(self, l_cls: float, l_uriel: float):
        alchemy_scale_update(self, l_cls, l_uriel)
        return Tensor(self.lambda_cls), Tensor(self.lambda_uriel), None

    def trainable(self) -> list[Tensor]:
        return []


@dataclass
class AlchemyTune:
    """Trainable weighting: lambda_i = softplus(raw_i), both starting at 1."""

    raw_cls: Tensor = field(default_factory=lambda: _raw_unit_lambda())
    raw_uriel: Tensor = field(default_factory=lambda: _raw_unit_lambda())

    def weights(self, l_cls: float, l_uriel: float):
        lam_cls, lam_uriel = ad.softplus(self.raw_cls), ad.softplus(self.raw_uriel)
        drift = ad.add(ad.add(lam_cls, lam_uriel), -2.0)
        return lam_cls, lam_uriel, ad.mul(drift, drift)

    def trainable(self) -> list[Tensor]:
        return [self.raw_cls, self.raw_uriel]


ScalingState = ConstantScaling | AlchemyScale | AlchemyTune


def _raw_unit_lambda() -> Tensor:
    # softplus(log(e - 1)) == 1, the neutral starting weight
    return Tensor(np.log(np.e - 1.0), requires_grad=True)


def alchemy_scale_update(state: AlchemyScale, l_cls: float, l_uriel: float) -> AlchemyScale:
    """Feed one step's losses into the state.

    A fresh state is set up from the first losses it sees, without advancing
    ``step``: weights are set relative to their mean, so both scaled terms
    start equal (lambda_i = mean(l_0)/l_i_0). After that the losses are
    EMA'd every step and the weights recomputed every update_period steps.
    """
    if not isinstance(state, AlchemyScale):
        raise TypeError(f"expected AlchemyScale state, got {type(state).__name__}")
    if state.ema_cls is not None:
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
        return [epoch, step, self.l_cls, self.l_uriel, self.lambda_cls,
                self.lambda_uriel, self.mini_loss, self.total]


def combine_losses(l_cls_t: Tensor, l_uriel_t: Tensor,
                   scaling: ScalingState) -> tuple[Tensor, LossBreakdown]:
    """``lambda_cls * task + lambda_uriel * aux`` as a graph node, with the
    weights and penalty that ``scaling.weights`` supplies for this step.

    Under AlchemyScale the call feeds the step's losses into the EMAs. Under
    AlchemyTune the weights are softplus nodes of the raw scalars, so
    gradients flow into them, and the drift penalty
    ``((lambda_cls + lambda_uriel) - 2)^2`` is added to the total.
    """
    l_cls, l_uriel = l_cls_t.item(), l_uriel_t.item()
    if l_cls < 0 or l_uriel < 0:
        raise ValueError("losses must be nonnegative")
    lam_cls, lam_uriel, penalty = scaling.weights(l_cls, l_uriel)
    total_t = ad.add(ad.mul(lam_cls, l_cls_t), ad.mul(lam_uriel, l_uriel_t))
    if penalty is not None:
        total_t = ad.add(total_t, penalty)
    breakdown = LossBreakdown(
        l_cls=l_cls, l_uriel=l_uriel, lambda_cls=lam_cls.item(),
        lambda_uriel=lam_uriel.item(), total=total_t.item(),
        mini_loss=None if penalty is None else penalty.item())
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

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"encoder.{k}", v) for k, v in self.encoder.items()]
        named += [("head_w", self.head_w), ("head_b", self.head_b),
                  ("proj_w", self.proj_w), ("proj_b", self.proj_b)]
        return named

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_alchemy_model(cfg: EncoderConfig, n_outputs: int, d_uriel: int,
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
    )
    return model


def project_to_uriel(model: AlchemyModel, pooled: Tensor) -> Tensor:
    """Affine map from pooled representations into linguistic-vector space."""
    if pooled.shape[-1] != model.cfg.d_model:
        raise ValueError(f"pooled dim {pooled.shape[-1]} != d_model {model.cfg.d_model}")
    return ad.linear(pooled, model.proj_w, model.proj_b)


def uriel_loss(projected: Tensor, batch_langs: Sequence[str],
               store: UrielStore, sets: Sequence[FeatureSet]) -> Tensor:
    """Mean squared distance between projections and per-language vectors.

    Each example's target row is the vector of its own language, so repeated
    languages share one target. Missing dimensions enter as imputed zeros.
    """
    targets = Tensor(store.target_matrix(batch_langs, sets))
    return ad.mse(projected, targets)


def task_logits(model: AlchemyModel, pooled: Tensor) -> Tensor:
    return ad.linear(pooled, model.head_w, model.head_b)


def _task_loss(model: AlchemyModel, logits: Tensor, labels: np.ndarray) -> Tensor:
    if model.task == "classification":
        return ad.softmax_cross_entropy(logits, labels)
    target = Tensor(np.asarray(labels, dtype=np.float64).reshape(-1, 1))
    return ad.mse(logits, target)


def forward_losses(model: AlchemyModel, batch: TokenBatch, store: UrielStore,
                   sets: Sequence[FeatureSet]) -> tuple[Tensor, Tensor]:
    """One forward pass; returns (task loss, linguistic loss) graph nodes."""
    pooled = encode_cls(model.cfg, model.encoder, batch)
    l_cls = _task_loss(model, task_logits(model, pooled), batch.labels)
    l_uriel = uriel_loss(project_to_uriel(model, pooled), batch.langs, store, sets)
    return l_cls, l_uriel


def train_step(model: AlchemyModel, batch: TokenBatch, store: UrielStore,
               sets: Sequence[FeatureSet], scaling: ScalingState,
               opt: AdamW) -> LossBreakdown:
    """Forward, combine per the scaling policy, backward, AdamW, zero grads;
    a non-finite loss raises ``NumericError`` before backward."""
    l_cls_t, l_uriel_t = forward_losses(model, batch, store, sets)
    total_t, breakdown = combine_losses(l_cls_t, l_uriel_t, scaling)
    for name in ("l_cls", "l_uriel", "total"):
        if not math.isfinite(getattr(breakdown, name)):
            raise NumericError(f"non-finite {name}")
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
    trainable = scaling.trainable()
    return AdamW(model.parameters() + trainable, lr=lr,
                 weight_decay=weight_decay, no_decay=trainable)


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
               ) -> tuple[AlchemyModel, list[list]]:
    """Run the full schedule; returns the model and the per-step trace rows.

    ``batches_fn(indices) -> TokenBatch`` materializes a batch for the given
    example indices; shuffling is fixed per (seed, epoch) so identical seeds
    replay identical trajectories. A non-finite loss stops training with a
    ``NumericError`` naming the epoch and step as ``trace.csv`` numbers them.
    """
    opt = make_optimizer(model, scaling, lr=lr, weight_decay=weight_decay)
    trace_rows: list[list] = []
    global_step = 0
    for epoch in range(epochs):
        order = np.random.default_rng([seed, epoch]).permutation(n_examples)
        for idx in iterate_batches(order, batch_size):
            batch = batches_fn(idx)
            global_step += 1
            try:
                breakdown = train_step(model, batch, store, sets, scaling, opt)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, "
                                   f"step {global_step}") from None
            trace_rows.append(breakdown.as_row(epoch, global_step))
    return model, trace_rows


# ---------------------------------------------------------------------------
# inference (store-free by construction)
# ---------------------------------------------------------------------------

def predict_logits(model: AlchemyModel, batch: TokenBatch) -> np.ndarray:
    with ad.no_grad():
        return task_logits(model, encode_cls(model.cfg, model.encoder, batch)).data


def predict_classes(model: AlchemyModel, batch: TokenBatch) -> np.ndarray:
    """Argmax with lowest-index tie-breaking (np.argmax picks the first max)."""
    return np.argmax(predict_logits(model, batch), axis=1)
