"""A small pre-norm transformer encoder trained from scratch.

Stands in for a large pretrained multilingual encoder at desk scale:
learned absolute positions, multi-head self-attention with additive key
masking, GELU feed-forward blocks, and a reserved CLS position at index 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """The architecture and init seed; ``ExperimentConfig`` holds the defaults."""

    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    max_seq_len: int
    seed: int

    def __post_init__(self):
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"d_model ({self.d_model}) must be positive and "
                             f"divisible by n_heads ({self.n_heads})")
        if self.max_seq_len < 2:
            raise ValueError("max_seq_len must be at least 2 (CLS + one token)")


@dataclass
class TokenBatch:
    """One padded batch: ids and mask are (B, T); position 0 is CLS."""

    ids: np.ndarray
    attention_mask: np.ndarray
    langs: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.attention_mask = np.asarray(self.attention_mask, dtype=bool)
        if self.ids.shape != self.attention_mask.shape or self.ids.ndim != 2:
            raise ValueError("ids and attention_mask must be equal (B, T) arrays")
        if not self.attention_mask[:, 0].all():
            raise ValueError("CLS position must never be masked")
        if len(self.langs) != self.ids.shape[0]:
            raise ValueError("langs must have one entry per row")


def _uniform_fan_in(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_encoder_params(cfg: EncoderConfig) -> dict[str, Tensor]:
    """Seeded parameter initialization; identical seeds give identical bits."""
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_model
    params: dict[str, Tensor] = {}

    def param(name, shape, fan_in):
        params[name] = Tensor(_uniform_fan_in(rng, shape, fan_in), requires_grad=True)

    def norm_pair(name):
        params[f"{name}_g"] = Tensor(np.ones(d), requires_grad=True)
        params[f"{name}_b"] = Tensor(np.zeros(d), requires_grad=True)

    param("tok_emb", (cfg.vocab_size, d), d)
    param("pos_emb", (cfg.max_seq_len, d), d)
    for i in range(cfg.n_layers):
        norm_pair(f"l{i}.ln1")
        for proj in ("q", "k", "v", "o"):
            param(f"l{i}.w{proj}", (d, d), d)
            param(f"l{i}.b{proj}", (d,), d)
        norm_pair(f"l{i}.ln2")
        param(f"l{i}.w_up", (d, 4 * d), d)
        param(f"l{i}.b_up", (4 * d,), d)
        param(f"l{i}.w_down", (4 * d, d), 4 * d)
        param(f"l{i}.b_down", (d,), 4 * d)
    norm_pair("ln_f")
    return params


def _layer(cfg: EncoderConfig, params, i: int, x: Tensor, mask: np.ndarray,
           cls: np.ndarray | None) -> Tensor:
    """Pre-norm layer ``i`` over ``x``, the (N, d) rows of the unmasked
    positions of ``mask``; returns its rows, or with ``cls``, the row indices
    of the CLS positions, the (B, d) CLS rows alone.

    Keys and values come from every unmasked row; with ``cls`` the queries,
    the residual stream and the feed-forward block come from the CLS rows
    alone.
    """
    def lin(x, name):
        return ad.linear(x, params[f"l{i}.w{name}"], params[f"l{i}.b{name}"])

    xn = ad.layer_norm(x, params[f"l{i}.ln1_g"], params[f"l{i}.ln1_b"])
    k, v = lin(xn, "k"), lin(xn, "v")
    if cls is not None:
        x, xn = ad.take_rows(x, cls), ad.take_rows(xn, cls)
    x = ad.add(x, lin(ad.attention(lin(xn, "q"), k, v, mask, cfg.n_heads), "o"))
    xn = ad.layer_norm(x, params[f"l{i}.ln2_g"], params[f"l{i}.ln2_b"])
    return ad.add(x, lin(ad.gelu(lin(xn, "_up")), "_down"))


def encode_cls(cfg: EncoderConfig, params: dict[str, Tensor],
               batch: TokenBatch) -> Tensor:
    """Final-layer-normed CLS states, (B, d_model): the sentence
    representation that the task head, the linguistic projection and
    alignment read.

    Every position-wise op runs on packed (N, d) rows of the N unmasked
    positions, recorded or not, so no work is spent on padding. Masked
    positions are excluded as attention keys, so they cannot influence any
    other position. The last layer runs its query, residual and feed-forward
    for the CLS rows only.
    """
    mask = batch.attention_mask
    x = ad.embedding(params["tok_emb"], params["pos_emb"], batch.ids, mask)
    cls = np.flatnonzero(np.flatnonzero(mask) % mask.shape[1] == 0)
    for i in range(cfg.n_layers):
        x = _layer(cfg, params, i, x, mask, cls if i == cfg.n_layers - 1 else None)
    return ad.layer_norm(x, params["ln_f_g"], params["ln_f_b"])
