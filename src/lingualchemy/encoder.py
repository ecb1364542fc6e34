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
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    max_seq_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
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

    @property
    def size(self) -> int:
        return self.ids.shape[0]


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


def _affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add_bias(ad.matmul(x, w), b)


def _attention(cfg: EncoderConfig, params, i: int, x: Tensor,
               key_mask: np.ndarray) -> Tensor:
    q = _affine(x, params[f"l{i}.wq"], params[f"l{i}.bq"])
    k = _affine(x, params[f"l{i}.wk"], params[f"l{i}.bk"])
    v = _affine(x, params[f"l{i}.wv"], params[f"l{i}.bv"])
    heads = ad.attention(q, k, v, key_mask, cfg.n_heads)
    return _affine(heads, params[f"l{i}.wo"], params[f"l{i}.bo"])


def encoder_forward(cfg: EncoderConfig, params: dict[str, Tensor],
                    batch: TokenBatch) -> Tensor:
    """Run the encoder; returns last hidden states of shape (B, T, d_model).

    Masked positions are excluded as attention keys, so they cannot
    influence any other position.
    """
    ids, mask = batch.ids, batch.attention_mask
    t = ids.shape[1]
    if t > cfg.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")
    if ids.max() >= cfg.vocab_size or ids.min() < 0:
        raise ValueError("token id out of vocabulary range")

    x = ad.add_bias(ad.embedding(params["tok_emb"], ids),
                    ad.slice_rows(params["pos_emb"], t))
    for i in range(cfg.n_layers):
        xn = ad.layer_norm(x, params[f"l{i}.ln1_g"], params[f"l{i}.ln1_b"])
        attn = _attention(cfg, params, i, xn, mask)
        x = ad.add(x, attn)
        xn = ad.layer_norm(x, params[f"l{i}.ln2_g"], params[f"l{i}.ln2_b"])
        up = ad.gelu(_affine(xn, params[f"l{i}.w_up"], params[f"l{i}.b_up"]))
        down = _affine(up, params[f"l{i}.w_down"], params[f"l{i}.b_down"])
        x = ad.add(x, down)
    return ad.layer_norm(x, params["ln_f_g"], params["ln_f_b"])


def pool_cls(hidden: Tensor) -> Tensor:
    """Sentence representation from the reserved position-0 slot."""
    return ad.take_first_position(hidden)


def pool_mean_masked(hidden: Tensor, mask: np.ndarray) -> Tensor:
    """Sentence representation as the mean over unmasked positions."""
    return ad.mean_pool_masked(hidden, mask)
