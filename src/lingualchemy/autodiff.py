"""Reverse-mode autodiff on dense numpy arrays, plus AdamW and checkpoints.

Small by design: rank <= 3 tensors, the exact op set the encoder and the
training losses need, and a tape built implicitly through parent links.
Gradients accumulate into ``.grad`` until explicitly zeroed; each call to
:func:`backward` contributes one full pass (PyTorch-style semantics).
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

from .errors import DataError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense row-major array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, vjp):
    """Wrap an op result, recording the backward rule if the graph is live."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track, dtype=data.dtype)
    if track:
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; result is a topological order ending at root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor feeding loss.

    The per-pass flow is kept separate from the accumulated ``.grad`` so
    repeated calls without zeroing add one full gradient each time.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    flow: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(order):
        g = flow.get(id(node))
        if g is None or node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flow.get(id(parent))
            flow[id(parent)] = pg if acc is None else acc + pg
    for node in order:
        g = flow.get(id(node))
        if g is None or not node.requires_grad:
            continue
        # flow arrays are never mutated afterwards, so sharing is safe here
        node.grad = g if node.grad is None else node.grad + g


def zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


# ---------------------------------------------------------------------------
# elementwise / broadcast ops
# ---------------------------------------------------------------------------

def _check_binary_shapes(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape and a.data.shape != () and b.data.shape != ():
        raise ValueError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to a (scalar-broadcast) operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape).astype(g.dtype)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_binary_shapes(a, b, "add")
    return _make(a.data + b.data, (a, b),
                 lambda g: (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)))


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_binary_shapes(a, b, "sub")
    return _make(a.data - b.data, (a, b),
                 lambda g: (_reduce_to(g, a.data.shape), _reduce_to(-g, b.data.shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_binary_shapes(a, b, "mul")
    return _make(a.data * b.data, (a, b),
                 lambda g: (_reduce_to(g * b.data, a.data.shape),
                            _reduce_to(g * a.data, b.data.shape)))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a parameter whose shape is a trailing suffix of x (e.g. a bias row)."""
    bs = b.data.shape
    if x.data.shape[x.data.ndim - b.data.ndim:] != bs:
        raise ValueError(f"add_bias: {bs} is not a suffix of {x.data.shape}")
    lead = tuple(range(x.data.ndim - b.data.ndim))
    return _make(x.data + b.data, (x, b),
                 lambda g: (g, g.sum(axis=lead) if lead else g))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU."""
    xd = x.data
    sq = xd * xd
    t = np.tanh(_GELU_C * (xd + 0.044715 * sq * xd))
    out = 0.5 * xd * (1.0 + t)

    def vjp(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * sq)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du),)

    return _make(out, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), numerically stable; used for strictly-positive reparams."""
    out = np.logaddexp(0.0, x.data)
    return _make(out, (x,), lambda g: (g / (1.0 + np.exp(-x.data)),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an (m,k) or (B,m,k) tensor by a (k,n) tensor."""
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise ValueError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    if ad.shape[-1] != bd.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    k, n = bd.shape

    def vjp(g):
        return g @ bd.T, np.ascontiguousarray(ad).reshape(-1, k).T @ g.reshape(-1, n)

    return _make(ad @ bd, (a, b), vjp)


def slice_rows(x: Tensor, stop: int) -> Tensor:
    """First ``stop`` rows along axis 0."""
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:stop] = g
        return (gx,)
    return _make(x.data[:stop].copy(), (x,), vjp)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; grads scatter-add back."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.data.shape[0]:
        raise ValueError("embedding: id out of range")

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return _make(table.data[ids], (table,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gamma.data * xhat + beta.data

    def vjp(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (B, T, d) q, k and v.

    Head h owns slice ``[h*hd, (h+1)*hd)`` of the last axis, hd = d / n_heads.
    ``key_mask`` is (B, T) boolean: masked-out keys get zero weight, and each
    query must keep at least one valid key. Returns the merged (B, T, d) heads.
    """
    shape = q.data.shape
    if len(shape) != 3 or k.data.shape != shape or v.data.shape != shape:
        raise ValueError("attention: q, k and v must share one (B, T, d) shape")
    b, t, d = shape
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"attention: d={d} is not divisible by n_heads={n_heads}")
    key_mask = np.asarray(key_mask, dtype=bool)
    if key_mask.shape != (b, t):
        raise ValueError(f"attention: key_mask shape {key_mask.shape} != {(b, t)}")
    hd = d // n_heads
    factor = 1.0 / np.sqrt(hd)

    def heads(x):  # (B, T, d) -> (B, H, T, hd) view
        return x.reshape(b, t, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(x):  # C order keeps the downstream bias-gradient sums bit-stable
        return np.ascontiguousarray(np.swapaxes(x, 1, 2)).reshape(b, t, d)

    qh, kh, vh = (np.ascontiguousarray(heads(x.data)) for x in (q, k, v))
    # softmax in place: separate (B, H, T, T) temporaries made batch-64 eval ~2x slower
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= factor
    np.copyto(p, -np.inf, where=~key_mask[:, None, None, :])
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def vjp(g):
        gh = heads(g)
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * factor
        dk = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
        return merge(ds @ kh), merge(dk), merge(np.swapaxes(p, -1, -2) @ gh)

    return _make(merge(p @ vh), (q, k, v), vjp)


def scale(x: Tensor, factor: float) -> Tensor:
    return _make(x.data * factor, (x,), lambda g: (g * factor,))


def sum_all(x: Tensor) -> Tensor:
    """Scalar sum of every element."""
    return _make(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,),
                 lambda g: (np.broadcast_to(g, x.data.shape),))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def take_first_position(x: Tensor) -> Tensor:
    """(B, T, d) -> (B, d) slice at position 0."""
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, 0, :] = g
        return (gx,)
    return _make(x.data[:, 0, :].copy(), (x,), vjp)


def mean_pool_masked(x: Tensor, mask: np.ndarray) -> Tensor:
    """(B, T, d) -> (B, d) mean over mask-true positions per row."""
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("mean_pool_masked: a row has no unmasked position")
    w = mask.astype(x.data.dtype) / counts[:, None]
    out = np.einsum("btd,bt->bd", x.data, w)

    def vjp(g):
        return (g[:, None, :] * w[:, :, None],)

    return _make(out, (x,), vjp)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(lse - shifted[np.arange(n), labels]))

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(np.asarray(loss, dtype=logits.data.dtype), (logits,), vjp)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over rows of the squared Euclidean row distance.

    Note the convention: row sums of squares averaged over the N rows, not
    over every element.
    """
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse: shapes differ, {pred.data.shape} vs {target.data.shape}")
    if pred.data.ndim != 2 or pred.data.shape[0] < 1:
        raise ValueError("mse expects a nonempty (N, d) matrix")
    n = pred.data.shape[0]
    diff = pred.data - target.data
    loss = np.asarray((diff ** 2).sum() / n, dtype=pred.data.dtype)

    def vjp(g):
        base = g * 2.0 * diff / n
        return base, -base

    return _make(loss, (pred, target), vjp)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamW:
    """AdamW with decoupled weight decay and bias-corrected moments."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01, no_decay=()):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._no_decay = {id(p) for p in no_decay}
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise RuntimeError("AdamW.step: parameter has no gradient; "
                                   "run backward() first")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, p in enumerate(self.params):
            g = p.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * g * g
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay and id(p) not in self._no_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data

    def zero_grad(self):
        zero_grads(self.params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"LALC"
_VERSION = 1


def save_checkpoint(path, named_params) -> None:
    """Binary checkpoint: magic, u16 version, then one record per tensor
    (u16 name length, name, u8 rank, u32 extents, float32 little-endian data).
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        for name, tensor in named_params:
            data = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
            arr = np.ascontiguousarray(data, dtype="<f4")
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back as an ordered name -> float32 array mapping.

    A file that is not a version-1 checkpoint, or ends inside a record,
    raises ``DataError``.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:

        def read(n: int) -> bytes:
            chunk = fh.read(n)
            if len(chunk) != n:
                raise DataError(f"{path}: truncated checkpoint")
            return chunk

        if fh.read(4) != _MAGIC:
            raise DataError(f"{path}: bad checkpoint magic")
        (version,) = struct.unpack("<H", read(2))
        if version != _VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        while True:
            head = fh.read(2)
            if not head:
                break
            (name_len,) = struct.unpack("<H", head + read(2 - len(head)))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: corrupt checkpoint record name") from None
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            count = int(np.prod(shape)) if shape else 1
            data = np.frombuffer(read(4 * count), dtype="<f4").reshape(shape)
            out[name] = data.copy()
    return out
