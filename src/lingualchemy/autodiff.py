"""Reverse-mode autodiff on dense numpy arrays, plus AdamW and checkpoints.

Small by design: rank <= 2 tensors, the exact op set the encoder and the
training losses need, and a tape built implicitly through parent links.
Gradients accumulate into the ``.grad`` of leaf tensors until explicitly
zeroed; each call to :func:`backward` contributes one full pass, and
intermediate results keep no gradient (PyTorch-style semantics).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import DataError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _grad_enabled
    _keep_heap_mapped()
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense row-major float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, vjp):
    """Wrap an op result, recording the backward rule if the graph is live."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
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
    """Accumulate d(loss)/d(t) into ``t.grad`` for every leaf tensor (one
    without a backward rule) that requires grad and feeds ``loss``.

    One pass in reverse topological order: a node's flow is complete when it
    is reached, and it is dropped once passed on to the node's parents, or
    added to ``.grad`` at a leaf. Intermediate results never get ``.grad``.
    Repeated calls without zeroing add one full gradient each time.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    flow: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for node in reversed(_topo_order(loss)):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.requires_grad:
                # flow arrays are never mutated afterwards, so sharing is safe
                node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = flow.get(id(parent))
            flow[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _binary_operand(a: Tensor, b, op: str) -> Tensor:
    """``b`` as a tensor of ``a``'s shape; a Python float becomes a 0-d one."""
    if not isinstance(b, Tensor):
        b = Tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}")
    return b


def add(a: Tensor, b) -> Tensor:
    b = _binary_operand(a, b, "add")
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b) -> Tensor:
    b = _binary_operand(a, b, "mul")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU.

    ``t = tanh(c*(x + 0.044715*x^2*x))``, ``out = 0.5*x*(1 + t)``. Forward and
    gradient are computed in place in that operation order, into arrays of
    their own: ``x``, the saved ``x^2`` and ``t`` and the upstream gradient
    are never written.
    """
    xd = x.data
    sq = np.multiply(xd, xd, out=np.empty_like(xd))  # out= keeps 0-d results arrays
    t = np.multiply(sq, 0.044715, out=np.empty_like(xd))
    t *= xd
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.add(t, 1.0, out=np.empty_like(xd))
    out *= 0.5 * xd

    def vjp(g):
        # g * (0.5*(1 + t) + 0.5*x*(1 - t*t)*du), du = c*(1 + 3*0.044715*x^2)
        b = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, b, out=b)
        h = np.multiply(xd, 0.5, out=np.empty_like(xd))
        b *= h
        np.multiply(sq, 3 * 0.044715, out=h)
        h += 1.0
        h *= _GELU_C
        b *= h
        np.add(t, 1.0, out=h)
        h *= 0.5
        h += b
        h *= g
        return (h,)

    return _make(out, (x,), vjp)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), numerically stable; used for strictly-positive reparams."""
    out = np.logaddexp(0.0, x.data)
    return _make(out, (x,), lambda g: (g / (1.0 + np.exp(-x.data)),))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of (m, k) rows by a (k, n) weight and an (n,)
    bias, as one node."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise ValueError(f"linear: unsupported ranks {xd.ndim} and {wd.ndim}")
    if xd.shape[-1] != wd.shape[0]:
        raise ValueError(f"linear: inner dims differ, {xd.shape} @ {wd.shape}")
    n = wd.shape[1]
    if b.data.shape != (n,):
        raise ValueError(f"linear: bias shape {b.data.shape} != {(n,)}")

    def vjp(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    out = xd @ wd
    out += b.data
    return _make(out, (x, w, b), vjp)


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """(N, d) -> (len(index), d): the rows ``x[index]``, for distinct indices."""
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)
    return _make(x.data[index], (x,), vjp)


def _row_sums(rows: np.ndarray, g: np.ndarray, shape) -> np.ndarray:
    """A zero ``shape`` array plus each row of ``g`` at its index in ``rows``,
    each sum taken in row order from 0.0 (one ``np.bincount`` over the flat
    ``row * d + column`` cells)."""
    v, d = shape
    cells = (rows.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    return np.bincount(cells, weights=g.reshape(-1), minlength=v * d).reshape(v, d)


def embedding(tok: Tensor, pos: Tensor, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """``tok[id] + pos[t]`` for each unmasked position (b, t) of (B, T) token
    ids: token rows plus the learned embedding of each position, as (N, d)
    rows of the N unmasked positions in row-major (b, t) order.

    The id and length checks read every position of ``ids``, masked or not.
    Token and position grads scatter-add back into ``tok`` and ``pos``
    (``_row_sums``); rows that no unmasked position reads get zero.
    """
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=bool)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise ValueError(f"embedding: ids {ids.shape} and mask {mask.shape} "
                         "must be equal (B, T) arrays")
    if ids.shape[1] > pos.data.shape[0]:
        raise ValueError(f"embedding: sequence length {ids.shape[1]} exceeds "
                         f"max_seq_len {pos.data.shape[0]}")
    if ids.min() < 0 or ids.max() >= tok.data.shape[0]:
        raise ValueError("embedding: token id out of range of the vocabulary")
    rows, positions = ids[mask], np.nonzero(mask)[1]

    def vjp(g):
        return (_row_sums(rows, g, tok.data.shape),
                _row_sums(positions, g, pos.data.shape))

    return _make(tok.data[rows] + pos.data[positions], (tok, pos), vjp)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each row of (N, d) ``x`` to zero mean / unit variance
    (``LAYER_NORM_EPS`` is added to the variance), then scale-shift.

    Forward and gradient are computed in place, into arrays of their own, in
    the operation order of the plain formulas (a mean is ``np.add.reduce``
    then ``/= d``, exactly as ``np.mean`` computes it); ``x``, ``gamma``, the
    saved ``xhat`` and the upstream gradient are never written.
    """
    xd = x.data
    if xd.ndim != 2:
        raise ValueError(f"layer_norm: expects (N, d) rows, got shape {xd.shape}")
    d = xd.shape[-1]
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= d
    xhat = xd - mu
    out = xhat * xhat
    var = np.add.reduce(out, axis=-1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def vjp(g):
        dxhat = g * xhat
        dgamma = dxhat.sum(axis=0)
        dbeta = g.sum(axis=0)
        np.multiply(g, gamma.data, out=dxhat)
        m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
        m1 /= d
        tmp = dxhat * xhat
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
        m2 /= d
        dxhat -= m1
        np.multiply(xhat, m2, out=tmp)
        dxhat -= tmp
        dxhat *= inv
        return dxhat, dgamma, dbeta

    return _make(out, (x, gamma, beta), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over packed rows.

    ``key_mask`` is (B, T) boolean, and ``k`` and ``v`` are (N, d) rows of its
    N unmasked positions in row-major (b, t) order. ``q`` is either such rows,
    one query per unmasked position, or (B, d) rows that query from position
    0 of each sequence (the CLS rows); where N = B the two are the same rows.
    Each query attends to the unmasked keys of its own sequence and must keep
    at least one. Head h owns slice ``[h*hd, (h+1)*hd)`` of the last axis,
    hd = d / n_heads. Forward and gradient scatter the rows into zero-filled
    (B, H, T, hd) heads and gather the result rows back; returns the merged
    heads, shaped like ``q``.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    if key_mask.ndim != 2:
        raise ValueError(f"attention: key_mask shape {key_mask.shape} is not (B, T)")
    b, t = key_mask.shape
    n = int(np.count_nonzero(key_mask))
    shape = k.data.shape
    if len(shape) != 2 or shape[0] != n or v.data.shape != shape:
        raise ValueError(f"attention: k and v must share one (N, d) shape for "
                         f"the N = {n} unmasked positions, got {shape} and "
                         f"{v.data.shape}")
    d = shape[1]
    if q.data.shape not in ((n, d), (b, d)):
        raise ValueError(f"attention: q shape {q.data.shape} is neither "
                         f"{(n, d)} (packed rows) nor {(b, d)} (CLS rows)")
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"attention: d={d} is not divisible by n_heads={n_heads}")
    hd = d // n_heads
    factor = 1.0 / np.sqrt(hd)
    packed_q = q.data.shape[0] == n

    def heads(rows, packed):  # rows -> contiguous (B, H, T or 1, hd)
        if packed:
            grid = np.zeros((b, t, n_heads, hd))
            grid[key_mask] = rows.reshape(n, n_heads, hd)
        else:
            grid = rows.reshape(b, 1, n_heads, hd)
        return np.ascontiguousarray(grid.transpose(0, 2, 1, 3))

    def merge(x, packed):  # (B, H, T or 1, hd) -> rows
        x = np.swapaxes(x, 1, 2)
        return (x[key_mask] if packed else x).reshape(-1, d)

    qh = heads(q.data, packed_q)
    kh, vh = heads(k.data, True), heads(v.data, True)
    # softmax in place: separate (B, H, Tq, T) temporaries made batch-64 eval ~2x slower
    p = qh @ np.swapaxes(kh, -1, -2)
    p *= factor
    # one write per masked (row, key) pair: a broadcast `where=` mask took ~4x as long
    masked_rows, masked_keys = np.nonzero(~key_mask)
    p[masked_rows, :, :, masked_keys] = -np.inf
    # numpy reduces a short last axis slowly; a key-first copy gives the same max
    p -= np.ascontiguousarray(np.moveaxis(p, -1, 0)).max(axis=0)[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def vjp(g):
        gh = heads(g, packed_q)
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * factor
        dk = np.swapaxes(np.swapaxes(qh, -1, -2) @ ds, -1, -2)
        return (merge(ds @ kh, packed_q), merge(dk, True),
                merge(np.swapaxes(p, -1, -2) @ gh, True))

    return _make(merge(p @ vh, packed_q), (q, k, v), vjp)


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

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """AdamW with decoupled weight decay and bias-corrected moments.

    The parameters' values live in one contiguous float64 buffer: each
    ``p.data`` becomes a view into it, the decayed parameters first and the
    ``no_decay`` ones as a trailing segment (``params`` keeps that order). The
    gradients, both moments and one scratch buffer are flat as well, so a step
    is one in-place pass over the buffers, in the order of the per-parameter
    update ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, then ``p -= (lr*wd)*p``, where
    b1, b2 and eps are ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    def __init__(self, params, lr=1e-3, weight_decay=0.01, no_decay=()):
        params = list(params)
        self._no_decay = {id(p) for p in no_decay}
        if not self._no_decay <= {id(p) for p in params}:
            raise ValueError("AdamW: a no_decay tensor is not among the parameters")
        self.params = ([p for p in params if id(p) not in self._no_decay]
                       + [p for p in params if id(p) in self._no_decay])
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._flat = np.concatenate([np.ravel(p.data) for p in self.params],
                                    dtype=np.float64)
        self._n_decay = sum(p.data.size for p in self.params
                            if id(p) not in self._no_decay)
        offset = 0
        for p in self.params:
            n = p.data.size
            p.data = self._flat[offset:offset + n].reshape(p.data.shape)
            offset += n
        self._views = [p.data for p in self.params]
        self._grad = np.empty_like(self._flat)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._scratch = np.empty_like(self._flat)
        _keep_heap_mapped()

    def step(self):
        for p, view in zip(self.params, self._views):
            if p.grad is None:
                raise RuntimeError("AdamW.step: parameter has no gradient; "
                                   "run backward() first")
            if p.data is not view:
                raise RuntimeError("AdamW.step: a parameter's .data was replaced "
                                   "after the optimizer was built, so it would "
                                   "no longer be trained")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        g, m, v, s, flat = self._grad, self._m, self._v, self._scratch, self._flat
        np.concatenate([np.ravel(p.grad) for p in self.params], out=g)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=s)
        s *= g
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, bc1, out=g)
        g *= self.lr
        g /= s
        flat -= g
        if self.weight_decay:
            decayed, s = flat[:self._n_decay], s[:self._n_decay]
            np.multiply(decayed, self.lr * self.weight_decay, out=s)
            decayed -= s

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP_BYTES = 32 << 20


@functools.cache
def _keep_heap_mapped() -> None:
    """Let glibc keep freed memory mapped, once per process: the first
    ``AdamW`` or ``no_grad`` block applies it.

    A training step frees megabytes of temporaries and allocates them again
    in the next step. By default glibc serves the large ones with fresh
    ``mmap`` calls and hands the freed top of the heap back to the kernel, so
    every step faults the same pages in again (about 90 minor faults per
    default step, ``resource.getrusage(...).ru_minflt``). A fixed mmap
    threshold and trim threshold keep those pages in the heap for reuse.
    Other C libraries are left as they are.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)


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

    A file that is not a version-1 checkpoint, ends inside a record (or
    declares a record longer than the rest of the file), or repeats a tensor
    name raises ``DataError``.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            # checked before reading, so a corrupt extent allocates nothing
            if n > size - fh.tell():
                raise DataError(f"{path}: truncated checkpoint")
            return fh.read(n)

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
            if name in out:
                raise DataError(f"{path}: repeated checkpoint tensor {name!r}")
            (rank,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            data = np.frombuffer(read(4 * math.prod(shape)), dtype="<f4").reshape(shape)
            out[name] = data.copy()
    return out
