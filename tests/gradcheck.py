"""Central finite-difference oracle for gradient tests, plus ``sum_all``.

The oracle is kept independent of the autodiff backward rules: it only calls
forward evaluations of a loss function at perturbed parameter values.
``sum_all`` is the one op the tests add to the engine, to reduce an op's
output to a scalar loss.
"""

import numpy as np

from lingualchemy import autodiff as ad
from lingualchemy.autodiff import Tensor


def sum_all(x: Tensor) -> Tensor:
    """Scalar sum of every element, as a graph node."""
    return ad._make(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,),
                    lambda g: (np.broadcast_to(g, x.data.shape),))


def finite_difference_grad(loss_fn, tensor: Tensor, h: float = 1e-5,
                           coords=None) -> np.ndarray:
    """d loss / d tensor via central differences at selected coordinates.

    ``loss_fn()`` must recompute the loss from current tensor data. Returns
    an array shaped like the tensor, zero-filled outside ``coords``.
    """
    base = tensor.data.copy()
    grad = np.zeros_like(base)
    flat = grad.reshape(-1)
    data_flat = tensor.data.reshape(-1)
    indices = range(base.size) if coords is None else coords
    for i in indices:
        orig = data_flat[i]
        data_flat[i] = orig + h
        up = loss_fn()
        data_flat[i] = orig - h
        down = loss_fn()
        data_flat[i] = orig
        flat[i] = (up - down) / (2.0 * h)
    tensor.data = base
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def check_grad(loss_fn, tensor: Tensor, h: float = 1e-5, coords=None,
               tol: float = 1e-4) -> float:
    """Compare an already-populated tensor.grad against finite differences."""
    assert tensor.grad is not None, "tensor has no gradient"
    fd = finite_difference_grad(loss_fn, tensor, h=h, coords=coords)
    ad_grad = tensor.grad
    if coords is not None:
        mask = np.zeros(tensor.data.size, dtype=bool)
        mask[list(coords)] = True
        ad_grad = np.where(mask.reshape(tensor.data.shape), ad_grad, 0.0)
    err = relative_error(ad_grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e} >= {tol}"
    return err
