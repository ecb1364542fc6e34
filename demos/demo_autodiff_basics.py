"""The reverse-mode engine underneath everything: build a loss, check its
gradient against central finite differences, and take AdamW steps."""

import numpy as np

from lingualchemy import autodiff as ad
from lingualchemy.autodiff import AdamW, Tensor

rng = np.random.default_rng(0)

# a two-layer toy regression: y = gelu(x W1 + b1) W2 + b2
x = Tensor(rng.normal(size=(8, 4)))
target = Tensor(rng.normal(size=(8, 2)))
w1 = Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(6, 2)) * 0.5, requires_grad=True)
b1 = Tensor(np.zeros(6), requires_grad=True)
b2 = Tensor(np.zeros(2), requires_grad=True)


def loss_value():
    return ad.mse(ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2), target)


loss = loss_value()
ad.backward(loss)
print(f"loss = {loss.item():.4f}")

# spot-check one coordinate of dL/dw1 with central differences
i, h = 3, 1e-6
orig = w1.data.flat[i]
w1.data.flat[i] = orig + h
up = loss_value().item()
w1.data.flat[i] = orig - h
down = loss_value().item()
w1.data.flat[i] = orig
fd = (up - down) / (2 * h)
print(f"dL/dw1[{i}]: backward {w1.grad.flat[i]:+.6f}  finite-diff {fd:+.6f}")

# gradients accumulate until zeroed: a second backward doubles them
g_once = w1.grad.flat[i]
ad.backward(loss)
print(f"after second backward: {w1.grad.flat[i]:+.6f} (= 2x {g_once:+.6f})")

# train the toy down with AdamW
opt = AdamW([w1, b1, w2, b2], lr=3e-2)
opt.zero_grad()
for step in range(200):
    loss = loss_value()
    ad.backward(loss)
    opt.step()
    opt.zero_grad()
    if step % 50 == 49:
        print(f"step {step + 1:3d}: loss {loss.item():.6f}")
