"""Tour of the tiny reverse-mode autodiff engine.

Builds a few graphs by hand, checks the gradients against central finite
differences along one random direction per leaf, and shows the relu-kink
guard in action.
"""

import numpy as np

from afm import tensor as T
from afm.tensor import Tensor, backward, grad_check

rng = np.random.default_rng(0)

# --- a scalar chain ---------------------------------------------------------
x = Tensor(np.array([[1.5, -0.5]]), requires_grad=True)
y = T.sum_reduce(T.sigmoid(T.mul(x, x)))
backward(y)
print("d/dx sum(sigmoid(x^2)) at", x.values, "->", x.grad)

# --- a small MLP forward/backward ------------------------------------------
w1 = Tensor(rng.normal(size=(4, 8)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(8, 3)) * 0.5, requires_grad=True)
inp = T.constant(rng.normal(size=(16, 4)))
logits = T.matmul(T.relu(T.matmul(inp, w1)), w2)
loss = T.mean(T.mul(logits, logits))
backward(loss)
print("hidden-layer grad norm:", np.linalg.norm(w1.grad))

# --- finite-difference verification ----------------------------------------
def f(leaves):
    h = T.relu(T.matmul(leaves[0], leaves[1]))
    return T.mean(T.mul(h, h))

point = [rng.normal(size=(5, 4)), rng.normal(size=(4, 6))]
err, skipped = grad_check(f, point)
print(f"max relative error vs finite differences: {err:.2e} (leaves skipped: {skipped})")

# --- the subgradient guard ---------------------------------------------------
# A leaf with a coordinate exactly on the relu kink has no classical
# derivative along almost any direction; the checker detects the
# activation-pattern change between its two probes and skips that leaf,
# returning its index, instead of reporting a bogus mismatch. The second,
# smooth leaf still checks.
kink_point = [np.array([[0.0, 2.0]]), np.array([[0.5, -1.0]])]
err, skipped = grad_check(lambda ls: T.add(T.sum_reduce(T.relu(ls[0])),
                                           T.sum_reduce(T.sigmoid(ls[1]))), kink_point)
print("leaves skipped at a relu kink:", skipped)
print(f"error on the smooth leaf: {err:.2e}")
