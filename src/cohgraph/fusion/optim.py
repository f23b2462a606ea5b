"""AdamW with decoupled weight decay over a flat parameter dict.

Updates are applied in place, in sorted parameter-name order, so optimizer
behaviour is a deterministic function of (params, grads, step count).
"""

from __future__ import annotations

import numpy as np


class AdamW:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 weight_decay: float = 0.01,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self._size = max((arr.size for arr in params.values()), default=0)

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of every parameter, in place. Each update evaluates
        m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2,
        p *= 1 - lr * weight_decay and
        p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) operation by operation
        in that order, into two scratch arrays the size of the largest
        parameter, shared by every parameter's update and freed after the
        step, instead of a temporary per operation."""
        self.t += 1
        scratch = (np.empty(self._size), np.empty(self._size))
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            a, b = (buf[:p.size].reshape(p.shape) for buf in scratch)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=a)
            m += a
            v *= self.beta2
            np.square(g, out=a)
            np.multiply(1.0 - self.beta2, a, out=a)
            v += a
            # decoupled decay on the pre-step value, then the Adam update
            p *= 1.0 - self.lr * self.weight_decay
            np.divide(m, bc1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a
