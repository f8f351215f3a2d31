"""Adam with classic (coupled) L2 weight decay.

The decay term is added to the raw gradient before the moment updates,
matching the original Adam formulation rather than the decoupled
variant.
"""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        # params: iterable of (name, Tensor)
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in self.params}
        self._v = {name: np.zeros_like(t.data) for name, t in self.params}

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params:
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name}")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
