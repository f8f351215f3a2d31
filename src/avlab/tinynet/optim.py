"""Adam with classic (coupled) L2 weight decay.

The decay term is added to the raw gradient before the moment updates,
matching the original Adam formulation rather than the decoupled
variant.  The moment decays and epsilon are the fixed defaults of the
Adam paper.  Adam owns the parameters' storage: ``flat`` holds them all,
and each tensor's ``.data`` is re-pointed at its view of it.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.0):
        # params: iterable of (name, Tensor)
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.flat = np.concatenate([t.data.ravel() for _, t in self.params])
        ends = np.cumsum([t.data.size for _, t in self.params])
        for (_, t), view in zip(self.params, np.split(self.flat, ends[:-1])):
            t.data = view.reshape(t.data.shape)
        self._m, self._v = np.zeros_like(self.flat), np.zeros_like(self.flat)

    def zero_grad(self) -> None:
        for _, t in self.params:
            t.grad = None

    def step(self) -> None:
        for name, p in self.params:
            if p.grad is None:
                raise ValueError(f"no gradient for {name}")
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name}")
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        g = np.concatenate([p.grad.ravel() for _, p in self.params])
        if self.weight_decay:
            g = g + self.weight_decay * self.flat
        self._m *= BETA1
        self._m += (1.0 - BETA1) * g
        self._v *= BETA2
        self._v += (1.0 - BETA2) * g * g
        self.flat -= self.lr * (self._m / bc1) / (np.sqrt(self._v / bc2) + EPS)
