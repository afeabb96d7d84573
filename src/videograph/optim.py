"""SGD with momentum and decoupled-from-nothing classic weight decay.

Update rule, per parameter:
    v <- momentum * v + (grad + weight_decay * theta)
    theta <- theta - lr * v
Gradients are an argument of the step: the dict `Tape.backward` returns.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class SgdMomentum:
    def __init__(self, params: dict[str, Tensor], learning_rate: float, momentum: float,
                 weight_decay: float):
        if learning_rate < 0:
            raise ValueError(f"learning_rate must be non-negative, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Update every parameter from grads[param]; grads is only read."""
        missing = [name for name, p in self.params.items() if p not in grads]
        if missing:
            raise RuntimeError(f"parameters {missing} have no gradient; pass Tape.backward's result")
        for name, p in self.params.items():
            v = self.velocity[name]
            v *= self.momentum
            v += grads[p] + self.weight_decay * p.data
            p.data -= self.learning_rate * v
