"""Adam with optional coordinate masking.

When a mask is supplied, both the update and the moment accumulators touch
only the masked coordinates, so unmasked ones stay bitwise constant.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "TrainingDivergedError"]


class TrainingDivergedError(RuntimeError):
    """A training loop met a non-finite loss; nothing it trained is returned."""

    def __init__(self, stage: str, step: int):
        super().__init__(f"{stage} diverged: non-finite loss at step {step}")


class Adam:
    def __init__(self, n_params: int, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
                 mask: np.ndarray | None = None):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        if mask is not None and len(mask) != n_params:
            raise ValueError(f"mask covers {len(mask)} coordinates, expected {n_params}")
        self.idx = None if mask is None else np.flatnonzero(np.asarray(mask, dtype=bool))
        self._buf = (np.empty(n_params), np.empty(n_params))

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        if self.idx is not None:
            g = grad[self.idx]
            m = self.m[self.idx] = self.b1 * self.m[self.idx] + (1 - self.b1) * g
            v = self.v[self.idx] = self.b2 * self.v[self.idx] + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1**self.t)
            vhat = v / (1 - self.b2**self.t)
            params[self.idx] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        else:
            # in place, in the float64 order of
            #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            #   params -= (lr * (m/c1)) / (sqrt(v/c2) + eps),  ci = 1 - bi**t
            step, denom = self._buf
            self.m *= self.b1
            self.m += np.multiply(grad, 1 - self.b1, out=step)
            self.v *= self.b2
            np.multiply(grad, 1 - self.b2, out=step)
            self.v += np.multiply(step, grad, out=step)
            np.divide(self.m, 1 - self.b1**self.t, out=step)
            step *= self.lr
            np.divide(self.v, 1 - self.b2**self.t, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            params -= np.divide(step, denom, out=step)
