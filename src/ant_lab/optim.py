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
        self.stage, self.step = stage, step

    def __reduce__(self):  # rebuilt from (stage, step), e.g. when a worker sends it back
        return type(self), (self.stage, self.step)


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
        idx = self.idx
        # a masked step runs on the gathered masked coordinates and puts them back
        p, g, m, v = ((params, grad, self.m, self.v) if idx is None else
                      (params[idx], grad[idx], self.m[idx], self.v[idx]))
        # in place, in the float64 order of
        #   m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        #   p -= (lr * (m/c1)) / (sqrt(v/c2) + eps),  ci = 1 - bi**t
        step, denom = (b[:len(g)] for b in self._buf)
        m *= self.b1
        m += np.multiply(g, 1 - self.b1, out=step)
        v *= self.b2
        np.multiply(g, 1 - self.b2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, 1 - self.b1**self.t, out=step)
        step *= self.lr
        np.divide(v, 1 - self.b2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        p -= np.divide(step, denom, out=step)
        if idx is not None:
            params[idx], self.m[idx], self.v[idx] = p, m, v
