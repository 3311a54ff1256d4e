"""Adam optimizer with the L2 penalty folded into the gradient."""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam. Weight decay is classic L2: added to the raw gradient
    before the moment updates, not applied decoupled.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 0.001,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        The moments and ``p.data`` are updated in place, through one two-slot
        scratch array per parameter; each ufunc rounds as the textbook
        expression does, so the values are the same bits. An array a
        parameter was built on without a copy changes with it; a read-only
        one is replaced by a private copy first.
        """
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            m, v = self._m[name], self._v[name]
            if p.grad.shape != m.shape:
                raise ShapeError(f"adam: shape of '{name}' drifted from {m.shape} to {p.grad.shape}")
            if not p.data.flags.writeable:
                p.data = p.data.copy()
            s, t = np.empty((2, *m.shape), dtype=m.dtype)
            g = p.grad
            if self.weight_decay:
                g = np.add(g, np.multiply(p.data, self.weight_decay, out=t), out=t)
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g^2
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            v += np.multiply(np.square(g, out=s), 1.0 - BETA2, out=s)
            # p -= (lr / bc1) * m / (sqrt(v / bc2) + eps)
            np.multiply(m, self.lr / bc1, out=s)
            np.sqrt(np.divide(v, bc2, out=t), out=t)
            t += EPS
            p.data -= np.divide(s, t, out=s)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
