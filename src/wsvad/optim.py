"""Adam optimizer with the L2 penalty folded into the gradient.

The moments live in one flat buffer each, the parameters' entries laid end
to end in table order, and a step updates them a block of at most
``ADAM_BLOCK`` entries at a time: consecutive parameters with a gradient are
packed into one block, and a larger parameter is updated in place, a chunk
at a time. Every op is elementwise, so a block gives each entry the bits the
same ops give it over its own parameter, and one block's arrays stay in
cache from op to op.
"""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ADAM_BLOCK = 1 << 15  # entries per update block: 128 KiB of float32 per array


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
        sizes = [p.data.size for p in self.params.values()]
        self._offsets = np.cumsum([0, *sizes]).tolist()
        dtype = np.result_type(*(p.data.dtype for p in self.params.values())) if sizes else np.float32
        self._m = np.zeros(self._offsets[-1], dtype=dtype)
        self._v = np.zeros(self._offsets[-1], dtype=dtype)

    def _blocks(self) -> list[tuple[int, list[tuple[Tensor, int, int]]]]:
        """The step's update blocks, in table order: each block's first
        moment entry and its pieces (parameter, first entry, stop), which lie
        end to end in the moments. A parameter without a gradient ends a
        block, and its moments are left as they are."""
        blocks: list[tuple[int, list[tuple[Tensor, int, int]]]] = []
        room = 0  # entries the last block can still take
        for (name, p), off in zip(self.params.items(), self._offsets):
            if p.grad is None:
                room = 0
                continue
            if p.grad.shape != p.data.shape:
                raise ShapeError(f"adam: shape of '{name}' drifted from {p.data.shape} to {p.grad.shape}")
            if not p.data.flags.writeable:
                p.data = p.data.copy()
            n = p.data.size
            if n == 0:
                continue
            if n <= room:
                blocks[-1][1].append((p, 0, n))
                room -= n
            else:
                for start in range(0, n, ADAM_BLOCK):
                    blocks.append((off + start, [(p, start, min(n, start + ADAM_BLOCK))]))
                room = max(0, ADAM_BLOCK - n)
        return blocks

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient.

        Each block runs the textbook expression's ufuncs in place on its
        moments and its entries, through one block of scratch; each ufunc
        rounds as the textbook expression does, so the values are the same
        bits.
        A block of one piece of a contiguous parameter works on the
        parameter's own array; the pieces of a packed block are copied into
        scratch and the new values copied back. An array a parameter was
        built on without a copy changes with it; a read-only one is replaced
        by a private copy first.
        """
        blocks = [(lo, pieces, sum(stop - start for _, start, stop in pieces)) for lo, pieces in self._blocks()]
        self.step_count += 1
        bc1 = 1.0 - BETA1**self.step_count
        bc2 = 1.0 - BETA2**self.step_count
        # s, t and a packed block's gradient and parameter entries
        scratch = np.empty((4, max((n for *_, n in blocks), default=0)), dtype=self._m.dtype)
        for lo, pieces, n in blocks:
            m, v = self._m[lo : lo + n], self._v[lo : lo + n]
            s, t, g, w = scratch[:, :n]
            p, start, stop = pieces[0]
            in_place = len(pieces) == 1 and p.data.flags.c_contiguous
            if in_place:
                g, w = p.grad.reshape(-1)[start:stop], p.data.reshape(-1)[start:stop]
            else:
                at = 0
                for p, start, stop in pieces:
                    g[at : at + stop - start] = p.grad.reshape(-1)[start:stop]
                    w[at : at + stop - start] = p.data.reshape(-1)[start:stop]
                    at += stop - start
            if self.weight_decay:
                g = np.add(g, np.multiply(w, self.weight_decay, out=t), out=t)
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g^2
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            v += np.multiply(np.square(g, out=s), 1.0 - BETA2, out=s)
            # p -= (lr / bc1) * m / (sqrt(v / bc2) + eps)
            np.multiply(m, self.lr / bc1, out=s)
            np.sqrt(np.divide(v, bc2, out=t), out=t)
            t += EPS
            w -= np.divide(s, t, out=s)
            if not in_place:
                at = 0
                for p, start, stop in pieces:
                    # a strided parameter is written through its flat iterator
                    dest = p.data.reshape(-1) if p.data.flags.c_contiguous else p.data.flat
                    dest[start:stop] = w[at : at + stop - start]
                    at += stop - start

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
