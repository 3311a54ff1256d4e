"""Network building blocks: MLP scorers and the temporal context module.

Each block is a small dataclass of parameter tensors plus its forward pass.
The blocks declare no shapes and draw no weights: `model.param_shapes` is the
one table of the detector's parameters, and `model` builds every block from
arrays filled in by that table.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autograd as ag
from .autograd import Tensor

CONV_DILATIONS = (1, 2, 4)  # one parallel conv branch each


@dataclass
class MLP:
    """Fully-connected net: ReLU hidden layers (optionally dropped out by
    `mlp_forward`'s masks), sigmoid output."""

    weights: list[Tensor]
    biases: list[Tensor]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)


def mlp_forward(mlp: MLP, x: Tensor, *, bags: int = 1, masks: list[Tensor] | None = None) -> Tensor:
    """Apply the MLP along the last axis of x (..., d_in), whose rows hold
    ``bags`` stacked bags, returning (..., d_out): one `autograd.mlp` op for
    every layer. Given ``masks``, one per hidden layer, each of that layer's
    output shape, each hidden layer's output is multiplied by its mask:
    inverted dropout, with the kept units' 1 / (1 - p) scale already in the
    mask (``trainer.forward_loss`` draws them)."""
    return ag.mlp(x, mlp.weights, mlp.biases, "sigmoid", bags, masks)


@dataclass
class ConvModule:
    """Temporal context block: parallel dilated convolutions plus one
    embedded-Gaussian self-attention branch, concatenated back to the input
    width with a residual connection. The kernel size and the width come
    from the conv weights.
    """

    conv_w: list[Tensor]
    conv_b: list[Tensor]
    w_theta: Tensor
    w_phi: Tensor
    w_g: Tensor

    @property
    def width(self) -> int:
        return self.conv_w[0].shape[1]


def conv_module_forward(mod: ConvModule, x: Tensor, bags: int = 1, scale: Tensor | None = None) -> Tensor:
    """Apply the context block to ``scale * x``: ``bags`` bags of T snippets
    stacked along the rows, (bags * T, d) -> (bags * T, d).

    x is the constant feature batch and ``scale`` (bags * T, 1), when given,
    each snippet's attention inclusion. Every branch is linear in its input
    rows, so each applies the scale after its own projection; the residual
    adds ``scale * x``. Bags do not see each other: every conv pads each bag
    on its own, and the attention branch is a batched (bags, T, T) product.
    Each branch is one op.
    """
    if x.ndim != 2 or x.shape[1] != mod.width:
        raise ag.ShapeError(f"conv module expects (T, {mod.width}), got {x.shape}")
    # conv1d_dilated checks that the rows split into equal bags
    branches = [
        ag.conv1d_dilated(x, w, dil, bags, bias=b, scale=scale)
        for w, b, dil in zip(mod.conv_w, mod.conv_b, CONV_DILATIONS)
    ]
    branches.append(ag.nonlocal_attention(x, mod.w_theta, mod.w_phi, mod.w_g, bags, scale=scale))
    return ag.concat(branches, axis=1) + (x if scale is None else x * scale)
