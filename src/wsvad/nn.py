"""Network building blocks: MLP scorers and the temporal context module.

Parameters are plain tensors grouped in small dataclasses; `named_params`
flattens them into an ordered dict for the optimizer and checkpointing.
Weights use fan-based uniform init, biases start at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


@dataclass
class MLP:
    """Fully-connected net: ReLU hidden layers (optionally dropped out), sigmoid output."""

    weights: list[Tensor]
    biases: list[Tensor]
    dropout_p: float = 0.0

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights) + (self.weights[-1].shape[1],)

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.{i}.w"] = w
            out[f"{prefix}.{i}.b"] = b
        return out


def mlp_init(dims: tuple[int, ...], rng: np.random.Generator, dropout_p: float = 0.0) -> MLP:
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(Tensor(xavier_uniform(rng, (fan_in, fan_out), fan_in, fan_out), requires_grad=True))
        biases.append(Tensor(np.zeros(fan_out, dtype=np.float32), requires_grad=True))
    return MLP(weights, biases, dropout_p)


def mlp_forward(
    mlp: MLP,
    x: Tensor,
    *,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Apply the MLP row-wise to a (T, d_in) tensor, returning (T, d_out):
    one `linear` op per layer, plus dropout after each hidden layer."""
    h = x
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        h = ag.linear(h, w, b, "relu")
        if mlp.dropout_p > 0.0:
            h = ag.dropout(h, mlp.dropout_p, train, rng)
    return ag.linear(h, mlp.weights[-1], mlp.biases[-1], "sigmoid")


@dataclass
class ConvModule:
    """Temporal context block: parallel dilated convolutions plus one
    embedded-Gaussian self-attention branch, concatenated back to the input
    width with a residual connection. Requires the feature width to be
    divisible by four (three conv branches + attention, d/4 channels each).
    """

    conv_w: list[Tensor]
    conv_b: list[Tensor]
    w_theta: Tensor
    w_phi: Tensor
    w_g: Tensor
    dilations: tuple[int, ...] = (1, 2, 4)
    kernel: int = field(default=3)

    @property
    def width(self) -> int:
        return self.conv_w[0].shape[1]

    def named_params(self, prefix: str) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out[f"{prefix}.conv{i}.w"] = w
            out[f"{prefix}.conv{i}.b"] = b
        out[f"{prefix}.attn.theta"] = self.w_theta
        out[f"{prefix}.attn.phi"] = self.w_phi
        out[f"{prefix}.attn.g"] = self.w_g
        return out


def conv_module_init(d: int, rng: np.random.Generator, kernel: int = 3) -> ConvModule:
    if d % 4 != 0:
        raise ValueError(f"feature width must be divisible by 4, got {d}")
    c = d // 4
    conv_w, conv_b = [], []
    for _ in range(3):
        conv_w.append(
            Tensor(xavier_uniform(rng, (kernel, d, c), kernel * d, kernel * c), requires_grad=True)
        )
        conv_b.append(Tensor(np.zeros(c, dtype=np.float32), requires_grad=True))
    w_theta = Tensor(xavier_uniform(rng, (d, c), d, c), requires_grad=True)
    w_phi = Tensor(xavier_uniform(rng, (d, c), d, c), requires_grad=True)
    w_g = Tensor(xavier_uniform(rng, (d, c), d, c), requires_grad=True)
    return ConvModule(conv_w, conv_b, w_theta, w_phi, w_g, kernel=kernel)


def conv_module_forward(mod: ConvModule, x: Tensor, bags: int = 1) -> Tensor:
    """Apply the context block to ``bags`` bags of T snippets stacked along
    the rows, (bags * T, d) -> (bags * T, d).

    Bags do not see each other: every conv pads each bag on its own, and the
    attention branch is a batched (bags, T, T) product. Each branch is one op.
    """
    if x.ndim != 2 or x.shape[1] != mod.width:
        raise ag.ShapeError(f"conv module expects (T, {mod.width}), got {x.shape}")
    # conv1d_dilated checks that the rows split into equal bags
    branches = [
        ag.conv1d_dilated(x, w, dil, bags, bias=b)
        for w, b, dil in zip(mod.conv_w, mod.conv_b, mod.dilations)
    ]
    branches.append(ag.nonlocal_attention(x, mod.w_theta, mod.w_phi, mod.w_g, bags))
    return ag.concat(branches, axis=1) + x
