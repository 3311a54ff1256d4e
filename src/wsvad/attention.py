"""Temporal self-attention over snippet features.

A shallow scorer maps each snippet to a relevance score in (0, 1). The
top-k nominator perturbs the score vector with Gaussian noise and takes the
hard top-k per sample, by a partial selection rather than a sort: a sample
keeps every snippet whose perturbed score is at least its kappa-th largest,
which is exactly the top-k unless ties at that value overfill it; only such
samples then keep their lowest-index ties, as a stable descending sort would.
Averaging the samples' one-hot ranks gives a row-stochastic soft-selection
matrix.
Fusing that matrix with the input reduces to scaling every snippet by its
inclusion probability, the fraction of samples that selected it, so only the
inclusion is computed. The scaled features are never formed: the context
module is linear in its input rows, so it scales its own projections of the
raw features by the inclusion instead.

The selection is made differentiable by the Monte-Carlo smoothed-perturbation
estimator (Berthet et al., 2020): with per-sample inclusion indicators v_m and
standard-normal draws z_m, the Jacobian of the inclusion w.r.t. the scores is
estimated by mean(v_m z_m^T) / sigma, reusing the forward draws. The score
gradient is computed directly as mean(c_m z_m) / sigma with
c_m = v_m . grad_incl, the upstream inclusion gradient summed over the
snippets sample m selected.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .nn import MLP, mlp_forward

# one generator that serves every bag in turn, or one per bag (see ``topk_score``)
Rngs = np.random.Generator | Sequence[np.random.Generator]


@dataclass(frozen=True)
class TsaConfig:
    num_samples: int = 100  # Monte-Carlo samples per selection
    ratio: float = 0.7  # fraction of snippets to keep
    sigma_noise: float = 0.05  # scale of the score perturbation
    seed: int = 0  # unread: streams come from TrainConfig.seed; kept as benchmark workloads and criteria 9-10 set it

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        if not 0.0 < self.sigma_noise < math.inf:
            raise ValueError(f"sigma_noise must be positive and finite, got {self.sigma_noise}")


def kappa_from_ratio(t_len: int, ratio: float) -> int:
    """Number of snippets to select: floor(T * ratio), never below 1, taken
    exactly for the decimal the ratio prints as (90 * 0.7 keeps 63, where the
    float product 62.99999999999999 would floor to 62)."""
    if t_len < 1:
        raise ValueError(f"snippet count must be positive, got {t_len}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    return max(1, math.floor(Fraction(repr(float(ratio))) * t_len))


@dataclass
class SoftSelection:
    """Per-snippet inclusion probabilities of a perturbed top-k, plus the
    saved draws needed to differentiate through it.

    A selection from ``tsa_fuse``, or from ``topk_score`` given bags along
    leading axes, carries them on every array (written ``...`` below). The
    rank order of each sample's picks (``indices``, ``vhat``) is not kept;
    it is recomputed from ``scores`` and ``noise`` when asked for.
    """

    inclusion: np.ndarray  # (..., T) fraction of samples selecting each snippet, exact counts over M
    selected: np.ndarray  # (..., M, T) bool, whether sample m kept snippet t
    scores: np.ndarray  # (..., T) unperturbed float64 scores
    noise: np.ndarray  # (..., M, T) standard-normal draws
    sigma: float
    kappa: int

    @property
    def num_samples(self) -> int:
        return self.noise.shape[-2]

    @property
    def t_len(self) -> int:
        return self.noise.shape[-1]

    @property
    def indices(self) -> np.ndarray:
        """(..., M, kappa) per-sample selected indices in rank order: descending
        perturbed score, ties to the lower index."""
        perturbed = _perturb(self.scores, self.noise, self.sigma)
        return np.argsort(-perturbed, axis=-1, kind="stable")[..., : self.kappa]

    @property
    def vhat(self) -> np.ndarray:
        """Row-stochastic (..., kappa, T) average of the per-rank one-hot selections."""
        return (self.indices[..., None] == np.arange(self.t_len)).sum(axis=-3) / self.num_samples

    def sample_inclusion(self) -> np.ndarray:
        """Per-sample 0/1 inclusion indicators, shape (..., M, T)."""
        return self.selected.astype(np.float64)

    def inclusion_jacobian(self) -> np.ndarray:
        """Estimated d(inclusion)/d(scores), shape (..., T, T)."""
        if self.sigma == 0.0:
            raise ValueError("inclusion_jacobian undefined for unperturbed selection")
        v = self.sample_inclusion()
        return (np.swapaxes(v, -1, -2) @ self.noise) / (self.num_samples * self.sigma)

    def grad_scores(self, grad_incl: np.ndarray) -> np.ndarray:
        """Backpropagate a (..., T) gradient on the inclusion to the scores.

        Selecting everything makes the selection constant, so the gradient is
        exactly zero there.
        """
        if self.kappa == self.t_len:
            return np.zeros(self.inclusion.shape, dtype=np.float64)
        if self.sigma == 0.0:
            raise ValueError("grad_scores undefined for unperturbed selection")
        # c[..., m]: the gradient summed over the snippets sample m selected
        c = (self.selected @ grad_incl[..., None])[..., 0]
        return (c[..., None, :] @ self.noise)[..., 0, :] / (self.num_samples * self.sigma)


def _perturb(scores: np.ndarray, noise: np.ndarray, sigma: float) -> np.ndarray:
    """(..., M, T) perturbed scores: every sample's copy of the scores plus its noise."""
    perturbed = sigma * noise
    perturbed += scores[..., None, :]
    return perturbed


def topk_score(
    omega: np.ndarray,
    kappa: int,
    num_samples: int,
    sigma: float,
    rng: Rngs | None = None,
    *,
    noise: np.ndarray | None = None,
) -> SoftSelection:
    """Perturbed top-k nominator.

    Clones the score vector ``num_samples`` times, adds Gaussian noise of
    scale ``sigma``, takes each sample's top-``kappa`` snippets by descending
    perturbed score (ties to the lower index) and counts how often each
    snippet was selected.

    ``omega`` (..., T) holds one bag's T scores along its last axis; any
    leading axes are bags, which the selection's arrays keep in front. The
    bags draw their (M, T) noise in C order, each from its generator: a
    sequence gives one per bag (a length other than the bag count is a
    ValueError), and a single generator serves every bag in turn, which is
    the stream of one (..., M, T) draw. Each bag draws what a one-bag call
    with its generator would.

    A sample first keeps every snippet at or above its kappa-th largest
    perturbed score, so each of the ``...`` x M samples keeps at least kappa
    (for scores and noise that hold no NaN). Some sample overfills exactly
    when the count over the whole array is above kappa per sample, kappa x
    samples; only then are the per-sample counts taken, and each overfilled
    sample cut to its lowest-index ties.
    """
    w = np.asarray(omega, dtype=np.float64)
    if w.ndim == 0 or w.shape[-1] < 1:
        raise ValueError(f"expected scores along a non-empty last axis, got shape {w.shape}")
    t_len = w.shape[-1]
    if not 1 <= kappa <= t_len:
        raise ValueError(f"kappa must be in [1, {t_len}], got {kappa}")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")

    shape = (*w.shape[:-1], num_samples, t_len)
    bags = math.prod(w.shape[:-1])
    rngs = [rng] * bags if isinstance(rng, np.random.Generator) else rng
    if rngs is not None and len(rngs) != bags:
        raise ValueError(f"expected one generator per bag ({bags}), got {len(rngs)}")
    if noise is not None:
        z = np.asarray(noise, dtype=np.float64)
        if z.shape != shape:
            raise ValueError(f"noise must have shape {shape}, got {z.shape}")
    elif sigma == 0.0:
        z = np.zeros(shape)
    else:
        if rngs is None:
            raise ValueError("an rng is required when sigma > 0 and no noise is supplied")
        z = np.empty(shape)
        for bag_rng, bag in zip(rngs, z.reshape(bags, num_samples, t_len)):
            bag_rng.standard_normal(out=bag)

    perturbed = _perturb(w, z, sigma)
    # the set a stable descending sort puts first, without the sort: every score
    # at or above the sample's kappa-th largest, and where ties at the kappa-th
    # overfill that, only the lowest-index ties that fit (an int32 running count
    # is a third of the cost of the default int64 one). One count over the
    # whole array finds whether any sample overfills (see the docstring)
    kth = np.partition(perturbed, t_len - kappa, axis=-1)[..., t_len - kappa, None]
    selected = perturbed >= kth
    if np.count_nonzero(selected) > kappa * (selected.size // t_len):
        over = np.count_nonzero(selected, axis=-1) > kappa
        p, k = perturbed[over], kth[over]
        above, tied = p > k, p == k
        room = kappa - np.count_nonzero(above, axis=-1, keepdims=True)
        selected[over] = above | (tied & (np.cumsum(tied, axis=-1, dtype=np.int32) <= room))
    inclusion = np.count_nonzero(selected, axis=-2) / num_samples
    return SoftSelection(
        inclusion=inclusion, selected=selected, scores=w, noise=z, sigma=float(sigma), kappa=kappa
    )


def tsa_fuse(
    omega: Tensor,
    cfg: TsaConfig,
    rng: Rngs | None = None,
    *,
    noise: np.ndarray | None = None,
    bags: int = 1,
) -> tuple[Tensor, SoftSelection]:
    """Nominate the top-kappa from precomputed scores; returns each
    snippet's inclusion as a (rows, 1) tensor, and the selection.

    ``omega`` (rows, 1) holds one score per snippet of ``bags`` bags of T
    snippets stacked along the rows. Each bag keeps its own top-kappa, all
    drawn in one ``topk_score`` call; ``noise`` and the selection have a bag
    axis. Cloning the selection over feature channels, multiplying
    elementwise and summing over ranks collapses to scaling each snippet by
    its inclusion probability, so the fused features are
    ``inclusion * features``. They are not formed here: the layers after the
    attention are linear in their input rows, so they apply the inclusion to
    their own projections (``nn.conv_module_forward``'s ``scale``).
    """
    if omega.ndim != 2 or omega.shape[1] != 1:
        raise ag.ShapeError(f"expected one score per snippet, (rows, 1), got {omega.shape}")
    kappa = kappa_from_ratio(ag.bag_length(omega.shape[0], bags), cfg.ratio)
    selection = topk_score(omega.data.reshape(bags, -1), kappa, cfg.num_samples, cfg.sigma_noise, rng, noise=noise)

    def vjp(g):
        grad_omega = selection.grad_scores(g.astype(np.float64).reshape(selection.inclusion.shape))
        return (grad_omega.astype(omega.data.dtype).reshape(omega.shape),)

    incl = ag.custom_op("tsa_select", selection.inclusion.reshape(omega.shape), (omega,), vjp)
    return incl, selection


def tsa_forward(
    features: Tensor,
    scorer: MLP,
    cfg: TsaConfig,
    rng: Rngs | None = None,
    *,
    bags: int = 1,
) -> tuple[Tensor, SoftSelection, Tensor]:
    """Score snippets and nominate the top-kappa.

    ``features`` holds ``bags`` bags of T snippets stacked along the rows.
    Returns each snippet's inclusion (rows, 1), the soft selection, and the
    raw scores, one row per input row.
    """
    omega = mlp_forward(scorer, features, bags=bags)
    incl, selection = tsa_fuse(omega, cfg, rng, bags=bags)
    return incl, selection, omega
