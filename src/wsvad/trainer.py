"""Difference-maximization training over bags of snippet features.

Each mini-batch holds B normal bags followed by B abnormal bags, stacked
along the rows so that a training step is one graph. Bags pass through
attention (optional), the temporal context module, and the snippet
classifier; the loss pushes the top-alpha feature magnitude of each abnormal
bag above its paired normal bag by a margin, plus a binary cross-entropy on
video scores (each video scored by the mean classifier output of its
top-alpha snippets, ranked by feature magnitude like the margin term).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .attention import TsaConfig
from .autograd import Tensor
from .features import DatasetManifest, load_records, require_both_classes, temporal_normalize
from .model import Model, init_model, score_bag
from .optim import Adam

# No call site here: benchmarks/spans.py looks these names up on this module.
from .attention import tsa_fuse  # noqa: F401
from .nn import conv_module_forward, mlp_forward  # noqa: F401

BCE_EPS = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    t_len: int = 32  # snippets per bag after temporal resizing
    batch_bags: int = 8  # B; the actual batch holds 2*B bags
    epochs: int = 200
    lr: float = 0.001
    weight_decay: float = 0.005
    alpha: int = 3  # top instances per bag in the loss
    margin: float = 100.0
    w_margin: float = 1.0
    w_bce: float = 1.0
    tsa: TsaConfig = field(default_factory=TsaConfig)
    tsa_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t_len < 1 or self.batch_bags < 1 or self.epochs < 1:
            raise ValueError("t_len, batch_bags and epochs must be positive")
        if not 1 <= self.alpha <= self.t_len:
            raise ValueError(f"alpha must be in [1, {self.t_len}], got {self.alpha}")
        if self.lr < 0 or self.weight_decay < 0 or self.margin < 0:
            raise ValueError("lr, weight_decay and margin must be non-negative")


@dataclass
class BatchLayout:
    """2B bags of T snippets stacked along the rows, the B normal bags first."""

    features: Tensor  # (2B * T, d)
    labels: np.ndarray  # (2B,) of {0, 1}
    videos: np.ndarray  # (2B,) index of each bag's video in the training array


def build_batch(
    videos: np.ndarray, labels: np.ndarray, batch_bags: int, rng: np.random.Generator
) -> BatchLayout:
    """Draw B normal and B abnormal bags from ``videos`` (N, T, d), whose
    classes ``labels`` (N,) gives, and gather them with one ``np.take``.

    Sampling is without replacement per class when the class has at least B
    videos, with replacement otherwise.
    """
    labels = np.asarray(labels)
    normal, abnormal = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    if not normal.size or not abnormal.size:
        raise ValueError(
            f"training needs both classes ({normal.size} normal, {abnormal.size} abnormal)"
        )
    drawn = np.concatenate(
        [pool[rng.choice(pool.size, size=batch_bags, replace=pool.size < batch_bags)] for pool in (normal, abnormal)]
    )
    features = np.take(videos, drawn, axis=0).reshape(-1, videos.shape[-1])
    return BatchLayout(features=Tensor(features), labels=np.repeat([0, 1], batch_bags), videos=drawn)


def top_alpha_rows(feats: np.ndarray, alpha: int) -> np.ndarray:
    """Indices of the alpha rows with the largest float64 Euclidean magnitude,
    largest first, ties to the lower index. Rows run along the second-to-last
    axis; leading axes are batch axes."""
    mags = np.linalg.norm(np.asarray(feats, dtype=np.float64), axis=-1)
    return np.argsort(-mags, axis=-1, kind="stable")[..., :alpha]


def _stacked_top_rows(feats: np.ndarray, bags: int, alpha: int) -> np.ndarray:
    """(bags, alpha) stacked-row indices of each bag's top-alpha rows, for
    ``bags`` bags of T rows stacked in a (bags * T, d) array."""
    if feats.ndim != 2:
        raise ag.ShapeError(f"expected (T, d) features stacked along the rows, got {feats.shape}")
    t_len = ag.bag_length(feats.shape[0], bags)
    if not 1 <= alpha <= t_len:
        raise ValueError(f"alpha must be in [1, {t_len}], got {alpha}")
    return top_alpha_rows(feats.reshape(bags, t_len, -1), alpha) + t_len * np.arange(bags)[:, None]


def _top_alpha_means(x: Tensor, rows: np.ndarray) -> Tensor:
    """(bags, width) mean of each bag's ``rows`` (bags, alpha) of x."""
    bags, alpha = rows.shape
    return ag.gather_rows(x, rows.ravel()).reshape(bags, alpha, x.shape[1]).mean(axis=1)


def top_alpha_mean(feats: Tensor, alpha: int) -> Tensor:
    """Mean of the alpha rows with the largest Euclidean magnitude, (T, d) -> (d,).

    The selection itself is treated as constant, so gradients flow only into
    the selected rows.
    """
    return _top_alpha_means(feats, _stacked_top_rows(feats.data, 1, alpha)).reshape(feats.shape[1])


def _magnitudes(feats: Tensor, rows: np.ndarray) -> Tensor:
    """(bags,) norm of each bag's top-alpha mean feature."""
    return ag.l2_norm(_top_alpha_means(feats, rows), axis=-1)


def separability(bag_pos: Tensor, bag_neg: Tensor, alpha: int) -> Tensor:
    """Difference of top-alpha mean-feature magnitudes (abnormal minus normal)."""
    if bag_pos.shape[1] != bag_neg.shape[1]:
        raise ag.ShapeError(
            f"feature widths disagree: {bag_pos.shape[1]} vs {bag_neg.shape[1]}"
        )
    pos = _magnitudes(bag_pos, _stacked_top_rows(bag_pos.data, 1, alpha))
    neg = _magnitudes(bag_neg, _stacked_top_rows(bag_neg.data, 1, alpha))
    return (pos - neg).reshape()


def dmt_loss(ctx: Tensor, scores: Tensor, labels: np.ndarray, cfg: TrainConfig) -> Tensor:
    """Margin hinge on paired bag separabilities plus video-level BCE.

    ``ctx`` (2B * T, d) and ``scores`` (2B * T, 1) hold 2B bags of T snippets
    stacked along the rows, B normal bags then B abnormal, as ``labels`` (2B,)
    says; normal bag i is paired with abnormal bag B + i. Each bag's top-alpha
    snippets by context-feature magnitude give both its magnitude for the
    margin term and its video score (their mean snippet score, clipped away
    from {0, 1}) for the BCE term.
    """
    labels = np.asarray(labels)
    n = labels.size
    b = n // 2
    if n != 2 * b or b == 0 or scores.shape != (ctx.shape[0], 1):
        raise ValueError(
            f"expected 2*B bags of context features and scores, got {ctx.shape}, {scores.shape} for {n} labels"
        )
    if not (np.all(labels[:b] == 0) and np.all(labels[b:] == 1)):
        raise ValueError("batch layout violated: expected B normal bags then B abnormal")
    rows = _stacked_top_rows(ctx.data, n, cfg.alpha)

    # per pair: margin minus separability (abnormal minus normal magnitude)
    shortfall = ag.matmul(Tensor([[1.0, -1.0]]), _magnitudes(ctx, rows).reshape(2, b)) + cfg.margin
    margin_term = shortfall.relu().mean()

    video = _top_alpha_means(scores, rows).clip(BCE_EPS, 1.0 - BCE_EPS)  # (2B, 1)
    # likelihood of each bag's label: s for abnormal, 1 - s for normal
    y = labels.astype(np.float64)[:, None]
    likelihood = video * Tensor(2.0 * y - 1.0) + Tensor(1.0 - y)
    mean_log_likelihood = likelihood.log().mean()

    # the BCE term is the negative mean log-likelihood
    return margin_term * cfg.w_margin + mean_log_likelihood * -cfg.w_bce


@dataclass
class TrainResult:
    model: Model
    log: list[dict]  # per-epoch: epoch, loss, optional val_auc


def train(
    manifest: DatasetManifest,
    base_dir: str | Path,
    cfg: TrainConfig,
    *,
    val_fn=None,
    val_every: int = 0,
) -> TrainResult:
    """Fit the detector on one training split. Fully determined by cfg.seed.

    ``val_fn``, when given, is called with the current model and its return
    value is logged as ``val_auc`` every ``val_every`` epochs.
    """
    require_both_classes(manifest)
    # each video is resized once into one (N, T, d) array, then the records
    # and their native-length features are dropped
    records = load_records(manifest, base_dir)
    videos = np.empty((len(records), cfg.t_len, manifest.d), dtype=np.float32)
    for i, r in enumerate(records):
        videos[i] = temporal_normalize(r.features, cfg.t_len)
    labels = np.array([r.label for r in records])
    ids = [r.video_id for r in records]
    del records

    root = np.random.SeedSequence(cfg.seed)
    init_seq, batch_seq, noise_seq, drop_seq = root.spawn(4)
    model = init_model(manifest.d, cfg.tsa, init_seq, tsa_enabled=cfg.tsa_enabled)
    batch_rng = np.random.default_rng(batch_seq)
    noise_rng = np.random.default_rng(noise_seq)
    drop_rng = np.random.default_rng(drop_seq)

    opt = Adam(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    log: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        batch = None
        try:
            batch = build_batch(videos, labels, cfg.batch_bags, batch_rng)
            scores, ctx, _ = score_bag(
                model, batch.features, 2 * cfg.batch_bags, train=True, tsa_rng=noise_rng, dropout_rng=drop_rng
            )
            loss = dmt_loss(ctx, scores, batch.labels, cfg)
            loss_val = loss.item()
            ag.backward(loss)
            opt.step()
            opt.zero_grad()

            row = {"epoch": epoch, "loss": loss_val}
            if val_fn is not None and val_every > 0 and epoch % val_every == 0:
                row["val_auc"] = float(val_fn(model))
        except ag.NumericsError as exc:
            where = f"epoch {epoch}"
            if batch is not None:
                where += ": batch videos " + ", ".join(f"'{ids[i]}'" for i in batch.videos)
            raise ag.NumericsError(f"{where}: {exc}") from exc
        log.append(row)
    return TrainResult(model=model, log=log)


@dataclass
class ProbeResult:
    """Monte-Carlo separability draws over an alpha grid."""

    alphas: list[int]
    samples: np.ndarray  # (trials, len(alphas))

    @property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @property
    def stderr(self) -> np.ndarray:
        return self.samples.std(axis=0, ddof=1) / np.sqrt(self.samples.shape[0])

    def paired_diff(self, i: int, j: int) -> tuple[float, float]:
        """Mean and standard error of samples[:, i] - samples[:, j]."""
        diff = self.samples[:, i] - self.samples[:, j]
        return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def theorem1_probe(
    d: int,
    t_len: int,
    eps: int,
    alphas: list[int],
    trials: int,
    anomaly_shift: float,
    noise_std: float = 1.0,
    seed: int = 0,
) -> ProbeResult:
    """Empirical expected separability of raw bags as a function of alpha.

    Abnormal bags carry ``eps`` mean-shifted snippets out of ``t_len``;
    normal bags carry none. No model is involved: this measures the
    selection/averaging statistics of the loss itself.
    """
    if not 1 <= eps <= t_len:
        raise ValueError(f"eps must be in [1, {t_len}], got {eps}")
    if any(not 1 <= a <= t_len for a in alphas):
        raise ValueError(f"alphas must be within [1, {t_len}]")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)

    neg = rng.normal(0.0, noise_std, size=(trials, t_len, d))
    pos = rng.normal(0.0, noise_std, size=(trials, t_len, d))
    pos[:, :eps, :] += anomaly_shift * direction

    def top_alpha_norms(bags: np.ndarray) -> np.ndarray:
        order = top_alpha_rows(bags, max(alphas))
        ranked = np.take_along_axis(bags, order[:, :, None], axis=1)
        sums = np.cumsum(ranked, axis=1)
        cols = [np.linalg.norm(sums[:, a - 1, :] / a, axis=1) for a in alphas]
        return np.stack(cols, axis=1)

    samples = top_alpha_norms(pos) - top_alpha_norms(neg)
    return ProbeResult(alphas=list(alphas), samples=samples)
