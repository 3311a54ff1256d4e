"""Difference-maximization training over bags of snippet features.

Each mini-batch holds B normal bags followed by B abnormal bags, stacked
along the rows so that a training step is one graph. Bags pass through
attention (off at ratio 1.0) and the temporal context module; the loss
pushes the top-alpha feature magnitude of each abnormal bag above its paired
normal bag by a margin, plus a binary cross-entropy on video scores (each
video scored by the mean classifier output of its top-alpha snippets, ranked
by feature magnitude like the margin term). Those top-alpha rows are the
only ones the loss reads, so the snippet classifier runs on them alone
(``forward_loss``, which also draws the classifier's dropout masks at those
rows only and is the one place that applies its rate,
``CLASSIFIER_DROPOUT``). The loss over those rows is one engine op with the
bits of the single-op chain it replaces (``dmt_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .attention import TsaConfig
from .autograd import Tensor
from .features import DatasetManifest, load_records, temporal_normalize
from .model import Model, context_features, init_model
from .nn import mlp_forward
from .optim import Adam

# No call site here: benchmarks/spans.py looks these names up on this module.
from .attention import tsa_fuse  # noqa: F401
from .nn import conv_module_forward  # noqa: F401

BCE_EPS = 1e-6
CLASSIFIER_DROPOUT = 0.7


@dataclass(frozen=True)
class TrainConfig:
    t_len: int = 32  # snippets per bag after temporal resizing
    batch_bags: int = 8  # B; the actual batch holds 2*B bags
    epochs: int = 200
    lr: float = 0.001
    weight_decay: float = 0.005
    alpha: int = 3  # top instances per bag in the loss
    margin: float = 100.0
    tsa: TsaConfig = field(default_factory=TsaConfig)  # ratio 1.0 turns the attention off
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("t_len", "batch_bags", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 1 <= self.alpha <= self.t_len:
            raise ValueError(f"alpha must be in [1, {self.t_len}], got {self.alpha}")
        for name in ("lr", "weight_decay", "margin"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be non-negative and finite, got {value}")


def build_batch(
    videos: np.ndarray, labels: np.ndarray, batch_bags: int, rng: np.random.Generator
) -> tuple[Tensor, np.ndarray]:
    """Draw B normal and then B abnormal bags from ``videos`` (N, T, d),
    whose classes ``labels`` (N,) gives, and gather them with one ``np.take``.

    Returns the (2B * T, d) features, the 2B bags of T snippets stacked
    along the rows, normal bags first, as ``dmt_loss`` takes them, and the
    (2B,) index of each bag's video in ``videos``. Sampling is without
    replacement per class when the class has at least B videos, with
    replacement otherwise.
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
    return Tensor(np.take(videos, drawn, axis=0).reshape(-1, videos.shape[-1])), drawn


def top_alpha_rows(feats: np.ndarray, alpha: int) -> np.ndarray:
    """Indices of the alpha rows with the largest float64 Euclidean magnitude,
    largest first, ties to the lower index. Rows run along the second-to-last
    axis; leading axes are batch axes."""
    # np.linalg.norm's float64 sum of squares, without a float64 copy of feats
    mags = np.sqrt(np.sum(np.square(feats, dtype=np.float64), axis=-1))
    return np.argsort(-mags, axis=-1, kind="stable")[..., :alpha]


def _top_alpha_gather(feats: Tensor, bags: int, alpha: int) -> tuple[Tensor, np.ndarray]:
    """Each bag's top-alpha rows, for ``bags`` bags of T rows stacked in
    ``feats`` (bags * T, d): their (bags, alpha, d) gather, each bag's largest
    first, and their (bags, alpha) stacked-row indices."""
    if feats.ndim != 2:
        raise ag.ShapeError(f"expected (T, d) features stacked along the rows, got {feats.shape}")
    t_len = ag.bag_length(feats.shape[0], bags)
    if not 1 <= alpha <= t_len:
        raise ValueError(f"alpha must be in [1, {t_len}], got {alpha}")
    rows = top_alpha_rows(feats.data.reshape(bags, t_len, -1), alpha) + t_len * np.arange(bags)[:, None]
    return ag.gather_rows(feats, rows), rows


def top_alpha_mean(feats: Tensor, alpha: int) -> Tensor:
    """Mean of the alpha rows with the largest Euclidean magnitude, (T, d) -> (d,).

    The selection itself is treated as constant, so gradients flow only into
    the selected rows.
    """
    return _top_alpha_gather(feats, 1, alpha)[0].mean(axis=1).reshape(feats.shape[1])


def separability(bag_pos: Tensor, bag_neg: Tensor, alpha: int) -> Tensor:
    """Difference of top-alpha mean-feature magnitudes (abnormal minus normal)."""
    if bag_pos.shape[1] != bag_neg.shape[1]:
        raise ag.ShapeError(
            f"feature widths disagree: {bag_pos.shape[1]} vs {bag_neg.shape[1]}"
        )
    return ag.l2_norm(top_alpha_mean(bag_pos, alpha)) - ag.l2_norm(top_alpha_mean(bag_neg, alpha))


def dmt_loss(ctx: Tensor, scores: Tensor, bags: int, cfg: TrainConfig) -> Tensor:
    """Margin hinge on paired bag separabilities plus video-level BCE, as one op."""
    return dmt_terms(ctx, scores, bags, cfg)[0]


def dmt_terms(ctx: Tensor, scores: Tensor, bags: int, cfg: TrainConfig) -> tuple[Tensor, float, float]:
    """The loss of ``dmt_loss`` as one op, and the values of its two terms,
    the mean margin hinge and the BCE: ``(loss, margin_term, bce_term)``,
    the loss their sum.

    ``ctx`` (2B * T, d) and ``scores`` (2B * T, 1) hold ``bags`` = 2B bags of
    T snippets stacked along the rows, B normal bags then B abnormal, as
    ``build_batch`` lays them out; normal bag i is paired with abnormal bag
    B + i. Each bag's top-alpha snippets by context-feature magnitude give
    both its magnitude for the margin term and its video score (their mean
    snippet score, clipped away from {0, 1}) for the BCE term: their rows
    are gathered from both, then handed to the op.

    ``ctx`` (2B, alpha, d) and ``scores`` (2B, alpha, 1) are those top-alpha
    rows already gathered, each bag's largest first, as ``forward_loss``
    hands them on; the op takes them as they are. Any other shapes, or an
    odd or zero bag count, raise one ``ValueError``.

    The op's forward and vjp replay, in the inputs' dtype, the numpy
    expressions of the single-op chain that ``unfused_dmt_terms`` in
    ``tests/helpers.py`` keeps: float64-accumulated means and norms cast
    back, the ``[[1, -1]]`` product that pairs the bags, the hinge, the
    clipped likelihoods and their log. The loss, both terms and both
    gradients are the chain's bits. The op checks its output and both
    gradients, and the magnitudes too: an abnormal bag's magnitude that
    overflows in its cast would meet a zero hinge and leave the loss finite.
    """
    b, alpha = bags // 2, cfg.alpha
    paired = bags == 2 * b and b >= 1
    if paired and ctx.ndim == 2 and scores.shape == (ctx.shape[0], 1):
        ctx, rows = _top_alpha_gather(ctx, bags, alpha)
        scores = ag.gather_rows(scores, rows)
    if not paired or ctx.ndim != 3 or ctx.shape[:2] != (bags, alpha) or scores.shape != (bags, alpha, 1):
        raise ValueError(
            f"expected 2*B bags of context features and scores, stacked or their top-alpha rows, "
            f"got {ctx.shape}, {scores.shape} for {bags} bags of alpha {alpha}"
        )
    dt = ctx.data.dtype

    # margin term: each bag's magnitude is the norm of its mean top-alpha row
    mean = np.asarray(np.sum(ctx.data, axis=1, dtype=np.float64) / alpha, dtype=dt)  # (2B, d)
    norm = np.sqrt(np.sum(np.square(mean, dtype=np.float64), axis=-1, keepdims=True))  # (2B, 1)
    mags = ag._ensure_finite("dmt_loss", np.asarray(norm, dtype=dt).reshape(2, b))
    # per pair: margin minus separability (abnormal minus normal magnitude)
    pair = np.array([[1.0, -1.0]], dtype=dt)
    shortfall = pair @ mags + np.asarray(cfg.margin, dtype=dt)  # (1, B)
    margin_term = np.asarray(np.sum(np.maximum(shortfall, 0), dtype=np.float64) / b, dtype=dt)

    # BCE term: the negative mean log-likelihood of each bag's label, its
    # video score s for abnormal and 1 - s for normal
    video = np.asarray(np.sum(scores.data, axis=1, dtype=np.float64) / alpha, dtype=dt)  # (2B, 1)
    kept = (video >= BCE_EPS) & (video <= 1.0 - BCE_EPS)
    y = np.repeat([0.0, 1.0], b)[:, None]
    sign = np.asarray(2.0 * y - 1.0, dtype=dt)
    likelihood = np.clip(video, BCE_EPS, 1.0 - BCE_EPS) * sign + np.asarray(1.0 - y, dtype=dt)
    bce_term = -np.asarray(np.sum(np.log(likelihood), dtype=np.float64) / bags, dtype=dt)

    def vjp(g):
        g_short = np.full(shortfall.shape, g * (1.0 / b), dtype=dt) * (shortfall > 0)
        g_mags = (pair.T @ g_short).reshape(norm.shape)
        unit = np.divide(mean, norm, out=np.zeros(mean.shape), where=norm > 0)
        g_ctx = (g_mags * unit).astype(dt) * (1.0 / alpha)
        g_scores = np.full(video.shape, -g * (1.0 / bags), dtype=dt) / likelihood * sign * kept * (1.0 / alpha)
        return (
            np.broadcast_to(g_ctx[:, None], ctx.shape).astype(dt),
            np.broadcast_to(g_scores[:, None], scores.shape).astype(dt),
        )

    loss = ag.custom_op("dmt_loss", margin_term + bce_term, (ctx, scores), vjp)
    return loss, float(margin_term), float(bce_term)


def forward_loss(
    model: Model,
    features: Tensor,
    bags: int,
    cfg: TrainConfig,
    *,
    tsa_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """A training step's forward pass and loss over ``bags`` = 2B bags of T
    snippets stacked along ``features``' rows, laid out as ``dmt_terms``
    takes them.

    The context stage runs over every row; each bag's top-alpha rows of the
    context features are then gathered once, (2B, alpha, d), and the
    classifier runs on those rows alone, since the loss reads no other
    snippet's score. The gather and the scores go to ``dmt_loss`` as they
    are, so the loss adds two nodes to the step's graph: the gather and the
    loss op. Given ``dropout_rng``, each hidden layer's dropout mask at rate
    p = ``CLASSIFIER_DROPOUT`` is drawn in layer order at those rows alone,
    (2B, alpha, width) in C order, so a step uses the same amount of the
    stream whatever T is. The classifier gets each mask scaled, 1 / (1 - p)
    where a unit is kept and 0 where it drops. Without a generator there is
    no dropout.
    """
    ctx, _ = context_features(model, features, bags, tsa_rng=tsa_rng)
    top, rows = _top_alpha_gather(ctx, bags, cfg.alpha)
    masks = None
    if dropout_rng is not None:
        p = CLASSIFIER_DROPOUT
        masks = [
            Tensor((dropout_rng.random((*rows.shape, width)) >= p).astype(ctx.data.dtype) / (1.0 - p))
            for width in model.classifier.dims[1:-1]
        ]
    scores = mlp_forward(model.classifier, top, bags=bags, masks=masks)
    return dmt_loss(top, scores, bags, cfg)


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
    value is logged as ``val_auc`` every ``val_every`` epochs. The epochs run
    under one ``np.errstate`` that silences overflow and invalid-value
    warnings: the engine checks every value they make, so a non-finite one
    still raises a located ``NumericsError``, and nothing warns before it:
    one from a training step names the epoch and the batch's videos, one
    from ``val_fn`` the epoch and the word validation in front of its own.
    """
    ag.pin_malloc_thresholds()
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
    model = init_model(manifest.d, cfg.tsa, init_seq)
    batch_rng = np.random.default_rng(batch_seq)
    noise_rng = np.random.default_rng(noise_seq)
    drop_rng = np.random.default_rng(drop_seq)

    opt = Adam(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    log: list[dict] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            drawn = None
            try:
                features, drawn = build_batch(videos, labels, cfg.batch_bags, batch_rng)
                # backward frees each node it is done with: no forward output is held here
                loss = forward_loss(model, features, 2 * cfg.batch_bags, cfg, tsa_rng=noise_rng, dropout_rng=drop_rng)
                loss_val = loss.item()
                ag.backward(loss)
                opt.step()
                opt.zero_grad()
            except ag.NumericsError as exc:
                where = f"epoch {epoch}"
                if drawn is not None:
                    where += ": batch videos " + ", ".join(f"'{ids[i]}'" for i in drawn)
                raise ag.NumericsError(f"{where}: {exc}") from exc
            row = {"epoch": epoch, "loss": loss_val}
            if val_fn is not None and val_every > 0 and epoch % val_every == 0:
                try:
                    row["val_auc"] = float(val_fn(model))
                except ag.NumericsError as exc:  # the validation split's, not the batch's
                    raise ag.NumericsError(f"epoch {epoch}: validation: {exc}") from exc
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

    neg = rng.normal(0.0, 1.0, size=(trials, t_len, d))
    pos = rng.normal(0.0, 1.0, size=(trials, t_len, d))
    pos[:, :eps, :] += anomaly_shift * direction

    def top_alpha_norms(bags: np.ndarray) -> np.ndarray:
        order = top_alpha_rows(bags, max(alphas))
        ranked = np.take_along_axis(bags, order[:, :, None], axis=1)
        sums = np.cumsum(ranked, axis=1)
        cols = [np.linalg.norm(sums[:, a - 1, :] / a, axis=1) for a in alphas]
        return np.stack(cols, axis=1)

    samples = top_alpha_norms(pos) - top_alpha_norms(neg)
    return ProbeResult(alphas=list(alphas), samples=samples)
