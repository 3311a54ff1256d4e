"""Weakly-supervised video anomaly detection on pre-extracted snippet features."""

from .attention import SoftSelection, TsaConfig, kappa_from_ratio, topk_score, tsa_forward
from .autograd import Tensor, backward, no_grad
from .evaluate import EvalReport, ScoreTimeline, evaluate_manifest, infer_video, unfold_scores
from .features import (
    DatasetManifest,
    FormatError,
    VideoRecord,
    load_features,
    load_manifest,
    load_records,
    save_features,
    save_manifest,
    temporal_normalize,
)
from .metrics import auc_pr, auc_roc
from .model import Model, init_model, load_checkpoint, save_checkpoint
from .optim import Adam
from .synthetic import SyntheticConfig, generate_synthetic, load_ground_truth
from .trainer import (
    TrainConfig,
    build_batch,
    dmt_loss,
    separability,
    theorem1_probe,
    top_alpha_mean,
    train,
)

__version__ = "0.1.0"
