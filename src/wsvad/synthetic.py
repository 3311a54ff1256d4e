"""Seeded synthetic datasets with planted contiguous anomalies.

Normal snippets are isotropic Gaussian around zero; abnormal videos carry a
contiguous block of snippets whose mean is shifted along one fixed unit
direction. Frame-level ground truth for the test split is written as
[start, end) intervals so detections can be scored per frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .features import (
    MANIFEST_VERSION,
    DatasetManifest,
    FormatError,
    ManifestEntry,
    save_features,
    save_manifest,
    snippet_count,
)

GROUND_TRUTH_FILENAME = "ground_truth.json"


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator knobs. Counts apply to each split independently.

    The default anomaly_shift of 3.6 puts roughly 1.5 standard deviations
    between the snippet-magnitude distributions of the two classes at
    d=32, noise_std=1 (magnitude is the anomaly statistic the trainer
    ranks by); the per-dimension projection is then 3.6 noise units.
    """

    n_normal: int = 100
    n_abnormal: int = 100
    d: int = 32
    snippet_len: int = 16
    frame_range: tuple[int, int] = (128, 512)
    eps_range: tuple[int, int] = (2, 5)  # planted abnormal snippets per video
    anomaly_shift: float = 3.6
    noise_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_normal", "n_abnormal", "d", "snippet_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("frame_range", "eps_range"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must satisfy 1 <= LO <= HI, got {getattr(self, name)}")
        if not 0.0 < self.noise_std < math.inf:
            raise ValueError(f"noise_std must be positive and finite, got {self.noise_std}")
        if not 0.0 <= self.anomaly_shift < math.inf:
            raise ValueError(f"anomaly_shift must be non-negative and finite, got {self.anomaly_shift}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # anomalies are planted on whole snippets, so the shortest video must
        # fit eps_range[1] complete snippets
        if self.frame_range[0] // self.snippet_len < self.eps_range[1]:
            raise ValueError(
                f"eps_range {self.eps_range} cannot fit: {self.frame_range[0]} frames give only "
                f"{self.frame_range[0] // self.snippet_len} complete snippets of length {self.snippet_len}"
            )


def generate_synthetic(
    cfg: SyntheticConfig, out_dir: str | Path
) -> tuple[DatasetManifest, DatasetManifest]:
    """Write train/ and test/ splits under ``out_dir``; returns both manifests."""
    out = Path(out_dir)
    root = np.random.SeedSequence(cfg.seed)
    dir_seq, train_seq, test_seq = root.spawn(3)

    direction = np.random.default_rng(dir_seq).standard_normal(cfg.d)
    norm = float(np.linalg.norm(direction))
    direction = (direction / norm if norm > 0 else np.eye(cfg.d)[0]).astype(np.float64)

    train = _generate_split(cfg, "train", direction, np.random.default_rng(train_seq), out / "train")
    test = _generate_split(cfg, "test", direction, np.random.default_rng(test_seq), out / "test")
    return train, test


def _generate_split(
    cfg: SyntheticConfig,
    split: str,
    direction: np.ndarray,
    rng: np.random.Generator,
    split_dir: Path,
) -> DatasetManifest:
    split_dir.mkdir(parents=True, exist_ok=True)
    entries: list[ManifestEntry] = []
    intervals: dict[str, list[list[int]]] = {}

    for label, kind, count in ((0, "norm", cfg.n_normal), (1, "anom", cfg.n_abnormal)):
        for i in range(count):
            video_id = f"{split}_{kind}_{i:04d}"
            frames = int(rng.integers(cfg.frame_range[0], cfg.frame_range[1] + 1))
            anomaly = slice(0, 0)  # a normal video has no anomalous snippets
            intervals[video_id] = []
            if label:
                eps = int(rng.integers(cfg.eps_range[0], cfg.eps_range[1] + 1))
                # SyntheticConfig guarantees whole >= eps_range[1] >= eps
                whole = frames // cfg.snippet_len
                start = int(rng.integers(0, whole - eps + 1))
                anomaly = slice(start, start + eps)
                intervals[video_id] = [[start * cfg.snippet_len, (start + eps) * cfg.snippet_len]]
            feats = rng.normal(0.0, cfg.noise_std, size=(snippet_count(frames, cfg.snippet_len), cfg.d)).astype(np.float32)
            feats[anomaly] += (cfg.anomaly_shift * direction).astype(np.float32)
            path = f"{video_id}.vadf"
            save_features(feats, split_dir / path)
            entries.append(ManifestEntry(video_id=video_id, path=path, label=label, frame_count=frames))

    manifest = DatasetManifest(
        version=MANIFEST_VERSION,
        d=cfg.d,
        snippet_len=cfg.snippet_len,
        split=split,
        videos=entries,
    )
    save_manifest(manifest, split_dir / "manifest.json")
    if split == "test":
        with open(split_dir / GROUND_TRUTH_FILENAME, "w", encoding="utf-8") as fh:
            json.dump(intervals, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def load_ground_truth(path: str | Path) -> dict[str, list[tuple[int, int]]]:
    """Read the per-video [start, end) abnormal frame intervals.

    The file is a JSON object mapping each video id to a list of
    [start, end] integer pairs; anything else raises FormatError naming the
    file and, where there is one, the video.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected an object mapping video ids to intervals")
    out: dict[str, list[tuple[int, int]]] = {}
    for vid, spans in doc.items():
        if not isinstance(spans, list) or not all(
            isinstance(span, list) and len(span) == 2 and all(type(v) is int for v in span)
            for span in spans
        ):
            raise FormatError(f"{path}: video '{vid}' needs a list of [start, end] integer pairs, got {spans!r}")
        out[vid] = [(a, b) for a, b in spans]
    return out


def harder_config(cfg: SyntheticConfig | None = None) -> SyntheticConfig:
    """A lower-contrast variant used for the attention on/off comparison:
    weaker shift, fewer training videos, and longer videos so anomalies
    occupy a smaller fraction of each bag."""
    base = cfg or SyntheticConfig()
    return replace(
        base,
        anomaly_shift=base.anomaly_shift * 0.6,
        n_normal=50,
        n_abnormal=50,
        frame_range=(256, 768),
    )
