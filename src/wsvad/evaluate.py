"""Frame-level inference and evaluation.

Test videos keep their native snippet count (no temporal resizing). A frame's
score is its snippet's score: each snippet covers snippet_len frames and the
last takes the remainder (``snippet_lengths``), so eval keeps only snippet
arrays, plus one frame label mask per video. The report's primary metrics
are frame-level ROC/PR areas of the continuous scores; rounded binary scores
are kept as the detection artifact and scored separately.

The metrics are computed over weighted snippet runs rather than frames: each
snippet contributes one entry per label it covers, weighted by its frame
count under that label. The counts are exact integers, so the areas are
bit-identical to the frame-level definition on the unfolded arrays. The frame
CSV, too, is written from the snippet scores and the masks.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .features import DatasetManifest, VideoRecord, load_records
from .metrics import auc_pr, auc_roc
from .model import Model, score_bag

BINARY_THRESHOLD = 0.5


@dataclass
class ScoreTimeline:
    """One video's snippet scores; its frame scores are derived from them."""

    video_id: str
    label: int  # video-level weak label
    snippet_scores: np.ndarray  # (T_k,) in (0, 1)
    snippet_len: int
    frame_count: int

    @property
    def snippet_binary(self) -> np.ndarray:  # (T_k,) in {0, 1}
        return (self.snippet_scores >= BINARY_THRESHOLD).astype(np.uint8)

    @property
    def frame_scores(self) -> np.ndarray:  # (frame_count,), unfolded anew on each access
        return unfold_scores(self.snippet_scores, self.snippet_len, self.frame_count)


@dataclass
class EvalReport:
    auc_roc: float
    auc_pr: float
    auc_roc_binary: float
    num_videos: int
    num_frames: int
    positive_frames: int
    eval_seed: int
    pr_convention: str
    config: dict
    per_video: list[dict]
    wall_clock_sec: float = field(default=0.0, repr=False)

    def to_json(self) -> str:
        """Deterministic serialization; timing is deliberately excluded so
        identical runs produce identical bytes."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_clock_sec"}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def snippet_lengths(num_snippets: int, snippet_len: int, frame_count: int) -> np.ndarray:
    """Frames each snippet covers, in order.

    Every snippet covers snippet_len frames except the last, which takes the
    remainder: fewer when the snippets overshoot the frame count (possibly
    none), more when they fall short.
    """
    if num_snippets < 1:
        raise ValueError("no snippet scores to unfold")
    if snippet_len < 1 or frame_count < 1:
        raise ValueError("snippet_len and frame_count must be positive")
    if frame_count < snippet_len * (num_snippets - 1):
        raise ValueError(
            f"inconsistent unfold: {num_snippets} snippets of {snippet_len} frames "
            f"cannot map onto {frame_count} frames"
        )
    lengths = np.full(num_snippets, snippet_len, dtype=np.int64)
    lengths[-1] = frame_count - snippet_len * (num_snippets - 1)
    return lengths


def unfold_scores(values: np.ndarray, snippet_len: int, frame_count: int) -> np.ndarray:
    """Expand per-snippet values to per-frame values.

    Each value repeats snippet_len times in order; if that overshoots the
    frame count the tail is truncated, and if it falls short the remainder
    is padded with the final value.
    """
    v = np.asarray(values).ravel()
    return np.repeat(v, snippet_lengths(v.size, snippet_len, frame_count))


def infer_video(
    record: VideoRecord, model: Model, rng: np.random.Generator
) -> ScoreTimeline:
    """Score one video at its native snippet count (dropout off)."""
    if record.features.shape[1] != model.d:
        raise ValueError(
            f"video '{record.video_id}' has width {record.features.shape[1]}, "
            f"checkpoint expects {model.d}"
        )
    with ag.no_grad():
        scores, _, _ = score_bag(model, Tensor(record.features), train=False, tsa_rng=rng)
    return ScoreTimeline(
        video_id=record.video_id,
        label=record.label,
        snippet_scores=scores.data.reshape(-1).astype(np.float64),
        snippet_len=record.snippet_len,
        frame_count=record.frame_count,
    )


def frame_labels(frame_count: int, intervals: list[tuple[int, int]]) -> np.ndarray:
    """Binary frame mask from [start, end) abnormal intervals."""
    mask = np.zeros(frame_count, dtype=np.uint8)
    for start, end in intervals:
        if not 0 <= start <= end <= frame_count:
            raise ValueError(f"interval [{start}, {end}) outside 0..{frame_count}")
        mask[start:end] = 1
    return mask


def video_frame_labels(
    videos: list[VideoRecord],
    ground_truth: dict[str, list[tuple[int, int]]],
) -> list[np.ndarray]:
    """Frame masks for each video, in order, from the ground-truth intervals.

    A normal video absent from the ground truth is all-normal. An abnormal
    video without intervals, or a ground-truth id that names no listed
    video, raises ValueError naming the id.
    """
    listed = {v.video_id for v in videos}
    unknown = sorted(set(ground_truth) - listed)
    if unknown:
        raise ValueError(f"ground truth names video '{unknown[0]}', which is not in the manifest")
    masks = []
    for v in videos:
        intervals = ground_truth.get(v.video_id, [])
        if v.label == 1 and not intervals:
            raise ValueError(f"abnormal video '{v.video_id}' has no ground-truth intervals")
        try:
            masks.append(frame_labels(v.frame_count, intervals))
        except ValueError as exc:
            raise ValueError(f"video '{v.video_id}': {exc}") from None
    return masks


def evaluate_manifest(
    manifest: DatasetManifest,
    base_dir: str | Path,
    model: Model,
    ground_truth: dict[str, list[tuple[int, int]]],
    eval_seed: int = 0,
) -> tuple[EvalReport, list[ScoreTimeline], list[np.ndarray]]:
    """Load and score every video in manifest order and compute frame-level
    metrics.

    Returns the report, all timelines, and each video's frame label mask.
    """
    started = time.perf_counter()
    result = evaluate_records(load_records(manifest, base_dir), model, ground_truth, eval_seed)
    result[0].wall_clock_sec = time.perf_counter() - started
    return result


def evaluate_records(
    records: list[VideoRecord],
    model: Model,
    ground_truth: dict[str, list[tuple[int, int]]],
    eval_seed: int = 0,
) -> tuple[EvalReport, list[ScoreTimeline], list[np.ndarray]]:
    """``evaluate_manifest`` over records already loaded.

    The metrics are computed over weighted snippet entries: each snippet
    gives one entry per label, weighted by its frame count under that label
    (zero-weight entries dropped), which scores the same as the unfolded
    frame arrays. A ``NumericsError`` in a video's forward pass is re-raised
    with the video's id in front.
    """
    if not records:
        raise ValueError("no videos to evaluate: the split is empty")
    started = time.perf_counter()
    masks = video_frame_labels(records, ground_truth)
    timelines: list[ScoreTimeline] = []
    runs: list[tuple[np.ndarray, ...]] = []  # (score, binary, label, weight) per entry
    per_video: list[dict] = []
    for idx, (rec, labels) in enumerate(zip(records, masks)):
        rng = np.random.default_rng(np.random.SeedSequence((eval_seed, idx)))
        try:
            tl = infer_video(rec, model, rng)
        except ag.NumericsError as exc:
            raise ag.NumericsError(f"video '{rec.video_id}': {exc}") from exc
        timelines.append(tl)
        lengths = snippet_lengths(tl.snippet_scores.size, rec.snippet_len, rec.frame_count)
        # abnormal frames per snippet, from the mask's running count at each snippet's last frame
        positive = np.diff(np.cumsum(labels, dtype=np.int64)[np.cumsum(lengths) - 1], prepend=0)
        runs.append(
            (
                np.tile(tl.snippet_scores, 2),
                np.tile(tl.snippet_binary, 2),
                np.repeat(np.array([1, 0], dtype=np.uint8), lengths.size),
                np.concatenate((positive, lengths - positive)),
            )
        )
        frame_scores = tl.frame_scores
        per_video.append(
            {
                "id": rec.video_id,
                "label": rec.label,
                "frames": rec.frame_count,
                "mean_score": float(frame_scores.mean()),
                "max_score": float(frame_scores.max()),
            }
        )
    scores, binary, run_labels, weights = (np.concatenate(col) for col in zip(*runs))
    kept = weights > 0
    scores, binary, run_labels, weights = scores[kept], binary[kept], run_labels[kept], weights[kept]
    report = EvalReport(
        auc_roc=auc_roc(scores, run_labels, weights),
        auc_pr=auc_pr(scores, run_labels, weights),
        auc_roc_binary=binary_auc_roc(binary, run_labels, weights),
        num_videos=len(records),
        num_frames=sum(m.size for m in masks),
        positive_frames=sum(int(np.count_nonzero(m)) for m in masks),
        eval_seed=eval_seed,
        pr_convention="average_precision",
        config={
            "tsa_enabled": model.tsa_enabled,
            "num_samples": model.tsa.num_samples,
            "ratio": model.tsa.ratio,
            "sigma_noise": model.tsa.sigma_noise,
            "d": model.d,
        },
        per_video=per_video,
        wall_clock_sec=time.perf_counter() - started,
    )
    return report, timelines, masks


def binary_auc_roc(binary: np.ndarray, labels: np.ndarray, weights: np.ndarray) -> float:
    """``auc_roc`` of 0/1 scores from their four (binary, label) weight totals.

    The totals of integer weights are exact, so this returns the same bits as
    ``auc_roc(binary, labels, weights)`` without sorting the entries.
    """
    totals = np.bincount(2 * np.asarray(binary, dtype=np.intp) + labels, weights=weights)
    cell = np.flatnonzero(totals)
    return auc_roc(cell // 2, cell % 2, totals[cell])


def _csv_field(text: str) -> str:
    """``text`` as one field of a multi-field ``csv.writer`` row, quoted
    exactly as the writer would quote it."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _frame_runs(tl: ScoreTimeline, labels: np.ndarray, idx: list[str]):
    """One video's CSV text, byte for byte what ``csv.writer`` writes for
    ``[video_id, i, repr(float(score)), binary, label]`` per frame, one piece
    per run of frames that share a snippet and a label. ``idx`` holds the
    frame indices as text, at least one per frame."""
    n, step, last = tl.frame_count, tl.snippet_len, tl.snippet_scores.size - 1
    if labels.size != n:
        raise ValueError(f"video '{tl.video_id}': {n} frames but {labels.size} labels")
    cut = np.r_[True, labels[1:] != labels[:-1]]
    cut[: last * step + 1 : step] = True  # snippet starts; a last snippet without frames has none
    starts = np.flatnonzero(cut)
    # every snippet but the last covers snippet_len frames
    snippet = np.minimum(starts // step, last)
    head = _csv_field(tl.video_id) + ","
    for s, e, x, b, y in zip(
        starts.tolist(),
        np.r_[starts[1:], n].tolist(),
        tl.snippet_scores[snippet].tolist(),
        tl.snippet_binary[snippet].tolist(),
        labels[starts].tolist(),
    ):
        tail = f",{x!r},{b},{y}\r\n"
        yield head + (tail + head).join(idx[s:e]) + tail


def write_frame_csv(path: str | Path, timelines: list[ScoreTimeline], masks: list[np.ndarray]) -> None:
    """Per-frame scores as CSV: video_id, frame_idx, score, binary, label.

    ``masks`` are the timelines' frame labels, as ``evaluate_records`` returns
    them; a mask whose length is not its video's frame count is a ValueError
    naming the video.
    """
    idx = list(map(str, range(max((tl.frame_count for tl in timelines), default=0))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["video_id", "frame_idx", "score", "binary", "label"])
        for tl, labels in zip(timelines, masks, strict=True):
            fh.write("".join(_frame_runs(tl, labels, idx)))
