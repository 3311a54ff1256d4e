"""Frame-level inference and evaluation.

Test videos keep their native snippet count (no temporal resizing). The
videos that share a snippet count are scored as one multi-bag batch
(``eval_batches``), each drawing its attention noise from its own stream,
and a video's scores are the same bits in a batch of its own. A frame's
score is its snippet's score: each snippet covers snippet_len frames and the
last takes the remainder (``snippet_lengths``), so eval keeps only snippet
arrays, plus one frame label mask per video. The report's primary metrics
are frame-level ROC/PR areas of the continuous scores; rounded binary scores
are kept as the detection artifact and scored separately.

``evaluate_manifest`` is the one entry point: ``wsvad eval``, validation
during training, ``sweep-r`` and ``ablate`` all score through it. It reads
the feature files one chunk of batches at a time (``load_chunks``) and lets
each chunk go once it is scored, so it holds about one chunk of features
however long the split. A file that fails to load raises when its chunk is
reached, after the chunks before it were scored, and nothing is returned or
written.

The metrics are computed over runs of frames rather than frames: each run of
frames that share a snippet and a label is one entry, weighted by its frame
count. The counts are exact integers, so the areas are bit-identical to the
frame-level definition on the unfolded arrays. The frame CSV is written from
the same runs.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .features import DatasetManifest, ManifestEntry, VideoRecord, load_records, snippet_count
from .metrics import auc_pr, auc_roc
from .model import Model, score_bag

BINARY_THRESHOLD = 0.5
# most rows eval stacks into one forward pass: a paper-shape training batch,
# 2 * 8 bags of 32 snippets
EVAL_BATCH_ROWS = 512
# most feature bytes evaluate_manifest loads at once; a larger batch is
# loaded alone. On train_small's test split (200 videos, 25 batches) one
# batch per load took a median 2.5% longer than 1 MiB chunks.
EVAL_LOAD_BYTES = 1 << 20


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

    def to_json(self) -> str:
        """Every field, with sorted keys: the report holds no timing, so
        identical runs produce identical bytes."""
        return json.dumps(vars(self), indent=2, sort_keys=True) + "\n"


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


def infer_video(record: VideoRecord, scores: np.ndarray) -> ScoreTimeline:
    """One video's timeline from its T snippet scores, in snippet order, as
    ``_score_batch`` takes them from its batch's forward pass. A score count
    other than the video's snippet count is a ValueError naming the video."""
    if scores.size != record.num_snippets:
        raise ValueError(f"video '{record.video_id}': {scores.size} scores for {record.num_snippets} snippets")
    return ScoreTimeline(
        video_id=record.video_id,
        label=record.label,
        snippet_scores=scores.reshape(-1).astype(np.float64),
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


def check_ground_truth(
    videos: Sequence[VideoRecord | ManifestEntry],
    ground_truth: dict[str, list[tuple[int, int]]],
) -> None:
    """Check the ground-truth intervals against the videos, counting each
    video's marked frames from its merged intervals rather than a mask.

    A normal video absent from the ground truth is all-normal. A video's
    intervals must mark at least one frame exactly when its label is 1: an
    interval outside the video's frames, an abnormal video whose intervals
    mark no frame, a normal video whose intervals mark any, or a
    ground-truth id that names no listed video, raises ValueError naming the
    id.
    """
    listed = {v.video_id for v in videos}
    unknown = sorted(set(ground_truth) - listed)
    if unknown:
        raise ValueError(f"ground truth names video '{unknown[0]}', which is not in the manifest")
    for v in videos:
        marked = reach = 0
        for start, end in sorted(ground_truth.get(v.video_id, [])):
            if not 0 <= start <= end <= v.frame_count:
                raise ValueError(f"video '{v.video_id}': interval [{start}, {end}) outside 0..{v.frame_count}")
            marked += max(0, end - max(start, reach))
            reach = max(reach, end)
        if (marked > 0) != (v.label == 1):
            kind, what = ("abnormal", "no frame") if v.label == 1 else ("normal", f"{marked} frames")
            raise ValueError(f"{kind} video '{v.video_id}' has {what} inside its ground-truth intervals")


def eval_batches(snippet_counts: list[int]) -> list[list[int]]:
    """The video indices of each batch eval scores in one forward pass,
    given each video's snippet count.

    The videos of one snippet count, in manifest order, are cut into batches
    of at most ``EVAL_BATCH_ROWS`` rows and at least one video; the counts
    come in the order of their first video.
    """
    groups: dict[int, list[int]] = {}
    for idx, t_len in enumerate(snippet_counts):
        groups.setdefault(t_len, []).append(idx)
    batches = []
    for t_len, group in groups.items():
        size = max(1, EVAL_BATCH_ROWS // t_len)
        batches.extend(group[i : i + size] for i in range(0, len(group), size))
    return batches


def load_chunks(batches: list[list[int]], nbytes: list[int]) -> list[list[list[int]]]:
    """``batches`` cut, in order, into chunks of consecutive batches whose
    videos hold at most ``EVAL_LOAD_BYTES`` feature bytes together, where
    ``nbytes[i]`` is video i's; a batch over the budget is a chunk alone."""
    chunks: list[list[list[int]]] = []
    held = 0
    for batch in batches:
        size = sum(nbytes[i] for i in batch)
        if not chunks or held + size > EVAL_LOAD_BYTES:
            chunks.append([])
            held = 0
        chunks[-1].append(batch)
        held += size
    return chunks


def _video_rng(eval_seed: int, idx: int) -> np.random.Generator:
    """The attention noise stream of the ``idx``-th video of a split."""
    return np.random.default_rng(np.random.SeedSequence((eval_seed, idx)))


def _score_batch(
    records: dict[int, VideoRecord], batch: list[int], model: Model, eval_seed: int
) -> list[ScoreTimeline]:
    """Timelines of the videos ``batch`` indexes, by split index, all of one
    snippet count, scored as one multi-bag forward pass in which each bag
    draws its noise from its own video's stream; a video scored alone is a
    batch of one. A ``NumericsError`` in a batch of several scores each
    video again as a batch of one, from fresh streams; in a batch of one it
    is re-raised with the video's id in front."""
    recs = [records[i] for i in batch]
    rngs = [_video_rng(eval_seed, i) for i in batch]
    try:
        with ag.no_grad():
            stacked = Tensor(np.concatenate([rec.features for rec in recs]))
            rows = score_bag(model, stacked, len(recs), tsa_rng=rngs)[0].data.reshape(len(recs), -1)
    except ag.NumericsError as exc:
        if len(batch) == 1:
            raise ag.NumericsError(f"video '{recs[0].video_id}': {exc}") from exc
        return [tl for i in batch for tl in _score_batch(records, [i], model, eval_seed)]
    return [infer_video(rec, video_scores) for rec, video_scores in zip(recs, rows)]


def evaluate_manifest(
    manifest: DatasetManifest,
    base_dir: str | Path,
    model: Model,
    ground_truth: dict[str, list[tuple[int, int]]],
    eval_seed: int = 0,
) -> tuple[EvalReport, list[ScoreTimeline], list[np.ndarray]]:
    """Score every video of ``manifest``, read from ``base_dir``, and compute
    frame-level metrics. Returns the report, the timelines in manifest
    order, and each video's frame label mask.

    A negative ``eval_seed``, a split with no videos, a manifest width other
    than the model's and ground truth that does not fit the videos
    (``check_ground_truth``) are each a ValueError raised before any feature
    file is read; ``load_records`` rejects a file whose width is not the
    manifest's. Each chunk of ``eval_batches`` (``load_chunks``) is loaded,
    scored batch by batch (``_score_batch``) and released before the next
    is read; a video's frame mask is built once its file has confirmed its
    frame count. A
    ``NumericsError`` in a video's forward pass is re-raised with the
    video's id in front. The videos are scored under one ``np.errstate``
    that silences overflow and invalid-value warnings: the engine checks
    every value the forward pass makes, so nothing warns before that error.
    """
    if eval_seed < 0:
        raise ValueError(f"eval_seed must be non-negative, got {eval_seed}")
    videos = manifest.videos
    if not videos:
        raise ValueError("no videos to evaluate: the split is empty")
    if manifest.d != model.d:
        raise ValueError(f"{manifest.split} split has width {manifest.d}, checkpoint expects {model.d}")
    check_ground_truth(videos, ground_truth)
    ag.pin_malloc_thresholds()
    counts = [snippet_count(v.frame_count, manifest.snippet_len) for v in videos]
    scored: dict[int, tuple[ScoreTimeline, np.ndarray]] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in load_chunks(eval_batches(counts), [t * manifest.d * 4 for t in counts]):
            picked = [i for batch in chunk for i in batch]
            records = dict(zip(picked, load_records(replace(manifest, videos=[videos[i] for i in picked]), base_dir)))
            for batch in chunk:
                for idx, tl in zip(batch, _score_batch(records, batch, model, eval_seed)):
                    scored[idx] = tl, frame_labels(tl.frame_count, ground_truth.get(tl.video_id, []))
            del records  # released before the next chunk loads
    timelines, masks = (list(col) for col in zip(*(scored[idx] for idx in range(len(videos)))))
    runs: list[tuple[np.ndarray, ...]] = []  # (score, label, weight) per entry
    per_video: list[dict] = []
    for tl, labels in zip(timelines, masks):
        start, stop, snippet = frame_runs(tl, labels)
        runs.append((tl.snippet_scores[snippet], labels[start], stop - start))
        frame_scores = tl.frame_scores
        per_video.append(
            {
                "id": tl.video_id,
                "label": tl.label,
                "frames": tl.frame_count,
                "mean_score": float(frame_scores.mean()),
                "max_score": float(frame_scores.max()),
            }
        )
    scores, run_labels, weights = (np.concatenate(col) for col in zip(*runs))
    report = EvalReport(
        auc_roc=auc_roc(scores, run_labels, weights),
        auc_pr=auc_pr(scores, run_labels, weights),
        auc_roc_binary=binary_auc_roc(scores >= BINARY_THRESHOLD, run_labels, weights),
        num_videos=len(videos),
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


def frame_runs(tl: ScoreTimeline, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One video's frames cut into runs that share a snippet and a label, in
    frame order: each run's first frame, its stop (one past its last frame)
    and its snippet. ``labels`` is the video's frame mask; a length other
    than the frame count is a ValueError naming the video."""
    n, step, last = tl.frame_count, tl.snippet_len, tl.snippet_scores.size - 1
    if labels.size != n:
        raise ValueError(f"video '{tl.video_id}': {n} frames but {labels.size} labels")
    cut = np.empty(n, dtype=bool)
    cut[0] = True
    np.not_equal(labels[1:], labels[:-1], out=cut[1:])
    cut[: last * step + 1 : step] = True  # snippet starts; a last snippet without frames has none
    start = np.flatnonzero(cut)
    stop = np.empty_like(start)
    stop[:-1], stop[-1] = start[1:], n
    # every snippet but the last covers snippet_len frames
    return start, stop, np.minimum(start // step, last)


def _frame_csv(tl: ScoreTimeline, labels: np.ndarray, idx: list[str]):
    """One video's CSV text, byte for byte what ``csv.writer`` writes for
    ``[video_id, i, repr(float(score)), binary, label]`` per frame, one piece
    per run of ``frame_runs``. ``idx`` holds the frame indices as text, at
    least one per frame."""
    start, stop, snippet = frame_runs(tl, labels)
    head = _csv_field(tl.video_id) + ","
    for s, e, x, b, y in zip(
        start.tolist(),
        stop.tolist(),
        tl.snippet_scores[snippet].tolist(),
        tl.snippet_binary[snippet].tolist(),
        labels[start].tolist(),
    ):
        tail = f",{x!r},{b},{y}\r\n"
        yield head + (tail + head).join(idx[s:e]) + tail


def write_frame_csv(path: str | Path, timelines: list[ScoreTimeline], masks: list[np.ndarray]) -> None:
    """Per-frame scores as CSV: video_id, frame_idx, score, binary, label.

    ``masks`` are the timelines' frame labels, as ``evaluate_manifest`` returns
    them; a mask whose length is not its video's frame count is a ValueError
    naming the video.
    """
    idx = list(map(str, range(max((tl.frame_count for tl in timelines), default=0))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["video_id", "frame_idx", "score", "binary", "label"])
        for tl, labels in zip(timelines, masks, strict=True):
            fh.write("".join(_frame_csv(tl, labels, idx)))
