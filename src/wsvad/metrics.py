"""Exact ranking metrics computed from sorted distinct thresholds.

Both curves treat every distinct score as one operating point, so tied
scores move along the curve together: ROC integration is trapezoidal
(equivalent to the midrank convention) and the PR area uses the
average-precision step convention.

Both also take optional positive weights, one per score: an entry of weight
w counts as w entries with the same score and label. With integer weights
every count stays an exact integer in float64, so a weighted call returns
the same bits as the unweighted call on the entries repeated w times.
"""

from __future__ import annotations

import numpy as np


def _validate(scores, labels, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores as float64 plus each entry's positive and negative weight."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError(f"scores and labels disagree in length: {s.shape} vs {y.shape}")
    if s.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary")
    y = y.astype(np.float64)
    if weights is None:
        return s, y, 1.0 - y
    w = np.asarray(weights, dtype=np.float64).ravel()
    if w.shape != s.shape:
        raise ValueError(f"scores and weights disagree in length: {s.shape} vs {w.shape}")
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError("weights must be positive and finite")
    wy = w * y
    return s, wy, w - wy


def _threshold_counts(s: np.ndarray, pos_w: np.ndarray, neg_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative true/false positives at each distinct score, descending."""
    order = np.argsort(-s, kind="stable")
    s = s[order]
    tp = np.cumsum(pos_w[order])
    fp = np.cumsum(neg_w[order])
    last_of_group = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    return tp[last_of_group], fp[last_of_group]


def auc_roc(scores, labels, weights=None) -> float:
    """Area under the ROC curve; ties handled by the midrank convention."""
    s, pos_w, neg_w = _validate(scores, labels, weights)
    pos = pos_w.sum()
    neg = neg_w.sum()
    if pos == 0 or neg == 0:
        raise ValueError("ROC AUC needs at least one positive and one negative label")
    tp, fp = _threshold_counts(s, pos_w, neg_w)
    tpr = np.concatenate(([0.0], tp / pos))
    fpr = np.concatenate(([0.0], fp / neg))
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def auc_pr(scores, labels, weights=None) -> float:
    """Area under the precision-recall curve, average-precision convention:
    sum of precision at each threshold weighted by the recall increment."""
    s, pos_w, neg_w = _validate(scores, labels, weights)
    pos = pos_w.sum()
    if pos == 0:
        raise ValueError("PR AUC needs at least one positive label")
    tp, fp = _threshold_counts(s, pos_w, neg_w)
    precision = tp / (tp + fp)
    recall = np.concatenate(([0.0], tp / pos))
    return float(np.sum(np.diff(recall) * precision))
