"""Exact ranking metrics computed from sorted distinct thresholds.

Both curves treat every distinct score as one operating point, so tied
scores move along the curve together: ROC integration is trapezoidal
(equivalent to the midrank convention) and the PR area uses the
average-precision step convention.
"""

from __future__ import annotations

import numpy as np


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
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
    return s, y.astype(np.float64)


def _threshold_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative true/false positives at each distinct score, descending."""
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    tp = np.cumsum(y)
    fp = np.cumsum(1.0 - y)
    last_of_group = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    return tp[last_of_group], fp[last_of_group], s[last_of_group]


def auc_roc(scores, labels) -> float:
    """Area under the ROC curve; ties handled by the midrank convention."""
    s, y = _validate(scores, labels)
    pos = y.sum()
    neg = y.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC AUC needs at least one positive and one negative label")
    tp, fp, _ = _threshold_counts(s, y)
    tpr = np.concatenate(([0.0], tp / pos))
    fpr = np.concatenate(([0.0], fp / neg))
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))


def auc_pr(scores, labels) -> float:
    """Area under the precision-recall curve, average-precision convention:
    sum of precision at each threshold weighted by the recall increment."""
    s, y = _validate(scores, labels)
    pos = y.sum()
    if pos == 0:
        raise ValueError("PR AUC needs at least one positive label")
    tp, fp, _ = _threshold_counts(s, y)
    precision = tp / (tp + fp)
    recall = np.concatenate(([0.0], tp / pos))
    return float(np.sum(np.diff(recall) * precision))
