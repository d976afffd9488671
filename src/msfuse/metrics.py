"""Mask evaluation metrics: accuracy, sensitivity and rank-based AUC."""

from dataclasses import dataclass

import numpy as np

BINARIZE_THRESHOLD = 0.5

class UndefinedMetricError(ValueError):
    """Raised when a metric's denominator is empty (never silently 0)."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


def _binarize(img):
    return np.asarray(img, dtype=np.float64) >= BINARIZE_THRESHOLD


def confusion(pred, truth):
    """2x2 contingency counts of pred vs truth, both binarized at 0.5."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shapes differ: {pred.shape} vs {truth.shape}")
    p = _binarize(pred)
    t = _binarize(truth)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & t)),
        tn=int(np.count_nonzero(~p & ~t)),
        fp=int(np.count_nonzero(p & ~t)),
        fn=int(np.count_nonzero(~p & t)),
    )


def accuracy(c):
    if c.total == 0:
        raise UndefinedMetricError("accuracy undefined on empty comparison")
    return (c.tp + c.tn) / c.total


def sensitivity(c):
    if c.tp + c.fn == 0:
        raise UndefinedMetricError("sensitivity undefined without positives")
    return c.tp / (c.tp + c.fn)


def auc(scores, truth):
    """Mann-Whitney rank AUC: probability a random positive outscores a
    random negative, ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = _binarize(truth).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and truth must have the same size")
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC undefined for single-class truth")
    # average ranks: a tie group of n scores ending at rank hi gets
    # hi - (n - 1)/2 each, so ties count as 1/2 wins
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    pos_rank_sum = ranks[labels].sum()
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
