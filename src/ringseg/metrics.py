"""Point-wise precision/recall/IoU and stage-1 proposal recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import CLASS_NAMES, FOREGROUND_CLASSES
from .errors import AlignmentError


@dataclass(frozen=True)
class MetricsReport:
    """Per-class set metrics over point labels.

    Empty-set convention (the ratios are otherwise undefined): a class
    absent from both prediction and ground truth scores 1.0; absent from
    exactly one side scores 0.0 for the affected ratio.
    """

    precision: dict[int, float]
    recall: dict[int, float]
    iou: dict[int, float]
    pred_count: dict[int, int]
    gt_count: dict[int, int]
    overlap_count: dict[int, int]
    avg_iou: float

    def to_record(self) -> dict[str, float | int]:
        rec: dict[str, float | int] = {}
        for cid in sorted(CLASS_NAMES):
            name = CLASS_NAMES[cid]
            rec[f"pr_{name}"] = self.precision[cid]
            rec[f"re_{name}"] = self.recall[cid]
            rec[f"iou_{name}"] = self.iou[cid]
            rec[f"p_{name}"] = self.pred_count[cid]
            rec[f"g_{name}"] = self.gt_count[cid]
            rec[f"pg_{name}"] = self.overlap_count[cid]
        rec["avg_iou"] = self.avg_iou
        return rec


def _ratio(num: int, den: int, other_empty: bool) -> float:
    if den == 0:
        return 1.0 if other_empty else 0.0
    return num / den


def _report_from_counts(pred_count: dict[int, int], gt_count: dict[int, int],
                        overlap_count: dict[int, int]) -> MetricsReport:
    """The one place the ratios and their empty-set convention are taken."""
    precision, recall, iou = {}, {}, {}
    for cid in sorted(CLASS_NAMES):
        np_, ng, npg = pred_count[cid], gt_count[cid], overlap_count[cid]
        precision[cid] = _ratio(npg, np_, ng == 0)
        recall[cid] = _ratio(npg, ng, np_ == 0)
        iou[cid] = _ratio(npg, np_ + ng - npg, True)
    avg = float(np.mean([iou[int(c)] for c in FOREGROUND_CLASSES]))
    return MetricsReport(precision, recall, iou, pred_count, gt_count, overlap_count, avg)


def pointwise_metrics(pred: np.ndarray, gt: np.ndarray) -> MetricsReport:
    """Exact set-cardinality precision, recall and IoU per class.

    avg_iou averages the foreground classes (car, pedestrian, cyclist).
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise AlignmentError(f"pred length {pred.shape} != gt length {gt.shape}")
    p_cnt, g_cnt, pg_cnt = {}, {}, {}
    for cid in sorted(CLASS_NAMES):
        p, g = pred == cid, gt == cid
        p_cnt[cid], g_cnt[cid], pg_cnt[cid] = int(p.sum()), int(g.sum()), int((p & g).sum())
    return _report_from_counts(p_cnt, g_cnt, pg_cnt)


@dataclass(frozen=True)
class RecallReport:
    """Coverage of ground-truth foreground points by the proposal set."""

    recall: float
    n_proposals: int
    fg_points: int
    fg_covered: int
    points_passed: int

    def to_record(self) -> dict[str, float | int]:
        return {
            "recall": self.recall,
            "proposals": self.n_proposals,
            "fg_points": self.fg_points,
            "fg_covered": self.fg_covered,
            "points_passed": self.points_passed,
        }


def proposal_recall(cluster_ids: np.ndarray, gt_labels: np.ndarray) -> RecallReport:
    """Fraction of foreground points covered by any proposal.

    cluster_ids holds each point's proposal id, 0 for none, as stage 1
    writes it. Also reports the proposal count (the distinct nonzero ids)
    and the number of points the proposals would hand to a downstream
    consumer.
    """
    cluster_ids = np.asarray(cluster_ids)
    gt_labels = np.asarray(gt_labels)
    if cluster_ids.shape != gt_labels.shape:
        raise AlignmentError(f"cluster ids {cluster_ids.shape} != gt length {gt_labels.shape}")
    covered = cluster_ids != 0
    fg = gt_labels > 0
    fg_total = int(fg.sum())
    fg_cov = int((fg & covered).sum())
    # distinct ids by sort and diff: np.unique loads numpy.ma on first use
    ids = np.sort(cluster_ids[covered])
    return RecallReport(
        recall=_ratio(fg_cov, fg_total, True),
        n_proposals=int(ids.size and 1 + np.count_nonzero(ids[1:] != ids[:-1])),
        fg_points=fg_total,
        fg_covered=fg_cov,
        points_passed=int(covered.sum()),
    )


def eval_summary(reports: list[MetricsReport], coverages: list[RecallReport]) -> dict:
    """Pooled fields of the `frame=all` eval record.

    Counts are summed over frames before any ratio is taken, so the pooled
    IoU follows the per-frame rule; an empty list adds no fields.
    """
    fields: dict[str, float | int] = {}
    if reports:
        pooled = _report_from_counts(*(
            {cid: sum(getattr(r, counts)[cid] for r in reports) for cid in sorted(CLASS_NAMES)}
            for counts in ("pred_count", "gt_count", "overlap_count")))
        fields.update({f"iou_{CLASS_NAMES[cid]}": pooled.iou[cid] for cid in sorted(CLASS_NAMES)},
                      avg_iou=pooled.avg_iou)
    if coverages:
        n = len(coverages)
        recall = _ratio(sum(c.fg_covered for c in coverages),
                        sum(c.fg_points for c in coverages), True)
        fields.update({
            "recall": recall,
            "recall_pct": round(100.0 * recall, 2),
            "proposals_per_frame": round(sum(c.n_proposals for c in coverages) / n, 2),
            "points_passed_per_frame": round(sum(c.points_passed for c in coverages) / n, 1),
        })
    return fields
