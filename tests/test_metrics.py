import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringseg import AlignmentError, pointwise_metrics, proposal_recall
from ringseg.cloud import CLASS_NAMES
from ringseg.metrics import eval_summary

from oracles import counting_metrics, looped_recall


def test_identical_labels_all_ones(rng):
    labels = rng.integers(0, 4, 500).astype(np.uint8)
    report = pointwise_metrics(labels, labels)
    for cid in range(4):
        assert report.precision[cid] == 1.0
        assert report.recall[cid] == 1.0
        assert report.iou[cid] == 1.0
    assert report.avg_iou == 1.0


def test_hand_case_two_thirds():
    # car predicted at points {1,2,3}, true at {2,3,4}
    pred = np.array([0, 1, 1, 1, 0], dtype=np.uint8)
    gt = np.array([0, 0, 1, 1, 1], dtype=np.uint8)
    report = pointwise_metrics(pred, gt)
    assert report.precision[1] == pytest.approx(2 / 3)
    assert report.recall[1] == pytest.approx(2 / 3)
    assert report.iou[1] == pytest.approx(0.5)


def test_matches_counting_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 120))
        pred = rng.integers(0, 4, n).astype(np.uint8)
        gt = rng.integers(0, 4, n).astype(np.uint8)
        report = pointwise_metrics(pred, gt)
        p, g, pg = counting_metrics(pred, gt)
        for c in range(4):
            assert report.pred_count[c] == p[c]
            assert report.gt_count[c] == g[c]
            assert report.overlap_count[c] == pg[c]
            if p[c]:
                assert report.precision[c] == pg[c] / p[c]
            if g[c]:
                assert report.recall[c] == pg[c] / g[c]
            if p[c] + g[c]:
                assert report.iou[c] == pg[c] / (p[c] + g[c] - pg[c])


def test_empty_set_conventions():
    pred = np.array([0, 0], dtype=np.uint8)
    gt = np.array([0, 0], dtype=np.uint8)
    report = pointwise_metrics(pred, gt)
    # classes absent from both sides
    for cid in (1, 2, 3):
        assert report.precision[cid] == 1.0
        assert report.recall[cid] == 1.0
        assert report.iou[cid] == 1.0
    # class present only in gt
    report = pointwise_metrics(np.zeros(3, np.uint8),
                               np.array([1, 1, 0], np.uint8))
    assert report.precision[1] == 0.0
    assert report.recall[1] == 0.0
    assert report.iou[1] == 0.0


def test_length_mismatch():
    with pytest.raises(AlignmentError):
        pointwise_metrics(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=60),
       st.data())
def test_iou_bounded_by_pr_and_re(pred_list, data):
    n = len(pred_list)
    gt_list = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    report = pointwise_metrics(np.array(pred_list, np.uint8),
                               np.array(gt_list, np.uint8))
    for c in range(4):
        assert report.iou[c] <= report.precision[c] + 1e-12
        assert report.iou[c] <= report.recall[c] + 1e-12
        assert 0.0 <= report.iou[c] <= 1.0


def test_metrics_permutation_invariant(rng):
    n = 300
    pred = rng.integers(0, 4, n).astype(np.uint8)
    gt = rng.integers(0, 4, n).astype(np.uint8)
    perm = rng.permutation(n)
    a = pointwise_metrics(pred, gt)
    b = pointwise_metrics(pred[perm], gt[perm])
    assert a.iou == b.iou and a.precision == b.precision


def test_recall_full_cover():
    gt = np.array([0, 1, 2, 3, 0], dtype=np.uint8)
    rep = proposal_recall(np.array([0, 4, 4, 4, 0]), gt)
    assert rep.recall == 1.0
    assert rep.points_passed == 3
    assert rep.fg_points == 3


def test_recall_zero_proposals():
    gt = np.array([1, 1], dtype=np.uint8)
    rep = proposal_recall(np.zeros(2, dtype=np.uint32), gt)
    assert rep.recall == 0.0
    assert rep.n_proposals == 0


def test_recall_partial(rng):
    gt = np.zeros(100, dtype=np.uint8)
    gt[:40] = 1
    ids = np.zeros(100, dtype=np.uint32)
    ids[0:20], ids[50:60] = 2, 7
    rep = proposal_recall(ids, gt)
    assert rep.recall == pytest.approx(0.5)
    assert rep.n_proposals == 2
    assert rep.points_passed == 30


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), max_size=80),
       st.lists(st.integers(1, 2**32 - 1), min_size=4, max_size=4))
@example([], [1, 2, 3, 4])  # an empty frame
@example([(0, 1), (0, 0), (0, 3)], [1, 2, 3, 4])  # a frame without proposals
def test_recall_matches_looped_oracle(points, pool):
    # each point's id is 0 or one of the pool's ids, which may repeat
    ids = np.array([([0] + pool)[k] for k, _ in points], dtype=np.uint32)
    gt = np.array([label for _, label in points], dtype=np.uint8)
    assert proposal_recall(ids, gt).to_record() == looped_recall(ids, gt)


def test_recall_length_mismatch():
    with pytest.raises(AlignmentError):
        proposal_recall(np.zeros(3, np.uint32), np.zeros(4, np.uint8))


def test_eval_summary_pools_like_one_concatenated_frame(rng):
    # no cyclist anywhere, so its pooled IoU takes the empty-set convention
    preds = [rng.integers(0, 3, n).astype(np.uint8) for n in (50, 0, 300)]
    gts = [rng.integers(0, 3, n).astype(np.uint8) for n in (50, 0, 300)]
    whole = pointwise_metrics(np.concatenate(preds), np.concatenate(gts))
    covers = [proposal_recall((np.arange(g.size) % 2 == 0).astype(np.uint32), g) for g in gts]
    summary = eval_summary([pointwise_metrics(p, g) for p, g in zip(preds, gts)], covers)
    for cid, name in CLASS_NAMES.items():
        assert summary[f"iou_{name}"] == whole.iou[cid]
    assert summary["iou_cyclist"] == 1.0
    assert summary["avg_iou"] == whole.avg_iou
    fg = np.concatenate(gts) > 0
    covered = np.concatenate([np.arange(g.size) % 2 == 0 for g in gts])
    assert summary["recall"] == (fg & covered).sum() / fg.sum()
    # the empty frame has no proposal: one each in the other two
    assert summary["proposals_per_frame"] == 0.67
    assert eval_summary([], []) == {}
