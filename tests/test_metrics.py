import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from coleaf import metrics
from coleaf.errors import AlignmentError, ConfigError, DimensionError
from coleaf.metrics import (
    STREAMS,
    MetricConfig,
    derive_exclusive,
    extract_event_proposals,
    full_report,
    match_events,
    segment_counts,
    _streams,
)
from coleaf.records import SCORE_BLOCK_VIDEOS, BinaryParse, as_binary, probability_pair, unchecked
from coleaf.synthdata import CorpusSpec

from oracles import (
    oracle_cell_counts,
    oracle_exclusive,
    oracle_full_report,
    oracle_greedy_match,
    oracle_optimal_match,
    oracle_runs,
)


def _thresholded(pa, pv, threshold):
    """The parse of probabilities `pa` and `pv`: a cell is positive only if strictly above
    its threshold, one value or one per class."""
    return BinaryParse(np.asarray(pa) > threshold, np.asarray(pv) > threshold)


_STRICT_CASES = {
    "scalar": ([[0.6, 0.4]], [[0.4, 0.6]], 0.5, [[1, 0]], [[0, 1]]),
    "per-class": ([[0.5, 0.5]], [[0.5, 0.5]], [0.3, 0.7], [[1, 0]], [[1, 0]]),
    "boundary": ([[0.5, 0.25]], [[0.25, 0.5]], [0.5, 0.25], [[0, 0]], [[0, 1]]),
}


@pytest.mark.parametrize("case", _STRICT_CASES)
def test_full_report_thresholds_strictly_above(case):
    """Scored against the parse it should threshold to, a pair gives a perfect report: any
    cell thresholded the other way would be a false positive or negative."""
    pa, pv, thr, audio, visual = _STRICT_CASES[case]
    report = full_report({"v": (np.array(pa), np.array(pv))}, {"v": BinaryParse(audio, visual)}, thresholds=thr)
    assert set(report.segment.as_dict().values()) == {100.0}
    assert all(rate["FP"] == rate["FN"] == 0.0 for rate in report.rates.values())


def test_full_report_thresholds_each_cell_as_the_elementwise_test():
    rng = np.random.default_rng(0)
    pa, pv = rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (4, 3))
    thr = rng.uniform(0.2, 0.8)
    report = full_report({"v": (pa, pv)}, {"v": _thresholded(pa, pv, thr)}, thresholds=thr)
    assert set(report.segment.as_dict().values()) == {100.0}


def test_full_report_rejects_bad_threshold():
    probs = np.full((2, 2), 0.5)
    gt = BinaryParse(np.eye(2, dtype=int), np.eye(2, dtype=int))
    for thr in (0.0, 1.0, [0.5, 1.5], [0.2, 0.4, 0.6], 10**400, (0.5, 10**400), "abc"):
        with pytest.raises(ConfigError):
            full_report({"v": (probs, probs)}, {"v": gt}, thresholds=thr)
    with pytest.raises(ConfigError, match=r"^thresholds must lie strictly inside \(0,1\), got \[inf\]$"):
        full_report({"v": (probs, probs)}, {"v": gt}, thresholds=10**400)


def test_derive_exclusive_cases():
    parse = BinaryParse(np.array([[1]]), np.array([[1]]))
    ex = derive_exclusive(parse)
    assert (ex.audio_only[0, 0], ex.visual_only[0, 0], ex.audible_visible[0, 0]) == (0, 0, 1)
    parse = BinaryParse(np.array([[0]]), np.array([[0]]))
    ex = derive_exclusive(parse)
    assert ex.audio_only[0, 0] == ex.visual_only[0, 0] == ex.audible_visible[0, 0] == 0


def test_derive_exclusive_truth_table_and_partition():
    cases = [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = np.array([[x for x, _ in cases]])
    v = np.array([[y for _, y in cases]])
    ex = derive_exclusive(BinaryParse(a, v))
    assert ex.audio_only.tolist() == [[0, 0, 1, 0]]
    assert ex.visual_only.tolist() == [[0, 1, 0, 0]]
    assert ex.audible_visible.tolist() == [[0, 0, 0, 1]]
    # partition: ao + vo + 2*av == a + v, streams pairwise disjoint
    assert np.array_equal(ex.audio_only + ex.visual_only + 2 * ex.audible_visible, a + v)
    assert np.all(ex.audio_only * ex.audible_visible == 0)
    assert np.all(ex.visual_only * ex.audible_visible == 0)
    assert np.all(ex.audio_only * ex.visual_only == 0)


@st.composite
def _predicted_parses(draw):
    """A parse thresholded from random probabilities of a random T x C."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 4)))
    pa, pv = (draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0))) for _ in "av")
    return _thresholded(pa, pv, draw(st.floats(0.01, 0.99)))


@settings(max_examples=100, deadline=None)
@given(parse=_predicted_parses())
def test_exclusive_streams_partition_each_predicted_cell(parse):
    a, v = parse.audio, parse.visual
    ex = derive_exclusive(parse)
    ao, vo, av = ex.audio_only, ex.visual_only, ex.audible_visible
    assert not np.any(ao * vo) and not np.any(ao * av) and not np.any(vo * av)
    assert np.array_equal(ao + vo + av, a | v)
    assert np.array_equal(ao + av, a)
    assert np.array_equal(vo + av, v)


def _audio_report(preds, gts):
    """The report of a corpus whose audio parses are `preds` and `gts` and whose visual
    parses are empty, so that its A scores are the audio stream's alone."""
    pairs = [{}, {}]
    for k, (p, g) in enumerate(zip(preds, gts)):
        for parses, audio in zip(pairs, (p, g)):
            parses[f"v{k}"] = BinaryParse(audio, np.zeros_like(audio))
    return full_report(*pairs)


def test_segment_fscore_perfect_and_all_wrong():
    gt = np.array([[1, 0], [0, 1]])
    assert _audio_report([gt], [gt]).segment.a == 100.0
    assert _audio_report([np.ones_like(gt)], [np.zeros_like(gt)]).segment.a == 0.0


def test_segment_fscore_empty_confusion_is_100():
    z = np.zeros((3, 2), dtype=int)
    assert set(_audio_report([z], [z]).segment.as_dict().values()) == {100.0}


def test_segment_fscore_matches_cell_count_oracle():
    rng = np.random.default_rng(1)
    preds = [rng.integers(0, 2, (5, 3)) for _ in range(3)]
    gts = [rng.integers(0, 2, (5, 3)) for _ in range(3)]
    got = _audio_report(preds, gts).segment.a
    tp = fp = fn = 0
    for p, g in zip(preds, gts):
        for i in range(5):
            for j in range(3):
                tp += int(p[i, j] and g[i, j])
                fp += int(p[i, j] and not g[i, j])
                fn += int(not p[i, j] and g[i, j])
    want = 100.0 * 2 * tp / (2 * tp + fp + fn)
    assert got == want


def test_segment_fscore_shape_mismatch():
    with pytest.raises(DimensionError):
        segment_counts(np.zeros((2, 2)), np.zeros((3, 2)))


def _audio_stack(*mats):
    """A stream stack with one video per T x C matrix of `mats`, in its A stream alone."""
    stack = np.zeros((len(mats), len(STREAMS), *mats[0].shape), dtype=np.int64)
    stack[:, 0] = mats
    return stack


def test_extract_event_proposals():
    col = np.array([[1], [1], [0], [1]])
    assert extract_event_proposals(_audio_stack(col)).tolist() == [[0, 0, 2], [0, 3, 4]]
    assert extract_event_proposals(_audio_stack(np.zeros((4, 2), dtype=int))).shape == (0, 3)


def test_extract_event_proposals_matches_run_length_oracle():
    rng = np.random.default_rng(2)
    stacks = rng.integers(0, 2, (4, len(STREAMS), 10, 3))
    want = [
        [(b * len(STREAMS) + s) * 3 + c, start, end + 1]
        for b in range(4)
        for s in range(len(STREAMS))
        for c, start, end in oracle_runs(stacks[b, s])
    ]
    assert extract_event_proposals(stacks).tolist() == want


def test_event_fscore_identical_sets():
    audio = np.zeros((4, 3), dtype=int)
    audio[1:4, 0] = audio[0, 2] = 1
    stack = _audio_stack(audio)
    assert oracle_runs(audio) == [(0, 1, 3), (2, 0, 0)]
    assert extract_event_proposals(stack).tolist() == [[0, 1, 4], [2, 0, 1]]
    assert _audio_report([audio], [audio]).event.a == 100.0
    assert tuple(match_events(stack, stack)[:, 0, 0]) == (2, 0, 0)


def test_event_fscore_low_iou_is_no_match():
    pred, gt = np.zeros((5, 1), dtype=int), np.zeros((5, 1), dtype=int)
    pred[0:5, 0] = gt[0:2, 0] = 1
    # IoU = 2/5 < 0.5
    assert _audio_report([pred], [gt]).event.a == 0.0
    assert oracle_greedy_match(oracle_runs(pred), oracle_runs(gt)) == (0, 1, 1)
    assert tuple(match_events(_audio_stack(pred), _audio_stack(gt))[:, 0, 0]) == (0, 1, 1)


def test_event_matching_equals_optimal_on_small_sets():
    rng = np.random.default_rng(3)
    pred_mats, gt_mats, want = [], [], []
    for _ in range(500):
        if len(want) >= 25:
            break
        pred_mat = rng.integers(0, 2, (8, 2))
        gt_mat = rng.integers(0, 2, (8, 2))
        pred_runs = oracle_runs(pred_mat)
        gt_runs = oracle_runs(gt_mat)
        if len(pred_runs) > 4 or len(gt_runs) > 4:
            continue
        greedy = oracle_greedy_match(pred_runs, gt_runs)
        optimal = oracle_optimal_match(pred_runs, gt_runs)
        if greedy != optimal:
            continue  # keep instances where greedy is optimal by construction
        pred_mats.append(pred_mat)
        gt_mats.append(gt_mat)
        want.append(optimal)
    counts = match_events(_audio_stack(*pred_mats), _audio_stack(*gt_mats))
    assert [tuple(counts[:, 0, b]) for b in range(len(want))] == want


def test_full_report_runs_the_event_pass_once_per_block(monkeypatch):
    """`full_report` finds each block's events with `extract_event_proposals`, once for the
    predictions and once for the ground truth, and matches them with `match_events`, so
    a wrapper over either name sees every block."""
    rng = np.random.default_rng(14)
    n_videos = 2 * SCORE_BLOCK_VIDEOS + 3
    preds, gts = _random_corpus(rng, n_videos=n_videos, t=6, c=3)
    calls = {"extract": 0, "match": 0}
    rows = []

    def counting_extract(stacks):
        calls["extract"] += 1
        rows.append(len(result := extract(stacks)))
        return result

    def counting_match(pred, gt):
        calls["match"] += 1
        return match(pred, gt)

    extract, match = metrics.extract_event_proposals, metrics.match_events
    monkeypatch.setattr(metrics, "extract_event_proposals", counting_extract)
    monkeypatch.setattr(metrics, "match_events", counting_match)
    full_report(preds, gts)
    n_blocks = -(-n_videos // SCORE_BLOCK_VIDEOS)
    assert calls == {"extract": 2 * n_blocks, "match": n_blocks}
    want = sum(
        len(oracle_runs(stream))
        for parse in (*preds.values(), *gts.values())
        for stream in _streams(parse.audio, parse.visual)
    )
    assert sum(rows) == want


def _random_corpus(rng, n_videos=3, t=5, c=3):
    preds, gts = {}, {}
    for i in range(n_videos):
        vid = f"v{i}"
        preds[vid] = BinaryParse(rng.integers(0, 2, (t, c)), rng.integers(0, 2, (t, c)))
        gts[vid] = BinaryParse(rng.integers(0, 2, (t, c)), rng.integers(0, 2, (t, c)))
    return preds, gts


def test_full_report_perfect_prediction_is_all_100():
    rng = np.random.default_rng(4)
    _, gts = _random_corpus(rng)
    report = full_report(dict(gts), gts)
    for value in {**report.segment.as_dict(), **report.event.as_dict()}.values():
        assert value == 100.0


def test_full_report_reproduces_metric_divergence():
    # one audible-only cell predicted as audible-visible: the raw audio
    # metric rewards it while the exclusive metrics record the mistake
    preds = {"v": BinaryParse(np.array([[1]]), np.array([[1]]))}
    gts = {"v": BinaryParse(np.array([[1]]), np.array([[0]]))}
    report = full_report(preds, gts)
    assert report.segment.a == 100.0  # TP on the raw audio stream
    assert report.segment.ao == 0.0  # FN on audible-only
    assert report.segment.av == 0.0  # FP on audible-visible
    pred_parse = derive_exclusive(preds["v"])
    gt_parse = derive_exclusive(gts["v"])
    assert segment_counts(pred_parse.audio_only, gt_parse.audio_only) == (0, 0, 1)
    assert segment_counts(pred_parse.audible_visible, gt_parse.audible_visible) == (0, 1, 0)


def test_full_report_matches_brute_force():
    rng = np.random.default_rng(5)
    for agg in ("micro", "per-video-mean"):
        preds, gts = _random_corpus(rng, n_videos=4, t=6, c=3)
        report = full_report(preds, gts, config=MetricConfig(aggregation=agg))
        oracle = oracle_full_report(
            {k: (v.audio, v.visual) for k, v in preds.items()},
            {k: (v.audio, v.visual) for k, v in gts.items()},
            aggregation=agg,
        )
        assert report.segment.as_dict() == oracle["segment"]
        assert report.event.as_dict() == oracle["event"]


def test_full_report_order_independent():
    rng = np.random.default_rng(6)
    preds, gts = _random_corpus(rng)
    forward = full_report(preds, gts)
    reversed_preds = dict(reversed(list(preds.items())))
    reversed_gts = dict(reversed(list(gts.items())))
    backward = full_report(reversed_preds, reversed_gts)
    assert forward.as_dict() == backward.as_dict()


def test_full_report_alignment_error_lists_ids():
    preds = {"a": BinaryParse(np.zeros((2, 2)), np.zeros((2, 2)))}
    gts = {
        "a": BinaryParse(np.zeros((2, 2)), np.zeros((2, 2))),
        "b": BinaryParse(np.zeros((2, 2)), np.zeros((2, 2))),
    }
    with pytest.raises(AlignmentError) as err:
        full_report(preds, gts)
    assert "b" in str(err.value)


def test_full_report_accepts_probability_pairs():
    rng = np.random.default_rng(7)
    gt = BinaryParse(rng.integers(0, 2, (4, 2)), rng.integers(0, 2, (4, 2)))
    probs = (rng.uniform(0, 1, (4, 2)), rng.uniform(0, 1, (4, 2)))
    report = full_report({"v": probs}, {"v": gt}, thresholds=0.5)
    direct = full_report({"v": _thresholded(*probs, 0.5)}, {"v": gt})
    assert report.as_dict() == direct.as_dict()


def test_segment_equals_event_for_unit_runs():
    # every positive is isolated, so each run has length 1 and IoU matching
    # reduces to exact cell matching
    rng = np.random.default_rng(8)
    t, c = 9, 3
    base = np.zeros((t, c), dtype=int)
    base[::2] = rng.integers(0, 2, ((t + 1) // 2, c))
    pred = np.zeros_like(base)
    pred[::2] = rng.integers(0, 2, ((t + 1) // 2, c))
    report = _audio_report([pred], [base])
    assert report.segment.a == report.event.a


def test_type_scores_are_means():
    rng = np.random.default_rng(9)
    preds, gts = _random_corpus(rng)
    report = full_report(preds, gts)
    seg = report.segment
    assert seg.type_at_av == pytest.approx((seg.a + seg.v + seg.av) / 3)
    assert seg.type_at_avo == pytest.approx((seg.ao + seg.vo + seg.av) / 3)


def test_report_text_is_stable():
    rng = np.random.default_rng(10)
    preds, gts = _random_corpus(rng)
    first = full_report(preds, gts).to_text()
    second = full_report(preds, gts).to_text()
    assert first == second
    assert first.splitlines()[0].startswith("segment.A = ")
    assert len(first.splitlines()) == 18


def test_segment_counts_of_a_stack_are_the_per_stream_counts():
    rng = np.random.default_rng(11)
    pred = BinaryParse(rng.integers(0, 2, (6, 3)), rng.integers(0, 2, (6, 3)))
    gt = BinaryParse(rng.integers(0, 2, (6, 3)), rng.integers(0, 2, (6, 3)))
    pred_streams, gt_streams = _streams(pred.audio, pred.visual), _streams(gt.audio, gt.visual)
    stacked = np.transpose(segment_counts(pred_streams, gt_streams))
    pe, ge = derive_exclusive(pred), derive_exclusive(gt)
    pairs = [
        (pred.audio, gt.audio),
        (pred.visual, gt.visual),
        (pe.audible_visible, ge.audible_visible),
        (pe.audio_only, ge.audio_only),
        (pe.visual_only, ge.visual_only),
    ]
    assert stacked.tolist() == [list(oracle_cell_counts(p, g)) for p, g in pairs]


def _oracle_rates(pred_parses, gt_parses):
    totals = {event_type: [0, 0, 0, 0] for event_type in ("A", "V", "AV")}  # tp, fp, fn, cells
    for vid, (pa, pv) in pred_parses.items():
        streams = zip(oracle_exclusive(pa, pv), oracle_exclusive(*gt_parses[vid]))
        for event_type, (p, g) in zip(("A", "V", "AV"), streams):
            for k, n in enumerate((*oracle_cell_counts(p, g), p.size)):
                totals[event_type][k] += n
    rates = {}
    for event_type, (tp, fp, fn, cells) in totals.items():
        tn = cells - tp - fp - fn
        pos, neg = tp + fn, tn + fp
        rates[event_type] = {
            "TP": 100.0 * tp / pos if pos else 0.0,
            "TN": 100.0 * tn / neg if neg else 0.0,
            "FP": 100.0 * fp / neg if neg else 0.0,
            "FN": 100.0 * fn / pos if pos else 0.0,
        }
    return rates


@st.composite
def _corpora(draw):
    """Random parses for up to 150 videos of one random T x C, keyed in a shuffled insertion order."""
    n_videos = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 1.0))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 3)))
    parses = {}
    for k in draw(st.permutations(range(n_videos))):
        parses[f"id{k}"] = [(rng.uniform(size=(2, *shape)) < density).astype(np.int64) for _ in "pg"]
    gt_order = draw(st.permutations(sorted(parses)))
    preds = {vid: BinaryParse(*parses[vid][0]) for vid in parses}
    gts = {vid: BinaryParse(*parses[vid][1]) for vid in gt_order}
    return preds, gts


@settings(max_examples=60, deadline=None)
@given(corpus=_corpora(), aggregation=st.sampled_from(("micro", "per-video-mean")))
def test_full_report_equals_oracle_bit_for_bit(corpus, aggregation):
    # past 8 videos numpy's pairwise summation can order a mean differently
    # from a running sum, which small corpora cannot show
    preds, gts = corpus
    report = full_report(preds, gts, config=MetricConfig(aggregation=aggregation))
    o_preds = {vid: (p.audio, p.visual) for vid, p in preds.items()}
    o_gts = {vid: (g.audio, g.visual) for vid, g in gts.items()}
    oracle = oracle_full_report(o_preds, o_gts, aggregation=aggregation)
    assert report.segment.as_dict() == oracle["segment"]
    assert report.event.as_dict() == oracle["event"]
    assert report.rates == _oracle_rates(o_preds, o_gts)


@pytest.mark.parametrize("aggregation", ["micro", "per-video-mean"])
def test_full_report_rejects_an_empty_corpus(aggregation):
    with pytest.raises(ConfigError, match="no videos to score"):
        full_report({}, {}, config=MetricConfig(aggregation=aggregation))


@pytest.mark.parametrize(
    "pred_ids, aggregation, error, message",
    [(["a", "b", "c"], "micro", AlignmentError, "ids missing from ground truth: b, c"),
     (["a"], "median", ConfigError, "unknown aggregation 'median'")],
    ids=["ids-missing-from-ground-truth", "unknown-aggregation"],
)
def test_full_report_rejects_extra_predictions_and_an_unknown_aggregation(pred_ids, aggregation, error, message):
    parse = BinaryParse(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(error, match=f"^{message}$"):
        full_report(dict.fromkeys(pred_ids, parse), {"a": parse}, config=MetricConfig(aggregation=aggregation))


# run pairs as (pred span, gt span), inclusive, keyed by their IoU; 12/25 sits just below 1/2
_RUN_PAIRS = {
    3 / 10: ((0, 2), (0, 9)),
    12 / 25: ((0, 11), (0, 24)),
    1 / 2: ((0, 0), (0, 1)),
    14 / 25: ((0, 13), (0, 24)),
    3 / 5: ((0, 2), (0, 4)),
    2 / 3: ((0, 1), (0, 2)),
    7 / 10: ((0, 6), (0, 9)),
    1.0: ((3, 5), (3, 5)),
}


def _boundary_stacks(rng, pair, t=25, c=6, n_random=40):
    """Stream stacks of two videos whose one run pair in class 0 is `pair`, audible-only
    and then audible-visible, followed by random videos with several runs per class."""
    preds, gts = [], []
    for visual in (False, True):
        for parses, (lo, hi) in zip((preds, gts), pair):
            a = np.zeros((t, c), dtype=np.int64)
            a[lo : hi + 1, 0] = 1
            parses.append(BinaryParse(a, a if visual else np.zeros_like(a)))
    for _ in range(n_random):
        density = rng.uniform(0.2, 0.8)
        preds.append(BinaryParse(*(rng.uniform(size=(2, t, c)) < density)))
        gts.append(BinaryParse(*(rng.uniform(size=(2, t, c)) < density)))
    return tuple(np.stack([_streams(p.audio, p.visual) for p in ps]) for ps in (preds, gts))


@pytest.mark.parametrize("pair_iou", list(_RUN_PAIRS))
def test_event_counts_equal_greedy_matching_per_video_and_stream(pair_iou):
    # the integer test 2 * inter >= union must agree with both oracles' quotient
    # IoU >= 0.5, at 1/2 exactly and at 12/25 just below it
    pred, gt = _boundary_stacks(np.random.default_rng(12), _RUN_PAIRS[pair_iou])
    counts = match_events(pred, gt)
    for b in range(pred.shape[0]):
        for s, stream in enumerate(STREAMS):
            p, g = oracle_runs(pred[b, s]), oracle_runs(gt[b, s])
            assert tuple(counts[:, s, b]) == oracle_greedy_match(p, g) == oracle_optimal_match(p, g), (b, stream)
    hits = counts[0, STREAMS.index("Ao"), 0], counts[0, STREAMS.index("AV"), 1]
    assert hits == (int(pair_iou >= 0.5),) * 2


@pytest.mark.parametrize("aggregation", ["micro", "per-video-mean"])
def test_full_report_over_several_blocks_and_shapes_equals_oracle(aggregation):
    rng = np.random.default_rng(13)
    # one corpus per shape; the first spans two blocks
    for shape, n_videos in (((10, 5), SCORE_BLOCK_VIDEOS + 40), ((6, 3), 30), ((1, 2), 5)):
        preds, gts = {}, {}
        for k in rng.permutation(n_videos):
            for parses in (preds, gts):
                parses[f"id{k:03d}"] = BinaryParse(*(rng.uniform(size=(2, *shape)) < 0.4))
        report = full_report(preds, gts, config=MetricConfig(aggregation=aggregation))
        oracle = oracle_full_report(
            {vid: (p.audio, p.visual) for vid, p in preds.items()},
            {vid: (g.audio, g.visual) for vid, g in gts.items()},
            aggregation=aggregation,
        )
        assert report.segment.as_dict() == oracle["segment"]
        assert report.event.as_dict() == oracle["event"]


def test_full_report_of_mixed_parses_and_probabilities_equals_thresholding_first():
    rng = np.random.default_rng(14)
    thresholds = [0.3, 0.5, 0.7]
    preds, thresholded, gts = {}, {}, {}
    for i in range(SCORE_BLOCK_VIDEOS + 10):
        vid = f"v{i:03d}"
        probs = rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3))
        thresholded[vid] = _thresholded(*probs, thresholds)
        preds[vid] = thresholded[vid] if i % 3 == 0 else probs
        gts[vid] = BinaryParse(*(rng.uniform(size=(2, 6, 3)) < 0.4))
    mixed = full_report(preds, gts, thresholds=thresholds)
    first = full_report(thresholded, gts)
    assert mixed.as_dict() == first.as_dict()
    assert mixed.rates == first.rates


def test_full_report_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(15)
    preds, gts = {}, {}
    for i in range(2000):
        preds[f"v{i:04d}"] = rng.uniform(size=(10, 5)), rng.uniform(size=(10, 5))
        gts[f"v{i:04d}"] = BinaryParse(*(rng.uniform(size=(2, 10, 5)) < 0.3))
    tracemalloc.start()
    try:
        full_report(preds, gts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_unchecked_records_are_as_compact_as_built_ones_and_equal_to_them():
    # a record without `__post_init__` and with shared scalar fields, so the traced memory
    # is the records' own
    fields = {f: getattr(CorpusSpec(), f) for f in CorpusSpec.__dataclass_fields__}

    def traced(make):
        tracemalloc.start()
        try:
            records = [make() for _ in range(1000)]
            return records, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    built, built_bytes = traced(lambda: CorpusSpec(**fields))
    bare, bare_bytes = traced(lambda: unchecked(CorpusSpec, **fields))
    assert bare_bytes <= built_bytes
    assert bare == built


def test_full_report_shape_errors_name_the_shapes():
    gt = {"v": BinaryParse(np.zeros((2, 3)), np.zeros((2, 3)))}
    with pytest.raises(DimensionError) as err:
        full_report({"v": (np.zeros((2, 3)), np.zeros((2, 2)))}, gt)
    assert str(err.value) == "probability matrices must share T x C, got (2, 3) and (2, 2)"
    with pytest.raises(DimensionError) as err:
        full_report({"v": (np.zeros((4, 3)), np.zeros((4, 3)))}, gt)
    assert str(err.value) == "video v: prediction shape (4, 3) vs ground truth (2, 3)"


_SPOILS = pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda pa, pv: (pa, pv * 0 + 1.5), "visual probabilities hold a non-finite value or one outside [0,1]"),
        (lambda pa, pv: (np.where(pa > 0.5, np.nan, pa), pv),
         "audio probabilities hold a non-finite value or one outside [0,1]"),
        (lambda pa, pv: (pa[:, :2], pv), "probability matrices must share T x C, got (6, 2) and (6, 3)"),
        (lambda pa, pv: (pa[:4], pv[:4]), "video {vid}: prediction shape (4, 3) vs ground truth (6, 3)"),
        (lambda pa, pv: (pa, pv, pv), "video {vid}: a prediction must be two T x C matrices, got 3"),
    ],
    ids=["above-one", "nan", "shapes-differ", "other-t", "three-matrices"],
)


@_SPOILS
def test_full_report_names_the_first_bad_pair_among_several_blocks(spoil, message):
    """The error of the first bad video in id order, wherever it sits among the blocks;
    a second bad video after it, spoilt another way, is not the one reported."""
    rng = np.random.default_rng(16)
    n_videos = SCORE_BLOCK_VIDEOS + 20
    ids = [f"v{i:03d}" for i in range(n_videos)]
    gts = {vid: BinaryParse(*(rng.uniform(size=(2, 6, 3)) < 0.4)) for vid in ids}
    for bad in (0, n_videos // 2, SCORE_BLOCK_VIDEOS, n_videos - 1):
        preds = {vid: (rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3))) for vid in ids}
        preds[ids[bad]] = spoil(*preds[ids[bad]])
        if bad < n_videos - 1:  # a later bad video of the same block or the next
            preds[ids[-1]] = (preds[ids[-1]][0] - 2.0, preds[ids[-1]][1])
        with pytest.raises((TypeError, ValueError)) as err:
            full_report(preds, gts)
        assert str(err.value) == message.format(vid=ids[bad])


@_SPOILS
def test_a_bad_video_alone_fails_as_it_does_among_several_blocks(spoil, message):
    """A bad video scored on its own gives the same exception, type and text, as it does
    as the first bad video of a corpus, where its block is checked again one video at a time."""
    rng = np.random.default_rng(17)
    ids = [f"v{i:03d}" for i in range(SCORE_BLOCK_VIDEOS + 20)]
    gts = {vid: BinaryParse(*(rng.uniform(size=(2, 6, 3)) < 0.4)) for vid in ids}
    preds = {vid: (rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3))) for vid in ids}
    bad = ids[SCORE_BLOCK_VIDEOS + 5]
    preds[bad] = spoil(*preds[bad])
    errors = []
    for pred, gt in ((preds, gts), ({bad: preds[bad]}, {bad: gts[bad]})):
        with pytest.raises((TypeError, ValueError)) as err:
            full_report(pred, gt)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    assert errors[0][1] == message.format(vid=bad)


@pytest.mark.parametrize("all_three", [False, True], ids=["one-among-pairs", "whole-block"])
def test_full_report_rejects_a_prediction_of_three_matrices(all_three):
    """A third matrix is a fault whether the rest of its block holds pairs or every video
    of the block has three, and the error names the first such video."""
    rng = np.random.default_rng(18)
    ids = [f"v{i:02d}" for i in range(10)]
    gts = {vid: BinaryParse(*(rng.uniform(size=(2, 4, 3)) < 0.4)) for vid in ids}
    preds = {vid: tuple(rng.uniform(size=(3 if all_three or vid == "v04" else 2, 4, 3))) for vid in ids}
    with pytest.raises(DimensionError) as err:
        full_report(preds, gts)
    first = "v00" if all_three else "v04"
    assert str(err.value) == f"video {first}: a prediction must be two T x C matrices, got 3"


def test_full_report_rejects_a_corpus_of_two_shapes():
    gts = {
        "a": BinaryParse(np.zeros((2, 3)), np.zeros((2, 3))),
        "b": BinaryParse(np.zeros((3, 3)), np.zeros((3, 3))),
    }
    for preds in (dict(gts), {vid: (g.audio, g.visual) for vid, g in gts.items()}):
        with pytest.raises(DimensionError) as err:
            full_report(preds, gts)
        assert str(err.value) == (
            "video b has ground truth T x C = (3, 3), but the first video a has (2, 3); "
            "every video of a corpus needs the same T and C"
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0, -0.1], ids=["nan", "inf", "two", "negative"])
@pytest.mark.parametrize("modality", ["audio", "visual"])
def test_probabilities_must_be_finite_and_inside_the_unit_interval(bad, modality):
    gts = {vid: BinaryParse(np.zeros((2, 3)), np.ones((2, 3))) for vid in ("a", "b")}
    pair = {"audio": np.full((2, 3), 0.5), "visual": np.full((2, 3), 0.5)}
    pair[modality][1, 2] = bad
    pair = pair["audio"], pair["visual"]
    message = rf"{modality} probabilities hold a non-finite value or one outside \[0,1\]"
    with pytest.raises(ValueError, match=message):
        full_report({"a": pair, "b": (np.zeros((2, 3)), np.ones((2, 3)))}, gts)


def _raises_value_error(check, *args):
    """The message of the `ValueError` that `check(*args)` raises, or None if it returns."""
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@st.composite
def _label_inputs(draw):
    """Arrays of each label dtype near and around {0, 1}, some of them as nested lists."""
    dtype = draw(st.sampled_from((np.bool_, np.uint8, np.int64, np.float64)))
    if dtype is np.float64:
        elements = st.sampled_from([0.0, 1.0, -0.0, 0.5, 2.0, -1.0, np.nan, np.inf, 1.0 + 2**-52])
    elif dtype is np.bool_:
        elements = st.booleans()
    else:
        elements = st.integers(0 if dtype is np.uint8 else -3, 255 if dtype is np.uint8 else 3)
    shape = draw(st.tuples(st.integers(0, 3), st.integers(0, 4)) | st.tuples(st.integers(0, 5)))
    values = draw(arrays(dtype, shape, elements=elements))
    return values.tolist() if draw(st.booleans()) else values


@settings(max_examples=300, deadline=None)
@given(values=_label_inputs())
@example(values=np.array([], dtype=np.int64))
@example(values=np.zeros((0, 3), dtype=np.bool_))
@example(values=[])
@example(values=[[0, 1], [1, 2]])
@example(values=[[0, -1]])
@example(values=[0.5])
@example(values=[[1.0, float("nan")]])
@example(values=np.array([0, 255], dtype=np.uint8))
def test_as_binary_accepts_exactly_what_the_elementwise_test_accepts(values):
    """`as_binary` checks integers by their minimum and maximum; the reference is the
    elementwise test it used for every dtype before."""
    reference = np.asarray(values)
    accepted = bool(np.all((reference == 0) | (reference == 1)))
    message = _raises_value_error(as_binary, values, "weak label")
    if accepted:
        assert message is None
        result = as_binary(values, "weak label")
        assert result.dtype == np.int64 and np.array_equal(result, reference)
    else:
        assert message == "weak label must hold only 0 and 1"


_PROBABILITY_EDGES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1 + 1e-16, np.nextafter(1.0, 2.0), -5e-324, 0.5
]


@st.composite
def _probability_pairs(draw):
    shape = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    elements = st.sampled_from(_PROBABILITY_EDGES) | st.floats(allow_nan=True, allow_infinity=True)
    return tuple(draw(arrays(np.float64, shape, elements=elements)) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(pair=_probability_pairs())
@example(pair=(np.zeros((0, 4)), np.zeros((0, 4))))
@example(pair=(np.array([[-0.0, 0.0, 1.0, 1 + 1e-16]]), np.array([[1.0, 0.5, 0.0, -0.0]])))
@example(pair=(np.array([[0.5, 1.0]]), np.array([[0.0, np.nan]])))
@example(pair=(np.array([[-np.inf, 0.5]]), np.array([[np.inf, 0.5]])))
def test_probability_pair_accepts_exactly_what_the_elementwise_test_accepts(pair):
    """`probability_pair` checks each matrix by its minimum and maximum; the reference is
    the elementwise test it used before, which names the first faulty modality."""
    faulty = [name for name, p in zip(("audio", "visual"), pair) if not np.all((p >= 0.0) & (p <= 1.0))]
    message = _raises_value_error(probability_pair, *pair)
    if faulty:
        assert message == f"{faulty[0]} probabilities hold a non-finite value or one outside [0,1]"
    else:
        assert message is None
