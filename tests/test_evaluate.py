"""Inference at native length, score unfolding, and report assembly."""

import csv

import numpy as np
import pytest

from wsvad.attention import TsaConfig
from wsvad.evaluate import (
    EvalReport,
    ScoreTimeline,
    binary_auc_roc,
    evaluate_manifest,
    evaluate_records,
    frame_labels,
    infer_video,
    snippet_lengths,
    unfold_scores,
    video_frame_labels,
    write_frame_csv,
)
from wsvad.features import VideoRecord, load_records, temporal_normalize
from wsvad.metrics import auc_pr, auc_roc
from wsvad.model import init_model
from wsvad.synthetic import SyntheticConfig, generate_synthetic, load_ground_truth

from helpers import ref_unfold


class TestUnfoldScores:
    def test_two_snippets_exact(self):
        out = unfold_scores(np.array([1.0, 0.0]), 16, 32)
        assert out.tolist() == [1.0] * 16 + [0.0] * 16

    def test_remainder_padded_with_last(self):
        out = unfold_scores(np.array([1.0]), 16, 20)
        assert out.tolist() == [1.0] * 20

    def test_unit_snippet_is_identity(self):
        values = np.array([0.1, 0.7, 0.3])
        assert np.array_equal(unfold_scores(values, 1, 3), values)

    def test_overhang_truncated(self):
        out = unfold_scores(np.array([0.2, 0.9]), 16, 20)
        assert out.tolist() == [0.2] * 16 + [0.9] * 4

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            t_k = int(rng.integers(1, 20))
            delta = int(rng.integers(1, 25))
            # frame counts spanning truncation and padding regimes
            lo = delta * (t_k - 1)
            n = int(rng.integers(max(1, lo), delta * t_k + delta))
            values = rng.random(t_k)
            got = unfold_scores(values, delta, n)
            np.testing.assert_array_equal(got, ref_unfold(values, delta, n))

    def test_preserves_order_and_multiset(self):
        values = np.array([0.3, 0.9, 0.1, 0.5])
        out = unfold_scores(values, 4, 15)
        counts = {v: int(np.sum(out == v)) for v in values}
        assert counts == {0.3: 4, 0.9: 4, 0.1: 4, 0.5: 3}
        boundaries = [out[i * 4] for i in range(4)]
        assert boundaries == values.tolist()

    def test_inconsistent_frame_count_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            unfold_scores(np.array([0.1, 0.2, 0.3]), 16, 16)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unfold_scores(np.array([]), 4, 8)


# (values, snippet_len, frame_count): every regime of TestUnfoldScores, plus
# frame_count == snippet_len * (T - 1), where the last snippet covers no frame
UNFOLD_CASES = [
    ([1.0, 0.0], 16, 32),
    ([1.0], 16, 20),
    ([0.1, 0.7, 0.3], 1, 3),
    ([0.2, 0.9], 16, 20),
    ([0.3, 0.9, 0.1, 0.5], 4, 15),
    ([0.1, 0.2, 0.3], 16, 32),
    ([0.4], 1, 1),
]


class TestSnippetLengths:
    @pytest.mark.parametrize("values, delta, frames", UNFOLD_CASES)
    def test_repeat_by_lengths_is_unfold(self, values, delta, frames):
        values = np.array(values)
        lengths = snippet_lengths(values.size, delta, frames)
        assert lengths.sum() == frames
        assert (lengths[:-1] == delta).all() and lengths[-1] >= 0
        np.testing.assert_array_equal(np.repeat(values, lengths), unfold_scores(values, delta, frames))
        np.testing.assert_array_equal(np.repeat(values, lengths), ref_unfold(values, delta, frames))

    def test_last_snippet_may_cover_no_frame(self):
        assert snippet_lengths(3, 16, 32).tolist() == [16, 16, 0]

    @pytest.mark.parametrize(
        "args, match",
        [((3, 16, 16), "inconsistent"), ((0, 4, 8), "no snippet"), ((2, 0, 8), "positive"), ((2, 4, 0), "positive")],
    )
    def test_errors_match_unfold(self, args, match):
        with pytest.raises(ValueError, match=match):
            snippet_lengths(*args)
        with pytest.raises(ValueError, match=match):
            unfold_scores(np.zeros(args[0]), *args[1:])


class TestFrameLabels:
    def test_intervals_marked(self):
        got = frame_labels(10, [(2, 5), (7, 8)])
        assert got.tolist() == [0, 0, 1, 1, 1, 0, 0, 1, 0, 0]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            frame_labels(10, [(8, 12)])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eval_ds")
    cfg = SyntheticConfig(
        n_normal=6, n_abnormal=6, d=8, snippet_len=4,
        frame_range=(40, 80), eps_range=(2, 3), anomaly_shift=3.0, seed=13,
    )
    train_m, test_m = generate_synthetic(cfg, tmp)
    gt = load_ground_truth(tmp / "test" / "ground_truth.json")
    return tmp, test_m, gt


def fresh_model(d=8, seed=0, **tsa_kw):
    return init_model(d, TsaConfig(seed=seed, **tsa_kw), np.random.SeedSequence(seed))


class TestInferVideo:
    def test_timeline_shapes_and_ranges(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        tl = infer_video(rec, fresh_model(), np.random.default_rng(0))
        assert tl.snippet_scores.shape == (rec.num_snippets,)
        assert np.all((tl.snippet_scores > 0) & (tl.snippet_scores < 1))
        assert set(np.unique(tl.snippet_binary)) <= {0, 1}
        assert tl.frame_count == rec.frame_count and tl.snippet_len == rec.snippet_len
        assert tl.frame_scores.shape == (rec.frame_count,)

    def test_frame_scores_piecewise_constant(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        tl = infer_video(rec, fresh_model(), np.random.default_rng(0))
        for t in range(rec.num_snippets):
            seg = tl.frame_scores[t * 4 : (t + 1) * 4]
            if seg.size:
                assert np.all(seg == tl.snippet_scores[t])

    def test_deterministic_given_rng(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        model = fresh_model()
        a = infer_video(rec, model, np.random.default_rng(5))
        b = infer_video(rec, model, np.random.default_rng(5))
        assert np.array_equal(a.frame_scores, b.frame_scores)

    def test_native_length_equals_normalized_when_lengths_match(self, small_dataset):
        """Temporal resizing to the video's own length is the identity, so
        routing through it must not change the scores."""
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[1]
        model = fresh_model()
        direct = infer_video(rec, model, np.random.default_rng(3))
        resized = VideoRecord(
            rec.video_id, rec.label, rec.frame_count, rec.snippet_len,
            temporal_normalize(rec.features, rec.num_snippets),
        )
        routed = infer_video(resized, model, np.random.default_rng(3))
        assert np.array_equal(direct.frame_scores, routed.frame_scores)

    def test_width_mismatch_rejected(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        with pytest.raises(ValueError, match="width"):
            infer_video(rec, fresh_model(d=12), np.random.default_rng(0))


class TestEvaluateManifest:
    def test_report_fields_and_determinism(self, small_dataset):
        tmp, test_m, gt = small_dataset
        model = fresh_model()
        r1, tl1, masks = evaluate_manifest(test_m, tmp / "test", model, gt, eval_seed=1)
        r2, _, _ = evaluate_manifest(test_m, tmp / "test", model, gt, eval_seed=1)
        assert 0.0 <= r1.auc_roc <= 1.0 and 0.0 <= r1.auc_pr <= 1.0
        assert 0.0 <= r1.auc_roc_binary <= 1.0
        assert r1.num_videos == 12
        labels = np.concatenate(masks)
        assert [m.size for m in masks] == [tl.frame_count for tl in tl1]
        assert r1.num_frames == labels.size
        assert r1.positive_frames == int(labels.sum())
        # a timeline keeps snippet arrays only; frame arrays are derived
        for tl in tl1:
            held = [v for v in vars(tl).values() if isinstance(v, np.ndarray)]
            assert held and all(v.size <= tl.snippet_scores.size for v in held)
        assert r1.to_json() == r2.to_json()
        assert "wall_clock" not in r1.to_json()
        assert r1.wall_clock_sec > 0

    def test_untrained_model_near_chance(self, tmp_path):
        """Null model on a no-signal test set: scores are independent of the
        frame labels, so AUC concentrates near one half. (With the default
        planted shift, a random projection can align with the anomaly
        direction by luck, so only a loose bound applies there.)"""
        cfg = SyntheticConfig(n_normal=20, n_abnormal=20, anomaly_shift=0.0, seed=31)
        _, test_m = generate_synthetic(cfg, tmp_path / "null")
        gt = load_ground_truth(tmp_path / "null" / "test" / "ground_truth.json")
        aucs = []
        for seed in range(5):
            model = fresh_model(d=cfg.d, seed=seed)
            report, _, _ = evaluate_manifest(test_m, tmp_path / "null" / "test", model, gt, eval_seed=seed)
            aucs.append(report.auc_roc)
        assert all(0.35 <= a <= 0.65 for a in aucs), aucs

    def test_trained_model_localizes_planted_anomalies(self, tmp_path):
        """After successful training, abnormal snippets of a test video score
        higher on average than its normal snippets."""
        from wsvad.trainer import TrainConfig, train

        cfg = SyntheticConfig(n_normal=30, n_abnormal=30, seed=23)
        train_m, test_m = generate_synthetic(cfg, tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
        trained = train(
            train_m, tmp_path / "train",
            TrainConfig(t_len=16, epochs=120, tsa=TsaConfig(seed=0), seed=0),
        )
        records = load_records(test_m, tmp_path / "test")
        separated = 0
        abnormal = [r for r in records if r.label == 1]
        for i, rec in enumerate(abnormal):
            tl = infer_video(rec, trained.model, np.random.default_rng((0, i)))
            mask = frame_labels(rec.frame_count, gt[rec.video_id]).astype(bool)
            if tl.frame_scores[mask].mean() > tl.frame_scores[~mask].mean():
                separated += 1
        assert separated >= 0.9 * len(abnormal)

    def test_normal_video_absent_from_ground_truth_is_all_normal(self, small_dataset):
        tmp, test_m, gt = small_dataset
        records = load_records(test_m, tmp / "test")
        normal = next(r for r in records if r.label == 0)
        trimmed = {vid: spans for vid, spans in gt.items() if vid != normal.video_id}
        masks = video_frame_labels(records, trimmed)
        assert [m.tolist() for m in masks] == [m.tolist() for m in video_frame_labels(records, gt)]
        assert not masks[records.index(normal)].any()

    @pytest.mark.parametrize("abnormal_gt", ["missing", "empty"])
    def test_abnormal_video_without_intervals_rejected(self, small_dataset, abnormal_gt):
        tmp, test_m, gt = small_dataset
        vid = next(v.video_id for v in test_m.videos if v.label == 1)
        bad = {k: v for k, v in gt.items() if k != vid}
        if abnormal_gt == "empty":
            bad[vid] = []
        with pytest.raises(ValueError, match=f"abnormal video '{vid}'"):
            evaluate_manifest(test_m, tmp / "test", fresh_model(), bad)

    def test_out_of_range_interval_names_the_video(self, small_dataset):
        tmp, test_m, gt = small_dataset
        video = test_m.videos[0]
        bad = {**gt, video.video_id: [(0, video.frame_count + 1)]}
        with pytest.raises(ValueError, match=f"video '{video.video_id}': interval"):
            evaluate_manifest(test_m, tmp / "test", fresh_model(), bad)

    def test_unknown_ground_truth_id_rejected(self, small_dataset, tmp_path):
        tmp, test_m, gt = small_dataset
        bad = {**gt, "ghost_0001": [(0, 4)]}
        with pytest.raises(ValueError, match="'ghost_0001'"):
            evaluate_manifest(test_m, tmp / "test", fresh_model(), bad)

    def test_frame_csv_written(self, small_dataset, tmp_path):
        tmp, test_m, gt = small_dataset
        model = fresh_model()
        _, timelines, masks = evaluate_manifest(test_m, tmp / "test", model, gt, eval_seed=0)
        out = tmp_path / "frames.csv"
        write_frame_csv(out, timelines, masks)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "video_id,frame_idx,score,binary,label"
        assert len(lines) == 1 + sum(tl.frame_count for tl in timelines)
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == np.concatenate(masks).tolist()


class TestSnippetRunMetrics:
    """The report's areas come from weighted snippet entries; they must equal
    the frame-level definition exactly, also where a label boundary falls
    inside a snippet."""

    DELTA = 4
    # (frame_count, label, intervals): boundaries mid-snippet, partial last snippets
    VIDEOS = [
        (30, 1, [(3, 9), (14, 15), (29, 30)]),
        (23, 1, [(1, 2), (5, 22)]),
        (17, 0, []),
        (13, 1, [(0, 13)]),
        (9, 0, []),
        (41, 1, [(6, 7), (10, 11), (18, 37)]),
    ]

    def records_and_truth(self, d=8):
        rng = np.random.default_rng(4)
        records, gt = [], {}
        for k, (frames, label, intervals) in enumerate(self.VIDEOS):
            t_k = -(-frames // self.DELTA)
            features = rng.normal(size=(t_k, d)).astype(np.float32)
            records.append(VideoRecord(f"v{k}", label, frames, self.DELTA, features))
            if intervals:
                gt[f"v{k}"] = intervals
        return records, gt

    @pytest.mark.parametrize("tsa", [True, False])
    def test_report_equals_frame_level_oracle(self, tsa):
        records, gt = self.records_and_truth()
        assert any(frames % self.DELTA for frames, _, _ in self.VIDEOS)
        model = init_model(8, TsaConfig(seed=0), np.random.SeedSequence(0), tsa_enabled=tsa)
        report, timelines, masks = evaluate_records(records, model, gt, eval_seed=2)
        scores = np.concatenate([ref_unfold(tl.snippet_scores, tl.snippet_len, tl.frame_count) for tl in timelines])
        binary = (scores >= 0.5).astype(np.uint8)
        oracle_labels = np.concatenate([frame_labels(f, iv) for f, _, iv in self.VIDEOS])
        np.testing.assert_array_equal(np.concatenate(masks), oracle_labels)
        assert report.auc_roc == auc_roc(scores, oracle_labels)
        assert report.auc_pr == auc_pr(scores, oracle_labels)
        assert report.auc_roc_binary == auc_roc(binary, oracle_labels)
        assert report.num_frames == oracle_labels.size
        assert report.positive_frames == int(oracle_labels.sum())

    def test_tied_snippet_scores_across_videos(self):
        """Copies of one video score alike under attention off, so a tie group
        holds entries of several snippets, videos and labels at once."""
        records, gt = self.records_and_truth()
        base = records[0]
        twins = [VideoRecord(f"t{k}", 1, base.frame_count, self.DELTA, base.features) for k in range(3)]
        twin_gt = {"t0": [(0, 2)], "t1": [(2, 30)], "t2": [(5, 6), (9, 11)]}
        model = init_model(8, TsaConfig(seed=0), np.random.SeedSequence(0), tsa_enabled=False)
        report, timelines, masks = evaluate_records(records + twins, model, {**gt, **twin_gt})
        scores = np.concatenate([ref_unfold(tl.snippet_scores, tl.snippet_len, tl.frame_count) for tl in timelines])
        labels = np.concatenate(masks)
        assert np.unique(scores).size < scores.size // self.DELTA
        assert report.auc_roc == auc_roc(scores, labels)
        assert report.auc_pr == auc_pr(scores, labels)

    def test_binary_auc_from_totals_equals_entry_sort(self):
        """Four (binary, label) totals score the same bits as sorting every
        weighted entry, with some cells empty and every entry tied to others."""
        rng = np.random.default_rng(12)
        for case in range(200):
            n = int(rng.integers(2, 60))
            binary = (rng.random(n) < rng.choice([0.0, 0.3, 1.0])).astype(np.uint8)
            labels = (rng.random(n) < 0.5).astype(np.uint8)
            labels[:2] = [0, 1]
            weights = rng.integers(1, 1000, n).astype(np.int64)
            assert binary_auc_roc(binary, labels, weights) == auc_roc(binary, labels, weights), case
        with pytest.raises(ValueError, match="one positive and one negative"):
            binary_auc_roc(np.array([0, 1], np.uint8), np.array([1, 1], np.uint8), np.array([3, 4]))

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="no videos to evaluate"):
            evaluate_records([], fresh_model(), {})


def ref_write_frame_csv(path, timelines, masks):
    """One ``csv.writer`` row per frame, from the snippet scores unfolded frame
    by frame: the byte layout the writer must keep."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["video_id", "frame_idx", "score", "binary", "label"])
        for tl, labels in zip(timelines, masks):
            scores = ref_unfold(tl.snippet_scores, tl.snippet_len, tl.frame_count)
            for i in range(tl.frame_count):
                writer.writerow([tl.video_id, i, repr(float(scores[i])), int(scores[i] >= 0.5), int(labels[i])])


def assert_csv_matches_oracle(tmp_path, timelines, masks):
    write_frame_csv(tmp_path / "fast.csv", timelines, masks)
    ref_write_frame_csv(tmp_path / "ref.csv", timelines, masks)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestFrameCsvBytes:
    def test_byte_identical_to_per_frame_writer(self, tmp_path):
        rng = np.random.default_rng(30)
        ids = ['we,ird"id', "", "two words", "line\nbreak", "cr\rid", "plain"]
        timelines, masks = [], []
        for k, vid in enumerate(ids):
            frames = int(rng.integers(1, 90))
            snippets = rng.uniform(0, 1, -(-frames // 8))
            snippets[: min(4, snippets.size)] = [1e-7, -0.0, 0.0, 1.0 - 1e-7][: min(4, snippets.size)]
            label = k % 2
            timelines.append(ScoreTimeline(vid, label, snippets, 8, frames))
            masks.append(frame_labels(frames, [(0, frames // 2), (frames - 1, frames)] if label else []))
        # a last snippet that covers no frame, then one that covers 13 frames
        # with label changes past its first 8, each with overlapping and
        # adjacent intervals
        for vid, snippets, frames, intervals in [
            ("zero-last", [0.7, 0.2, 0.9], 16, [(2, 6), (4, 9), (9, 12), (12, 14)]),
            ("long-last", [0.3, 0.5], 21, [(2, 6), (4, 9), (17, 19), (19, 20)]),
        ]:
            timelines.append(ScoreTimeline(vid, 1, np.array(snippets), 8, frames))
            masks.append(frame_labels(frames, intervals))
        assert_csv_matches_oracle(tmp_path, timelines, masks)

    def test_evaluated_timelines_byte_identical(self, small_dataset, tmp_path):
        tmp, test_m, gt = small_dataset
        _, timelines, masks = evaluate_manifest(test_m, tmp / "test", fresh_model(), gt, eval_seed=0)
        assert_csv_matches_oracle(tmp_path, timelines, masks)

    def test_empty_timeline_list_writes_header_only(self, tmp_path):
        assert_csv_matches_oracle(tmp_path, [], [])
        assert (tmp_path / "fast.csv").read_bytes() == b"video_id,frame_idx,score,binary,label\r\n"

    def test_longest_video_last(self, tmp_path):
        frame_counts = [3, 1, 40, 2, 301]
        timelines = [
            ScoreTimeline(f"v{k}", 0, np.linspace(0.1, 0.9, -(-frames // 4)), 4, frames)
            for k, frames in enumerate(frame_counts)
        ]
        assert_csv_matches_oracle(tmp_path, timelines, [np.zeros(frames, np.uint8) for frames in frame_counts])

    def test_label_flips_inside_a_run_of_equal_scores(self, tmp_path):
        # every snippet scores alike, so only the snippet starts and the
        # label changes, some of them mid-snippet, cut the pieces
        tl = ScoreTimeline("v", 1, np.full(5, 0.625), 4, 20)
        assert_csv_matches_oracle(tmp_path, [tl], [frame_labels(20, [(3, 9), (15, 16)])])

    def test_length_mismatch_names_the_video(self, tmp_path):
        ok = ScoreTimeline("fine", 0, np.full(1, 0.2), 4, 4)
        short = ScoreTimeline("short-mask", 0, np.full(1, 0.2), 4, 4)
        with pytest.raises(ValueError, match="video 'short-mask': 4 frames but 3 labels"):
            write_frame_csv(tmp_path / "fast.csv", [ok, short], [np.zeros(4, np.uint8), np.zeros(3, np.uint8)])
