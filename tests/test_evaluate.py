"""Inference at native length, score unfolding, and report assembly."""

import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wsvad import evaluate
from wsvad.attention import TsaConfig
from wsvad.autograd import Tensor, no_grad
from wsvad.evaluate import (
    EvalReport,
    ScoreTimeline,
    binary_auc_roc,
    evaluate_manifest,
    frame_labels,
    infer_video,
    snippet_lengths,
    unfold_scores,
    video_frame_labels,
    write_frame_csv,
)
from wsvad.features import (
    MANIFEST_VERSION,
    DatasetManifest,
    FormatError,
    ManifestEntry,
    VideoRecord,
    load_records,
    save_features,
    temporal_normalize,
)
from wsvad.metrics import auc_pr, auc_roc
from wsvad.model import init_model, score_bag
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


def scored_alone(rec, model, rng):
    """``rec``'s timeline from a one-bag forward pass with noise from
    ``rng``: the reference that batched eval is held to."""
    with no_grad():
        return infer_video(rec, score_bag(model, Tensor(rec.features), tsa_rng=rng)[0].data)


class TestInferVideo:
    def test_timeline_shapes_and_ranges(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        tl = scored_alone(rec, fresh_model(), np.random.default_rng(0))
        assert tl.snippet_scores.shape == (rec.num_snippets,)
        assert np.all((tl.snippet_scores > 0) & (tl.snippet_scores < 1))
        assert set(np.unique(tl.snippet_binary)) <= {0, 1}
        assert tl.frame_count == rec.frame_count and tl.snippet_len == rec.snippet_len
        assert tl.frame_scores.shape == (rec.frame_count,)

    def test_frame_scores_piecewise_constant(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        tl = scored_alone(rec, fresh_model(), np.random.default_rng(0))
        for t in range(rec.num_snippets):
            seg = tl.frame_scores[t * 4 : (t + 1) * 4]
            if seg.size:
                assert np.all(seg == tl.snippet_scores[t])

    def test_deterministic_given_rng(self, small_dataset):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        model = fresh_model()
        a = scored_alone(rec, model, np.random.default_rng(5))
        b = scored_alone(rec, model, np.random.default_rng(5))
        assert np.array_equal(a.frame_scores, b.frame_scores)

    def test_native_length_equals_normalized_when_lengths_match(self, small_dataset):
        """Temporal resizing to the video's own length is the identity, so
        routing through it must not change the scores."""
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[1]
        model = fresh_model()
        direct = scored_alone(rec, model, np.random.default_rng(3))
        resized = VideoRecord(
            rec.video_id, rec.label, rec.frame_count, rec.snippet_len,
            temporal_normalize(rec.features, rec.num_snippets),
        )
        routed = scored_alone(resized, model, np.random.default_rng(3))
        assert np.array_equal(direct.frame_scores, routed.frame_scores)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_score_count_must_match_snippets(self, small_dataset, extra):
        tmp, test_m, _ = small_dataset
        rec = load_records(test_m, tmp / "test")[0]
        t_len = rec.num_snippets
        with pytest.raises(ValueError, match=f"video '{rec.video_id}': .* scores for {t_len} snippets"):
            infer_video(rec, np.full(t_len + extra, 0.5))


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
            tl = scored_alone(rec, trained.model, np.random.default_rng((0, i)))
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

    @pytest.mark.parametrize("abnormal_gt", ["missing", "empty", "zero-length", "normal-marked"])
    def test_abnormal_video_without_intervals_rejected(self, small_dataset, abnormal_gt):
        """Ground truth that contradicts a video's label names the video: an
        abnormal video whose intervals mark no frame, or a normal one whose
        intervals mark some."""
        tmp, test_m, gt = small_dataset
        label = 0 if abnormal_gt == "normal-marked" else 1
        vid = next(v.video_id for v in test_m.videos if v.label == label)
        bad = {k: v for k, v in gt.items() if k != vid}
        if abnormal_gt != "missing":
            bad[vid] = {"empty": [], "zero-length": [(3, 3)], "normal-marked": [(0, 8)]}[abnormal_gt]
        kind = "normal" if label == 0 else "abnormal"
        with pytest.raises(ValueError, match=f"^{kind} video '{vid}'"):
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
    def test_report_equals_frame_level_oracle(self, tmp_path, tsa):
        records, gt = self.records_and_truth()
        assert any(frames % self.DELTA for frames, _, _ in self.VIDEOS)
        model = init_model(8, TsaConfig(seed=0), np.random.SeedSequence(0), tsa_enabled=tsa)
        report, timelines, masks = evaluate_manifest(saved_split(records, tmp_path), tmp_path, model, gt, eval_seed=2)
        scores = np.concatenate([ref_unfold(tl.snippet_scores, tl.snippet_len, tl.frame_count) for tl in timelines])
        binary = (scores >= 0.5).astype(np.uint8)
        oracle_labels = np.concatenate([frame_labels(f, iv) for f, _, iv in self.VIDEOS])
        np.testing.assert_array_equal(np.concatenate(masks), oracle_labels)
        assert report.auc_roc == auc_roc(scores, oracle_labels)
        assert report.auc_pr == auc_pr(scores, oracle_labels)
        assert report.auc_roc_binary == auc_roc(binary, oracle_labels)
        assert report.num_frames == oracle_labels.size
        assert report.positive_frames == int(oracle_labels.sum())

    def test_tied_snippet_scores_across_videos(self, tmp_path):
        """Copies of one video score alike under attention off, so a tie group
        holds entries of several snippets, videos and labels at once."""
        records, gt = self.records_and_truth()
        base = records[0]
        twins = [VideoRecord(f"t{k}", 1, base.frame_count, self.DELTA, base.features) for k in range(3)]
        twin_gt = {"t0": [(0, 2)], "t1": [(2, 30)], "t2": [(5, 6), (9, 11)]}
        model = init_model(8, TsaConfig(seed=0), np.random.SeedSequence(0), tsa_enabled=False)
        manifest = saved_split(records + twins, tmp_path)
        report, timelines, masks = evaluate_manifest(manifest, tmp_path, model, {**gt, **twin_gt})
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


def split_of(counts: list[int], d: int, snippet_len: int = 4):
    """Records of the given snippet counts, normal and abnormal in turn,
    and their ground truth."""
    rng = np.random.default_rng(len(counts) + d)
    records, gt = [], {}
    for k, t_len in enumerate(counts):
        features = rng.normal(size=(t_len, d)).astype(np.float32)
        records.append(VideoRecord(f"v{k}", k % 2, t_len * snippet_len, snippet_len, features))
        if k % 2:
            gt[f"v{k}"] = [(0, snippet_len)]
    return records, gt


class TestBatchedEval:
    """``evaluate_manifest`` scores the videos of one snippet count as one
    multi-bag forward pass, and no video's scores can tell."""

    @pytest.mark.parametrize("tsa", [True, False])
    @pytest.mark.parametrize(
        "d, counts",
        [
            # five 130-snippet videos make two batches, of three and two
            (8, [1, 7, 1, 130, 16, 7, 130, 1, 130, 16, 130, 130, 7]),
            (512, [1, 5, 12, 33, 5, 1, 12, 33, 12, 5]),
        ],
    )
    def test_every_timeline_is_the_video_alone(self, tmp_path, d, counts, tsa):
        records, gt = split_of(counts, d)
        model = init_model(d, TsaConfig(num_samples=16), np.random.SeedSequence(d), tsa_enabled=tsa)
        _, timelines, _ = evaluate_manifest(saved_split(records, tmp_path), tmp_path, model, gt, eval_seed=4)
        for idx, (rec, tl) in enumerate(zip(records, timelines)):
            alone = scored_alone(rec, model, np.random.default_rng(np.random.SeedSequence((4, idx))))
            assert tl.video_id == rec.video_id
            assert tl.snippet_scores.tobytes() == alone.snippet_scores.tobytes(), rec.video_id

    def test_negative_eval_seed_rejected_before_any_work(self, monkeypatch, tmp_path):
        """The seed is checked first: an empty split and ground truth that
        fits no video still give the seed's error."""
        _, test_m = generate_synthetic(SyntheticConfig(n_normal=2, n_abnormal=2, d=8, seed=2), tmp_path)
        monkeypatch.setattr(evaluate, "load_records", None)  # reading anything would be a TypeError
        monkeypatch.setattr(evaluate, "_score_batch", None)  # scoring anything would be a TypeError
        for manifest in (test_m, replace(test_m, videos=[])):
            with pytest.raises(ValueError, match=r"^eval_seed must be non-negative, got -1$"):
                evaluate_manifest(manifest, tmp_path / "test", fresh_model(), {"nowhere": [(0, 4)]}, eval_seed=-1)

    def test_negative_eval_seed_rejected_before_any_file_is_read(self, monkeypatch, tmp_path):
        _, test_m = generate_synthetic(SyntheticConfig(n_normal=2, n_abnormal=2, d=8, seed=2), tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")

        def load_records(*args):
            raise AssertionError("evaluate_manifest read the feature files")

        monkeypatch.setattr(evaluate, "load_records", load_records)
        with pytest.raises(ValueError, match=r"^eval_seed must be non-negative, got -1$"):
            evaluate_manifest(test_m, tmp_path / "test", fresh_model(), gt, eval_seed=-1)

    # (id, manifest change, message)
    UP_FRONT = [
        ("other-width", {"d": 12}, r"^test split has width 12, checkpoint expects 8$"),
        ("no-videos", {"videos": []}, r"^no videos to evaluate: the split is empty$"),
    ]

    @pytest.mark.parametrize("change, message", [c[1:] for c in UP_FRONT], ids=[c[0] for c in UP_FRONT])
    def test_bad_input_rejected_before_any_file_is_read(self, monkeypatch, tmp_path, change, message):
        _, test_m = generate_synthetic(SyntheticConfig(n_normal=2, n_abnormal=2, d=8, seed=2), tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")

        def load_records(*args):
            raise AssertionError("evaluate_manifest read the feature files")

        monkeypatch.setattr(evaluate, "load_records", load_records)
        with pytest.raises(ValueError, match=message):
            evaluate_manifest(replace(test_m, **change), tmp_path / "test", fresh_model(), gt)

    def test_one_forward_pass_per_snippet_count_and_chunk(self, monkeypatch, tmp_path):
        records, gt = split_of([4, 9, 4, 200, 4, 200, 600, 200, 9, 600], 8)
        manifest = saved_split(records, tmp_path)
        calls, timelined = [], []
        score_bag, infer_video_ = evaluate.score_bag, evaluate.infer_video

        def counting_score_bag(model, features, bags=1, **kwargs):
            calls.append((features.shape[0], bags))
            return score_bag(model, features, bags, **kwargs)

        def counting_infer_video(record, *args, **kwargs):
            timelined.append(record.video_id)
            return infer_video_(record, *args, **kwargs)

        monkeypatch.setattr(evaluate, "score_bag", counting_score_bag)
        monkeypatch.setattr(evaluate, "infer_video", counting_infer_video)
        evaluate_manifest(manifest, tmp_path, fresh_model(), gt)
        # snippet counts in the order of their first video; at most 512 rows
        # a batch, so 200-snippet videos go two at a time and 600 alone
        assert calls == [(12, 3), (18, 2), (400, 2), (200, 1), (600, 1), (600, 1)]
        assert sorted(timelined) == sorted(rec.video_id for rec in records)

    def test_width_checked_before_stacking(self, monkeypatch, tmp_path):
        """A file whose width is not the manifest's fails its load, and a
        manifest whose width is not the model's fails before any load."""
        monkeypatch.setattr(evaluate, "score_bag", lambda *args, **kwargs: pytest.fail("stacked a batch"))
        records, _ = split_of([3, 3, 3], 8)
        records[1] = VideoRecord("wide", 1, 12, 4, np.zeros((3, 12), np.float32))
        manifest = saved_split(records, tmp_path / "file")
        with pytest.raises(FormatError, match=r"^video 'wide': feature width 12 != manifest d 8$"):
            evaluate_manifest(manifest, tmp_path / "file", fresh_model(), {"wide": [(0, 4)]})
        records, gt = split_of([3, 3, 3], 12)
        manifest = saved_split(records, tmp_path / "split")
        with pytest.raises(ValueError, match=r"^test split has width 12, checkpoint expects 8$"):
            evaluate_manifest(manifest, tmp_path / "split", fresh_model(), gt)


def saved_split(records: list[VideoRecord], directory) -> DatasetManifest:
    """``records`` written as a split's feature files in ``directory``,
    and the split's manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    for rec in records:
        save_features(rec.features, directory / f"{rec.video_id}.vadf")
    return DatasetManifest(
        MANIFEST_VERSION,
        records[0].features.shape[1],
        records[0].snippet_len,
        "test",
        [ManifestEntry(rec.video_id, f"{rec.video_id}.vadf", rec.label, rec.frame_count) for rec in records],
    )


def recorded_loads(monkeypatch) -> list[list[VideoRecord]]:
    """The records of each ``load_records`` call ``evaluate`` makes, in order."""
    calls, real = [], evaluate.load_records
    monkeypatch.setattr(evaluate, "load_records", lambda m, base: calls.append(real(m, base)) or calls[-1])
    return calls


class TestChunkedManifestEval:
    """``evaluate_manifest`` loads, scores and releases consecutive batches
    of at most ``EVAL_LOAD_BYTES`` feature bytes at a time, and gives what
    it gives with the whole split loaded at once."""

    # d=512: a 600-snippet video (1.2 MB) is a batch over the budget; the
    # 200-snippet ones go two to a batch, the 4- and 9-snippet ones share one
    COUNTS = [200, 4, 600, 200, 9, 200, 4, 600, 9, 200, 1]

    def test_each_load_holds_one_chunk_and_the_loads_cover_the_split_once(self, tmp_path, monkeypatch):
        records, gt = split_of(self.COUNTS, 512)
        manifest = saved_split(records, tmp_path)
        calls = recorded_loads(monkeypatch)
        evaluate_manifest(manifest, tmp_path, fresh_model(512, num_samples=4), gt)
        batches = evaluate.eval_batches(self.COUNTS)
        batch_of = {i: tuple(batch) for batch in batches for i in batch}
        assert len(calls) > 1
        for recs in calls:
            held = sum(rec.features.nbytes for rec in recs)
            in_calls = {batch_of[int(rec.video_id[1:])] for rec in recs}
            assert held <= evaluate.EVAL_LOAD_BYTES or len(in_calls) == 1, [rec.video_id for rec in recs]
        loaded = [rec.video_id for recs in calls for rec in recs]
        assert loaded == [f"v{i}" for batch in batches for i in batch]

    def test_peak_memory_does_not_grow_with_the_split(self, tmp_path):
        """Eight 64-snippet videos at d=512 are one batch of 512 rows and
        1 MiB of features; four times as many are four chunks of that."""
        model = fresh_model(512, num_samples=4)
        peaks = []
        for n in (8, 32):
            records, gt = split_of([64] * n, 512)
            manifest = saved_split(records, tmp_path / str(n))
            evaluate_manifest(manifest, tmp_path / str(n), model, gt)  # warm-up
            tracemalloc.start()
            try:
                evaluate_manifest(manifest, tmp_path / str(n), model, gt)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.3 * peaks[0], peaks

    @pytest.mark.parametrize("budget", ["one-batch", "mid-split", "whole-split"])
    def test_any_budget_gives_the_whole_split_result(self, tmp_path, monkeypatch, budget):
        counts = [4, 9, 4, 200, 4, 200, 600, 200, 9, 600, 1]
        records, gt = split_of(counts, 32)
        manifest = saved_split(records, tmp_path)
        model = fresh_model(32, num_samples=8)
        total = sum(rec.features.nbytes for rec in records)
        monkeypatch.setattr(evaluate, "EVAL_LOAD_BYTES", total)
        calls = recorded_loads(monkeypatch)
        whole = evaluate_manifest(manifest, tmp_path, model, gt, eval_seed=3)
        # the reference is one load_records call over every file
        assert [len(recs) for recs in calls] == [len(records)]
        calls.clear()
        limit = {"one-batch": 1, "mid-split": total // 2, "whole-split": total}[budget]
        monkeypatch.setattr(evaluate, "EVAL_LOAD_BYTES", limit)
        report, timelines, masks = evaluate_manifest(manifest, tmp_path, model, gt, eval_seed=3)
        # seven batches: the 4s, the 9s, two of the 200s, the third, each 600
        # and the 1; half the bytes cut them into 4+1+2
        assert len(calls) == {"one-batch": 7, "mid-split": 3, "whole-split": 1}[budget]
        assert report.to_json() == whole[0].to_json()
        assert [tl.snippet_scores.tobytes() for tl in timelines] == [tl.snippet_scores.tobytes() for tl in whole[1]]
        assert [m.tobytes() for m in masks] == [m.tobytes() for m in whole[2]]
