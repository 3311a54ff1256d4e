"""Synthetic dataset generator: determinism, planted masks, validation."""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from wsvad.features import FormatError, load_manifest, load_records
from wsvad.synthetic import (
    SyntheticConfig,
    generate_synthetic,
    harder_config,
    load_ground_truth,
)


def small_cfg(**kw):
    base = dict(
        n_normal=10,
        n_abnormal=10,
        d=8,
        snippet_len=4,
        frame_range=(40, 80),
        eps_range=(2, 4),
        anomaly_shift=2.0,
        noise_std=1.0,
        seed=5,
    )
    base.update(kw)
    return SyntheticConfig(**base)


def all_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(small_cfg(), a)
        generate_synthetic(small_cfg(), b)
        files_a, files_b = all_files(a), all_files(b)
        assert [p.relative_to(a) for p in files_a] == [p.relative_to(b) for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert filecmp.cmp(pa, pb, shallow=False), pa.name

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic(small_cfg(seed=5), a)
        generate_synthetic(small_cfg(seed=6), b)
        diffs = [
            pa
            for pa, pb in zip(all_files(a), all_files(b))
            if not filecmp.cmp(pa, pb, shallow=False)
        ]
        assert diffs


class TestPlantedMasks:
    def test_mask_counts_match_eps_range(self, tmp_path):
        cfg = small_cfg()
        generate_synthetic(cfg, tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
        abnormal = {k: v for k, v in gt.items() if v}
        assert len(abnormal) == 10
        for vid, spans in abnormal.items():
            total = sum(e - s for s, e in spans)
            assert 2 * cfg.snippet_len <= total <= 4 * cfg.snippet_len
            assert total % cfg.snippet_len == 0

    def test_masks_are_snippet_aligned_and_in_range(self, tmp_path):
        cfg = small_cfg()
        _, test_m = generate_synthetic(cfg, tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
        frames = {v.video_id: v.frame_count for v in test_m.videos}
        for vid, spans in gt.items():
            for s, e in spans:
                assert 0 <= s < e <= frames[vid]
                assert s % cfg.snippet_len == 0 and e % cfg.snippet_len == 0

    def test_normal_videos_have_empty_masks(self, tmp_path):
        generate_synthetic(small_cfg(), tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
        for vid, spans in gt.items():
            assert ("norm" in vid) == (spans == [])

    def test_planted_rows_carry_the_shift(self, tmp_path):
        cfg = small_cfg(anomaly_shift=50.0)
        _, test_m = generate_synthetic(cfg, tmp_path)
        gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
        records = {r.video_id: r for r in load_records(test_m, tmp_path / "test")}
        for vid, spans in gt.items():
            rec = records[vid]
            mags = np.linalg.norm(rec.features, axis=1)
            planted = np.zeros(rec.num_snippets, dtype=bool)
            for s, e in spans:
                planted[s // cfg.snippet_len : e // cfg.snippet_len] = True
            if planted.any():
                assert mags[planted].min() > mags[~planted].max()


class TestNoSignalSymmetry:
    def test_zero_shift_distributions_match(self, tmp_path):
        cfg = small_cfg(anomaly_shift=0.0, n_normal=40, n_abnormal=40)
        _, test_m = generate_synthetic(cfg, tmp_path)
        records = load_records(test_m, tmp_path / "test")
        normal = np.concatenate([r.features.ravel() for r in records if r.label == 0])
        abnormal = np.concatenate([r.features.ravel() for r in records if r.label == 1])
        for arr in (normal, abnormal):
            assert abs(arr.mean()) < 0.05
            assert abs(arr.std() - 1.0) < 0.05


class TestValidation:
    def test_eps_must_fit_shortest_video(self):
        with pytest.raises(ValueError, match="eps_range"):
            small_cfg(frame_range=(6, 80), eps_range=(2, 4))

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            small_cfg(n_normal=0)

    @pytest.mark.parametrize("field", ["noise_std", "anomaly_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_noise_and_shift_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    def test_manifest_headers_consistent(self, tmp_path):
        cfg = small_cfg()
        train_m, test_m = generate_synthetic(cfg, tmp_path)
        for manifest, split in ((train_m, "train"), (test_m, "test")):
            loaded = load_manifest(tmp_path / split / "manifest.json")
            assert loaded == manifest
            load_records(loaded, tmp_path / split)  # raises on any mismatch

    def test_harder_config_is_lower_contrast(self):
        base = SyntheticConfig()
        hard = harder_config(base)
        assert hard.anomaly_shift < base.anomaly_shift
        assert hard.n_normal < base.n_normal


class TestLoadGroundTruth:
    @pytest.mark.parametrize(
        "doc,vid",
        [
            ({"v": 5}, "v"),
            ({"v": [[1, 2, 3]]}, "v"),
            ({"ok": [[0, 4]], "v": [[1]]}, "v"),
            ({"v": [[0, "4"]]}, "v"),
            ({"v": [[0.5, 4]]}, "v"),
            ({"v": [5, 6]}, "v"),
            ({"v": None}, "v"),
        ],
    )
    def test_malformed_intervals_name_file_and_video(self, tmp_path, doc, vid):
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"gt.json: video '{vid}'"):
            load_ground_truth(path)

    @pytest.mark.parametrize("text", ["[[0, 4]]", "{", "7"])
    def test_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "gt.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="gt.json"):
            load_ground_truth(path)

    def test_well_formed_file_round_trips(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text('{"a": [[0, 4], [8, 12]], "b": []}')
        assert load_ground_truth(path) == {"a": [(0, 4), (8, 12)], "b": []}
