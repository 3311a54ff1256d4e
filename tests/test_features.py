"""Feature file format, temporal resizing, and manifest integrity."""

import dataclasses
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsvad.features import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    DatasetManifest,
    FormatError,
    ManifestEntry,
    VideoRecord,
    load_features,
    load_manifest,
    load_records,
    save_features,
    save_manifest,
    temporal_normalize,
)

from helpers import ref_temporal_normalize


class TestFeatureFile:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "a.vadf"
        save_features(feats, path)
        loaded = load_features(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded.view(np.uint32), feats.view(np.uint32))

    def test_wrong_magic_names_path(self, tmp_path):
        path = tmp_path / "bad.vadf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="bad.vadf"):
            load_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.vadf"
        save_features(np.zeros((3, 2), dtype=np.float32), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4])  # drop one float
        with pytest.raises(FormatError, match="payload"):
            load_features(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_path(self, tmp_path, value):
        feats = np.ones((3, 2), dtype=np.float32)
        feats[2, 1] = value
        path = tmp_path / "odd.vadf"
        save_features(feats, path)
        with pytest.raises(FormatError, match="odd.vadf: feature values hold NaN or Inf"):
            load_features(path)

    def test_huge_finite_values_load(self, tmp_path):
        # their sum of squares overflows float32; every value is still finite
        feats = np.full((3, 2), 3.4e38, dtype=np.float32)
        path = tmp_path / "huge.vadf"
        save_features(feats, path)
        assert np.array_equal(load_features(path), feats)

    def test_save_rejects_a_vector(self, tmp_path):
        with pytest.raises(FormatError, match=re.escape("features must be 2-d, got shape (3,)")):
            save_features(np.ones(3, dtype=np.float32), tmp_path / "v.vadf")

    def test_save_rejects_a_row_count_past_the_header(self, tmp_path):
        """(2**32, 0) holds no bytes, but its row count does not fit in a u32."""
        path = tmp_path / "wide.vadf"
        with pytest.raises(FormatError, match=re.escape("dimensions (4294967296, 0) overflow the u32 header")):
            save_features(np.zeros((2**32, 0), dtype=np.float32), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "t_k, d, payload",
        [
            (3, 2, 20),
            (1024, 1024, 8),
            (2**32 - 1, 2**32 - 1, 8),  # 7.4e19 bytes claimed
            (2, 2, 20),  # longer than claimed
            (0, 7, 4 << 20),  # 4 MiB where none is claimed
        ],
    )
    def test_payload_size_checked_before_any_allocation(self, tmp_path, t_k, d, payload):
        """The file's size is checked against its header before the loader
        allocates the claimed array or reads the payload."""
        path = tmp_path / "claim.vadf"
        path.write_bytes(struct.pack("<4sIII", FEATURE_MAGIC, FEATURE_VERSION, t_k, d) + bytes(payload))
        line = f"claim.vadf: payload holds {payload} bytes, header implies {t_k * d * 4}"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(line)):
                load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.vadf"
        path.write_bytes(b"VADF\x01")
        with pytest.raises(FormatError, match="header"):
            load_features(path)


class TestTemporalNormalize:
    def test_identity_when_lengths_match(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(4, 3)).astype(np.float32)
        out = temporal_normalize(feats, 4)
        assert np.array_equal(out, feats)

    def test_chunk_means(self):
        out = temporal_normalize(np.array([[1.0], [2.0], [3.0], [4.0]]), 2)
        assert out.ravel().tolist() == [1.5, 3.5]

    def test_nearest_index_upsampling(self):
        out = temporal_normalize(np.array([[1.0], [2.0]]), 4)
        assert out.ravel().tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            t_in = int(rng.integers(1, 98))
            d = int(rng.integers(1, 9))
            feats = rng.normal(size=(t_in, d)).astype(np.float32)
            got = temporal_normalize(feats, 32)
            want = ref_temporal_normalize(feats, 32)
            assert np.array_equal(got, want)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            temporal_normalize(np.zeros((0, 3), dtype=np.float32), 4)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            temporal_normalize(np.ones((3, 2), dtype=np.float32), 0)

    @given(
        t_in=st.integers(1, 60),
        t_out=st.integers(1, 60),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_within_column_bounds(self, t_in, t_out, d, seed):
        feats = np.random.default_rng(seed).normal(size=(t_in, d)).astype(np.float32)
        out = temporal_normalize(feats, t_out)
        assert out.shape == (t_out, d)
        assert np.all(out >= feats.min(axis=0) - 0.0)
        assert np.all(out <= feats.max(axis=0) + 0.0)

    @given(mult=st.integers(1, 6), t_out=st.integers(1, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_divisible_case_preserves_column_means(self, mult, t_out, seed):
        feats = np.random.default_rng(seed).normal(size=(t_out * mult, 3)).astype(np.float32)
        out = temporal_normalize(feats, t_out)
        np.testing.assert_allclose(
            out.mean(axis=0), feats.astype(np.float64).mean(axis=0), atol=1e-6
        )


def _write_split(tmp_path, d=4, snippet_len=8):
    rng = np.random.default_rng(3)
    entries = []
    for i, label in enumerate([0, 1]):
        frames = 30 + 9 * i
        t_k = -(-frames // snippet_len)
        feats = rng.normal(size=(t_k, d)).astype(np.float32)
        name = f"v{i}.vadf"
        save_features(feats, tmp_path / name)
        entries.append(ManifestEntry(f"v{i}", name, label, frames))
    manifest = DatasetManifest(1, d, snippet_len, "train", entries)
    save_manifest(manifest, tmp_path / "manifest.json")
    return manifest


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = _write_split(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded == manifest

    def test_referential_integrity(self, tmp_path):
        _write_split(tmp_path)
        loaded = load_manifest(tmp_path / "manifest.json")
        records = load_records(loaded, tmp_path)
        for rec in records:
            assert rec.features.shape[0] == -(-rec.frame_count // rec.snippet_len)
            assert rec.features.shape[1] == loaded.d

    def test_width_mismatch_rejected(self, tmp_path):
        manifest = _write_split(tmp_path)
        save_features(np.zeros((4, 9), dtype=np.float32), tmp_path / "v0.vadf")
        with pytest.raises(FormatError, match="width"):
            load_records(manifest, tmp_path)

    def test_snippet_count_mismatch_rejected(self, tmp_path):
        manifest = _write_split(tmp_path)
        save_features(np.zeros((2, 4), dtype=np.float32), tmp_path / "v0.vadf")
        with pytest.raises(FormatError):
            load_records(manifest, tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        manifest = _write_split(tmp_path)
        (tmp_path / "v0.vadf").unlink()
        with pytest.raises(OSError):
            load_records(manifest, tmp_path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": 1, "d": 4}))
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_duplicate_video_id_rejected(self, tmp_path):
        manifest = _write_split(tmp_path)
        manifest.videos[1].video_id = manifest.videos[0].video_id
        save_manifest(manifest, tmp_path / "manifest.json")
        with pytest.raises(FormatError, match="duplicate video id 'v0'"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("frames", [0, -5])
    def test_nonpositive_frame_count_rejected(self, tmp_path, frames):
        manifest = _write_split(tmp_path)
        manifest.videos[1].frame_count = frames
        save_manifest(manifest, tmp_path / "manifest.json")
        with pytest.raises(FormatError, match="'v1' has frame_count"):
            load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("field, value", [("frame_count", "many"), ("id", ["v", 0])])
    def test_malformed_video_field_rejected(self, tmp_path, field, value):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_manifest(path)

    @pytest.mark.parametrize("value", [7, None, ["feats/v0.vadf"]])
    def test_non_string_path_rejected(self, tmp_path, value):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][0]["path"] = value
        path.write_text(json.dumps(doc))
        message = f"manifest.json: video 'v0' field 'path' must be a string, got {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field, value",
        [("label", 0.9), ("label", "1"), ("label", True), ("frame_count", 40.7), ("frame_count", True)],
    )
    def test_non_integer_video_field_rejected(self, tmp_path, field, value):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][1][field] = value
        path.write_text(json.dumps(doc))
        message = f"manifest.json: video 'v1' field '{field}' must be an integer, got {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field, value", [("d", 32.9), ("d", 4.0), ("version", "1"), ("snippet_len", True), ("snippet_len", None)]
    )
    def test_non_integer_header_field_rejected(self, tmp_path, field, value):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        message = f"manifest.json: field '{field}' must be an integer, got {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("version", 2, "unsupported manifest version 2"),
            ("version", 0, "unsupported manifest version 0"),
            ("snippet_len", 0, "snippet_len 0 < 1"),
            ("d", 0, "d 0 < 1"),
            ("d", -4, "d -4 < 1"),
            ("split", [1, 2], r"field 'split' must be a string, got \[1, 2\]"),
            ("split", None, "field 'split' must be a string, got None"),
        ],
        ids=["version-2", "version-0", "snippet_len-0", "d-0", "d-negative", "split-list", "split-null"],
    )
    def test_invalid_header_value_rejected(self, tmp_path, field, value, message):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=rf"manifest.json: {message}"):
            load_manifest(path)

    def test_invalid_utf8_rejected(self, tmp_path):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        path.write_bytes(path.read_bytes().replace(b'"v0"', b'"v\xe8"'))
        with pytest.raises(FormatError, match="UTF-8"):
            load_manifest(path)

    def test_infinite_number_rejected(self, tmp_path):
        _write_split(tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][0]["frame_count"] = 1e999  # json writes Infinity
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_single_class_train_split_rejected(self, tmp_path):
        manifest = _write_split(tmp_path)
        # each class alone, then an empty split
        for labels, counts in (({0}, "1 normal, 0 abnormal"), ({1}, "0 normal, 1 abnormal"), (set(), "0 normal, 0 abnormal")):
            one_class = dataclasses.replace(manifest, videos=[v for v in manifest.videos if v.label in labels])
            save_manifest(one_class, tmp_path / "manifest.json")
            message = rf"manifest.json: train split needs both normal and abnormal videos \({counts}\)"
            with pytest.raises(FormatError, match=message):
                load_manifest(tmp_path / "manifest.json")

    def test_non_binary_label_reported_before_the_class_count(self, tmp_path):
        """A label of 2 leaves one class, but the label is what is wrong."""
        manifest = _write_split(tmp_path)
        manifest.videos[1].label = 2
        save_manifest(manifest, tmp_path / "manifest.json")
        with pytest.raises(FormatError, match="video 'v1' has non-binary label 2"):
            load_manifest(tmp_path / "manifest.json")


class TestVideoRecord:
    def test_snippet_count_validated(self):
        with pytest.raises(FormatError):
            VideoRecord("x", 0, 100, 16, np.zeros((3, 4), dtype=np.float32))

    def test_valid_record(self):
        rec = VideoRecord("x", 1, 100, 16, np.zeros((7, 4), dtype=np.float32))
        assert rec.num_snippets == 7
