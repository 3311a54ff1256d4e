"""Snippet-feature containers, the on-disk formats, and temporal resizing.

Feature file layout (little-endian): magic ``VADF`` | format version u32 |
snippet count u32 | feature width u32 | count*width IEEE-754 float32,
row-major. A dataset split is described by a JSON manifest listing video
ids, relative feature paths, video-level labels, and frame counts.
``json_object`` and ``json_field`` check the manifest, the ground truth and
the checkpoint header alike: each rejection names the file, where the field
sits, the field, the JSON kind expected and the value found.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autograd import all_finite

FEATURE_MAGIC = b"VADF"
FEATURE_VERSION = 1
MANIFEST_VERSION = 1

_HEADER = struct.Struct("<4sIII")
_MAX_DIM = 2**32 - 1


class FormatError(ValueError):
    """An input file does not match its documented layout."""


_JSON_KINDS = {int: "an integer", bool: "a boolean", float: "a finite number", str: "a string", list: "a list"}
# the JSON kind of each type json.loads makes, looked up by exact type: a bool is never a number
_JSON_NAMES = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "list"}


def json_object(doc, path, what: str, names: list[str] | None = None) -> dict:
    """``doc`` if it is a JSON object, whose fields are exactly ``names``
    when they are given; otherwise a FormatError naming the file and
    ``what``, the object as the message calls it."""
    if not isinstance(doc, dict):
        kind = _JSON_NAMES.get(type(doc), type(doc).__name__)
        raise FormatError(f"{path}: {what} must be a JSON object, got {kind}")
    if names is not None and sorted(doc) != sorted(names):
        raise FormatError(f"{path}: {what} has fields {sorted(doc)}, expected {sorted(names)}")
    return doc


def json_field(obj: dict, key: str, kind: type, path, what: str = ""):
    """``obj[key]`` if it has JSON type ``kind``: that exact type, or for
    float an int or float (never a bool) within float range. A missing key or
    another type is a FormatError naming the file, ``what`` (the field as the
    message calls it, ``field '<key>'`` by default) and the value found."""
    what = what or f"field '{key}'"
    if key not in obj:
        raise FormatError(f"{path}: {what} is missing")
    value = obj[key]
    ok = type(value) in (int, float) and abs(value) <= sys.float_info.max if kind is float else type(value) is kind
    if not ok:
        raise FormatError(f"{path}: {what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def snippet_count(frame_count: int, snippet_len: int) -> int:
    """Snippets in a video of ``frame_count`` frames at ``snippet_len`` frames
    each: the last snippet covers the remainder."""
    return -(-frame_count // snippet_len)


@dataclass
class VideoRecord:
    """One video's snippet features plus its weak label."""

    video_id: str
    label: int
    frame_count: int
    snippet_len: int
    features: np.ndarray  # (T_k, d) float32

    def __post_init__(self) -> None:
        expected = snippet_count(self.frame_count, self.snippet_len)
        if self.features.shape[0] != expected:
            raise FormatError(
                f"video '{self.video_id}': {self.features.shape[0]} snippets but "
                f"{self.frame_count} frames at snippet length {self.snippet_len} "
                f"imply {expected}"
            )

    @property
    def num_snippets(self) -> int:
        return self.features.shape[0]


@dataclass
class ManifestEntry:
    video_id: str
    path: str
    label: int
    frame_count: int


@dataclass
class DatasetManifest:
    version: int
    d: int
    snippet_len: int
    split: str
    videos: list[ManifestEntry]


def save_features(features: np.ndarray, path: str | Path) -> None:
    """Write a (T_k, d) float32 matrix in the binary feature layout."""
    arr = np.ascontiguousarray(features, dtype=np.float32)
    if arr.ndim != 2:
        raise FormatError(f"features must be 2-d, got shape {arr.shape}")
    t_k, d = arr.shape
    if t_k > _MAX_DIM or d > _MAX_DIM:
        raise FormatError(f"dimensions {arr.shape} overflow the u32 header")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, t_k, d))
        fh.write(arr.astype("<f4").tobytes())


def load_features(path: str | Path) -> np.ndarray:
    """Read a feature file back into a (T_k, d) float32 matrix. The file's
    size must match its header before anything is allocated, and the payload
    is read straight into the returned array; a NaN or Inf value is a
    FormatError naming the file."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, t_k, d = _HEADER.unpack(head)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        expected = t_k * d * 4
        held = os.fstat(fh.fileno()).st_size - _HEADER.size
        if held == expected:
            feats = np.empty((t_k, d), dtype="<f4")
            buf = memoryview(feats).cast("B")
            held = 0
            while held < expected and (n := fh.readinto(buf[held:])):
                held += n
    if held != expected:
        raise FormatError(f"{path}: payload holds {held} bytes, header implies {expected}")
    feats = feats.astype(np.float32, copy=False)  # a no-op on little-endian hosts
    if not all_finite(feats):
        raise FormatError(f"{path}: feature values hold NaN or Inf")
    return feats


def temporal_normalize(features: np.ndarray, t_out: int) -> np.ndarray:
    """Resize a (T_k, d) snippet sequence to exactly ``t_out`` rows.

    Rows are averaged over contiguous non-overlapping chunks when shrinking
    (row i covers input rows [floor(T_k*i/t_out), floor(T_k*(i+1)/t_out))),
    and repeated by nearest lower index when growing.
    """
    feats = np.asarray(features)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise ValueError(f"expected a non-empty (T_k, d) matrix, got shape {feats.shape}")
    if t_out < 1:
        raise ValueError(f"target length must be positive, got {t_out}")
    t_in = feats.shape[0]
    wide = feats.astype(np.float64)
    out = np.empty((t_out, feats.shape[1]), dtype=np.float32)
    for i in range(t_out):
        lo = (t_in * i) // t_out
        hi = (t_in * (i + 1)) // t_out
        if hi <= lo:
            hi = lo + 1
        out[i] = wide[lo:hi].mean(axis=0)
    return out


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    doc = {
        "version": manifest.version,
        "d": manifest.d,
        "snippet_len": manifest.snippet_len,
        "split": manifest.split,
        "videos": [
            {
                "id": v.video_id,
                "path": v.path,
                "label": v.label,
                "frame_count": v.frame_count,
            }
            for v in manifest.videos
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a split's manifest; a broken rule is a FormatError naming the file
    and, for a video's field, the video (by id, or by index if the id is bad).
    The rules: a UTF-8 JSON object with integer version 1, d >= 1 and
    snippet_len >= 1, a string split and a videos list of objects, each a
    unique string id, a string path, a 0/1 label and an integer frame_count
    >= 1; at least one normal and one abnormal video. Other keys are ignored."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    json_object(doc, path, "manifest")
    version, d, snippet_len = (json_field(doc, key, int, path) for key in ("version", "d", "snippet_len"))
    if version != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version {version}")
    for key, value in (("d", d), ("snippet_len", snippet_len)):
        if value < 1:
            raise FormatError(f"{path}: {key} {value} < 1")
    split = json_field(doc, "split", str, path)
    videos: list[ManifestEntry] = []
    seen: set[str] = set()
    for i, v in enumerate(json_field(doc, "videos", list, path)):
        video_id = json_field(json_object(v, path, f"video {i}"), "id", str, path, f"video {i} field 'id'")
        at = f"video '{video_id}'"
        entry = ManifestEntry(video_id, *(
            json_field(v, key, kind, path, f"{at} field '{key}'")
            for key, kind in (("path", str), ("label", int), ("frame_count", int))
        ))
        if entry.label not in (0, 1):
            raise FormatError(f"{path}: {at} has non-binary label {entry.label}")
        if entry.frame_count < 1:
            raise FormatError(f"{path}: {at} has frame_count {entry.frame_count} < 1")
        if video_id in seen:
            raise FormatError(f"{path}: duplicate video id '{video_id}'")
        seen.add(video_id)
        videos.append(entry)
    abnormal = sum(v.label for v in videos)
    if not 0 < abnormal < len(videos):
        normal = len(videos) - abnormal
        raise FormatError(f"{path}: {split} split needs both normal and abnormal videos ({normal} normal, {abnormal} abnormal)")
    return DatasetManifest(version=version, d=d, snippet_len=snippet_len, split=split, videos=videos)


def load_records(manifest: DatasetManifest, base_dir: str | Path) -> list[VideoRecord]:
    """Load every referenced feature file, enforcing header consistency; a
    file that disagrees with its manifest entry is a FormatError naming the
    file and the video."""
    records = []
    for entry in manifest.videos:
        path = Path(base_dir) / entry.path
        feats = load_features(path)
        if feats.shape[1] != manifest.d:
            raise FormatError(f"{path}: video '{entry.video_id}': feature width {feats.shape[1]} != manifest d {manifest.d}")
        try:
            records.append(VideoRecord(entry.video_id, entry.label, entry.frame_count, manifest.snippet_len, feats))
        except FormatError as exc:  # the snippet count, which names the video
            raise FormatError(f"{path}: {exc}") from None
    return records

