"""Corrupted input files: every loader either loads or raises FormatError.

Each file is truncated at every byte offset, hit with seeded single-bit
flips, and spliced with a second valid file of its kind (a prefix of one
joined to a suffix of the other). Any exception other than FormatError (a
bare UnicodeDecodeError, struct.error, KeyError, ...) fails the test and
names the corruption. Every truncation is rejected, except that a JSON file
cut just before its trailing newline is still the whole document and loads
as the original.

The structural mutation table edits the decoded JSON of a valid manifest,
ground truth and checkpoint header instead: every field is deleted and
replaced by a value of every other JSON type, and the document, the videos
list and one video entry are replaced by non-objects. Each case loads to
the value it is listed with in ``LOADS``, or raises a FormatError that
starts with the file, names the video and the field, and holds no Python
exception text.
"""

import copy
import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from wsvad.attention import TsaConfig
from wsvad.features import (
    DatasetManifest,
    FormatError,
    ManifestEntry,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
)
from wsvad.model import init_model, load_checkpoint, save_checkpoint
from wsvad.synthetic import load_ground_truth

FLIPS = 3000
SPLICES = 500


def _vadc(path, seed):
    model = init_model(4, TsaConfig(num_samples=8 + seed), np.random.SeedSequence(seed), scorer_hidden=(3 + seed,))
    save_checkpoint(model, path)


def _vadf(path, seed):
    save_features(np.random.default_rng(seed).normal(size=(6 + seed, 4)).astype(np.float32), path)


def _manifest(path, seed):
    videos = [ManifestEntry(f"vid{i}", f"feats/vid{i}.vadf", i % 2, 40 + 7 * i) for i in range(4 + seed)]
    save_manifest(DatasetManifest(version=1, d=8, snippet_len=4, split="train", videos=videos), path)


def _ground_truth(path, seed):
    """A test split's intervals, written as ``generate_synthetic`` writes them."""
    intervals = {f"test_norm_{i:04d}": [] for i in range(2 + seed)}
    intervals.update({f"test_anom_{i:04d}": [[16 * i, 16 * i + 32 + seed]] for i in range(2 + seed)})
    path.write_text(json.dumps(intervals, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _corruptions(blob: bytes, other: bytes, seed: int):
    """FLIPS seeded single-bit flips, then SPLICES seeded splices of ``blob``
    with ``other``."""
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos = int(rng.integers(len(blob)))
        bit = int(rng.integers(8))
        flipped = bytearray(blob)
        flipped[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(flipped)
    for _ in range(SPLICES):
        head, tail = int(rng.integers(len(blob) + 1)), int(rng.integers(len(other) + 1))
        yield f"first {head} bytes spliced to the other file from byte {tail}", blob[:head] + other[tail:]


@pytest.mark.parametrize(
    "write, load, name",
    [
        (_vadc, load_checkpoint, "model.vadc"),
        (_vadf, load_features, "feats.vadf"),
        (_manifest, load_manifest, "manifest.json"),
        (_ground_truth, load_ground_truth, "ground_truth.json"),
    ],
    ids=["checkpoint", "features", "manifest", "ground_truth"],
)
def test_corrupt_file_loads_or_raises_format_error(tmp_path, write, load, name):
    path = tmp_path / name
    write(path, 1)
    other = path.read_bytes()
    write(path, 0)
    blob = path.read_bytes()
    original = load(path)

    def outcome(what, corrupt):
        """The loaded value, or None when the loader rejects the bytes."""
        path.write_bytes(corrupt)
        try:
            return load(path)
        except FormatError:
            return None
        except Exception as exc:  # noqa: BLE001 - any other type is the failure under test
            pytest.fail(f"{name} {what}: {type(exc).__name__}: {exc}")

    cuts = {cut: outcome(f"truncated to {cut} bytes", blob[:cut]) for cut in range(len(blob))}
    loaded_cuts = sorted(cut for cut, value in cuts.items() if value is not None)
    if name.endswith(".json"):
        # only the cut that drops the trailing newline keeps the whole document
        assert blob.endswith(b"\n") and loaded_cuts == [len(blob) - 1]
        assert cuts[len(blob) - 1] == original
    else:
        assert loaded_cuts == []
    loaded = sum(outcome(what, corrupt) is not None for what, corrupt in _corruptions(blob, other, seed=len(blob)))
    assert loaded > 0  # some flips hit payload bytes and still load


DELETE = object()
# a value of every JSON type
JSON_VALUES = {"null": None, "bool": True, "int": 7, "float": 2.5, "string": "x", "list": [1, 2], "object": {"a": 1}}
PYTHON_TEXT = ("indices must be", "KeyError", "TypeError", "not subscriptable", "has no attribute", "not iterable")


def _edited(doc, keys: tuple, value=DELETE):
    """A copy of ``doc`` with the entry at key path ``keys`` (the document
    itself when empty) set to ``value``, or deleted."""
    if not keys:
        return value
    doc = copy.deepcopy(doc)
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    if value is DELETE:
        del inner[keys[-1]]
    else:
        inner[keys[-1]] = value
    return doc


def _field_cases(doc, keys: tuple):
    """(case id, field name, mutated document) for each field of the object
    at ``keys``: deleted, then replaced by a value of every other JSON type."""
    obj = doc
    for key in keys:
        obj = obj[key]
    for field, value in obj.items():
        at = (*keys, field)
        name = ".".join(map(str, at))
        yield f"{name}-deleted", field, _edited(doc, at)
        for kind, new in JSON_VALUES.items():
            if type(new) is not type(value):
                yield f"{name}-{kind}", field, _edited(doc, at, new)


def _non_object_cases(doc, keys: tuple):
    """(case id, mutated document) with the object at ``keys`` replaced by a
    value of every other JSON type."""
    for kind, new in JSON_VALUES.items():
        if kind != "object":
            yield f"{'.'.join(map(str, keys)) or 'document'}-{kind}", _edited(doc, keys, new)


def _check_mutations(path, write, load, cases, loads):
    """Write each (case id, field name or None, texts the message must hold,
    document) case with ``write`` and load it: a case in ``loads`` must load
    to a value its check accepts, and any other must raise a FormatError
    that starts with the file and names the field and the texts, without
    Python's own exception text."""
    original = load(path)
    failures = []
    for case, field, where, doc in cases:
        write(doc)
        try:
            value = load(path)
        except FormatError as exc:
            message = str(exc)
            named = [w for w in where if w not in message]
            if field is not None and not re.search(rf"(?<!\w){re.escape(field)}(?!\w)", message):
                named.append(field)
            if case in loads or not message.startswith(f"{path}: ") or named:
                failures.append(f"{case}: {message} (not named: {named})")
            elif any(text in message for text in PYTHON_TEXT):
                failures.append(f"{case}: Python's own text in {message}")
        else:
            if case not in loads or not loads[case](original, value):
                failures.append(f"{case}: loaded {value!r}")
    assert not failures, "\n".join(failures)
    assert set(loads) <= {case for case, *_ in cases}


def test_every_manifest_mutation_names_its_video_and_field(tmp_path):
    path = tmp_path / "manifest.json"
    _manifest(path, 0)
    doc = json.loads(path.read_text())
    vid = doc["videos"][1]["id"]
    cases = [
        *[(case, None, ["manifest"], d) for case, d in _non_object_cases(doc, ())],
        *[(case, field, [], d) for case, field, d in _field_cases(doc, ())],
        *[(case, None, ["video 1"], d) for case, d in _non_object_cases(doc, ("videos", 1))],
        # a video is named by its id, and by its index when the id is the broken field
        *[(case, field, ["video 1" if field == "id" else f"video '{vid}'"], d)
          for case, field, d in _field_cases(doc, ("videos", 1))],
    ]
    # six non-objects twice, and per field its deletion and six other types
    assert len(cases) == 6 + 5 * 7 + 6 + 4 * 7
    _check_mutations(path, lambda d: path.write_text(json.dumps(d)), load_manifest, cases, {})


def test_every_ground_truth_mutation_names_its_video(tmp_path):
    path = tmp_path / "ground_truth.json"
    _ground_truth(path, 0)
    doc = json.loads(path.read_text())
    cases = [
        *[(case, None, ["ground truth"], d) for case, d in _non_object_cases(doc, ())],
        *[(case, None, [f"video '{vid}'"], d) for case, vid, d in _field_cases(doc, ())],
    ]

    def without(vid):
        return lambda orig, got: got == {k: v for k, v in orig.items() if k != vid}

    # a video left out of the ground truth is one without intervals
    loads = {f"{vid}-deleted": without(vid) for vid in doc}
    _check_mutations(path, lambda d: path.write_text(json.dumps(d)), load_ground_truth, cases, loads)


def test_every_checkpoint_header_mutation_names_its_field(tmp_path):
    path = tmp_path / "model.vadc"
    _vadc(path, 0)
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])

    def write(doc):
        new = json.dumps(doc).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len :])

    def same_but_sigma_noise_7(orig, got):
        params = zip(orig.named_params().items(), got.named_params().items())
        return got.tsa == dataclasses.replace(orig.tsa, sigma_noise=7) and all(
            a == b and np.array_equal(x.data, y.data) for (a, x), (b, y) in params
        )

    cases = [
        *[(case, None, ["checkpoint header"], d) for case, d in _non_object_cases(header, ())],
        *[(case, field, [], d) for keys in ((), ("tsa",)) for case, field, d in _field_cases(header, keys)],
    ]
    # an integer in a float field loads as that number (7 is out of range
    # for tsa.ratio, so only tsa.sigma_noise loads)
    _check_mutations(path, write, load_checkpoint, cases, {"tsa.sigma_noise-int": same_but_sigma_noise_7})
