"""Corrupted input files: every loader either loads or raises FormatError.

Each file is truncated at every byte offset, hit with seeded single-bit
flips, and spliced with a second valid file of its kind (a prefix of one
joined to a suffix of the other). Any exception other than FormatError (a
bare UnicodeDecodeError, struct.error, KeyError, ...) fails the test and
names the corruption. Every truncation is rejected, except that a JSON file
cut just before its trailing newline is still the whole document and loads
as the original.
"""

import json

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
