"""Huge but finite features: train and eval either succeed with finite
outputs or exit 1 naming where the values went non-finite, and nothing else
reaches stderr.

Each seeded case scales random feature rows of a small valid split so that
their largest entry is a power of ten up to 1e38, or 3.4e38, just under the
float32 maximum. It then runs ``wsvad train`` on the training split and
``wsvad eval`` on the test split in-process, under
``warnings.simplefilter("error")``, so a numpy warning would replace the
located error with one that names nothing.
"""

import csv
import json
import math
import re
import warnings

import numpy as np
import pytest

from wsvad.cli import main
from wsvad.features import load_features, load_manifest, save_features
from wsvad.model import load_checkpoint

from test_cli import FAST_TRAIN, gen

CASES = 12
SCALES = [10.0**k for k in range(0, 39)] + [3.4e38]
TRAIN_ERROR = re.compile(r"error: NumericsError: epoch \d+: batch videos ((?:'[^']+', )*'[^']+'): non-finite values produced by '[^']+' \(shape \([\d, ]*\)\)\n")
EVAL_ERROR = re.compile(r"error: NumericsError: video '([^']+)': non-finite values produced by '[^']+' \(shape \([\d, ]*\)\)\n")


def scale_rows(split_dir, rng) -> set[str]:
    """Scale one to three rows of one to two videos; returns their ids."""
    videos = load_manifest(split_dir / "manifest.json").videos
    hit = set()
    for v in rng.choice(len(videos), size=int(rng.integers(1, 3)), replace=False):
        entry = videos[v]
        feats = load_features(split_dir / entry.path)
        for row in rng.choice(feats.shape[0], size=min(feats.shape[0], int(rng.integers(1, 4))), replace=False):
            scale = SCALES[int(rng.integers(len(SCALES)))]
            feats[row] = feats[row] / np.abs(feats[row]).max() * np.float32(scale)
        save_features(feats, split_dir / entry.path)
        hit.add(entry.video_id)
    return hit


def run(argv, capsys) -> tuple[int, str]:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A valid split's feature files and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("fuzz_numerics")
    data = gen(root, "ds")
    assert main(["train", "--manifest", str(data / "train" / "manifest.json"),
                 "--out", str(root / "run"), "--seed", "0", *FAST_TRAIN]) == 0
    files = {p: p.read_bytes() for p in data.rglob("*.vadf")}
    return data, root / "run" / "checkpoint.vadc", files


@pytest.mark.parametrize("case", range(CASES))
def test_huge_features_succeed_or_name_where(clean, case, tmp_path, capsys):
    data, checkpoint, files = clean
    for path, blob in files.items():
        path.write_bytes(blob)
    rng = np.random.default_rng(case)
    scaled_train, scaled_test = scale_rows(data / "train", rng), scale_rows(data / "test", rng)
    capsys.readouterr()

    code, err = run(["train", "--manifest", str(data / "train" / "manifest.json"),
                     "--out", str(tmp_path / "run"), "--seed", str(case), *FAST_TRAIN], capsys)
    if code == 0:
        assert err == ""
        load_checkpoint(tmp_path / "run" / "checkpoint.vadc")  # rejects NaN and Inf
        with open(tmp_path / "run" / "train_log.csv", newline="") as fh:
            assert all(math.isfinite(float(row["loss"])) for row in csv.DictReader(fh))
    else:
        found = TRAIN_ERROR.fullmatch(err)
        assert code == 1 and found, f"case {case}, training on {sorted(scaled_train)}: {err!r}"
        assert len(found.group(1).split(", ")) == 4  # --batch 2: two bags of each class

    code, err = run(["eval", "--manifest", str(data / "test" / "manifest.json"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "ev"), "--seed", "0"], capsys)
    if code == 0:
        assert err == ""
        report = json.loads((tmp_path / "ev" / "report.json").read_text())
        assert all(math.isfinite(report[key]) for key in ("auc_roc", "auc_pr", "auc_roc_binary"))
        with open(tmp_path / "ev" / "frame_scores.csv", newline="") as fh:
            assert all(math.isfinite(float(row["score"])) for row in csv.DictReader(fh))
    else:
        found = EVAL_ERROR.fullmatch(err)
        assert code == 1 and found, f"case {case}, eval of {sorted(scaled_test)}: {err!r}"
        assert found.group(1) in scaled_test
