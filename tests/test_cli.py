"""CLI surface: subcommands, outputs, exit codes, reproducibility.

Two tables hold the console script's contract: RERUNS, each command of
which writes the same bytes when run again with the same flags, and
BAD_INPUTS, each of which exits 1 with one located error line before it
makes --out. CI runs this module against the installed package too."""

import argparse
import dataclasses
import filecmp
import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad import cli, evaluate, features
from wsvad.attention import TsaConfig
from wsvad.cli import CHECKPOINT_FILENAME, main
from wsvad.features import load_features, load_manifest, save_features, snippet_count
from wsvad.model import init_model, load_checkpoint, save_checkpoint
from wsvad.synthetic import GROUND_TRUTH_FILENAME, SyntheticConfig, load_ground_truth
from wsvad.trainer import TrainConfig, train

from helpers import graph_nodes

GEN_FLAGS = [
    "--d", "8", "--delta", "4", "--n-normal", "6", "--n-abnormal", "6",
    "--frames", "40", "80", "--eps", "2", "3", "--shift", "3.0",
]
FAST_TRAIN = ["--epochs", "8", "--batch", "2", "--t", "8", "--samples", "16"]
# 2 x 8 bags of 32 snippets: 512 rows a step, of which the loss's top-alpha
# rows make 48. At d=128, unlike d=8, the gradients are large enough for the
# engine to restrict them to the rows the loss reaches
WIDE = ["--epochs", "4", "--batch", "8", "--t", "32", "--samples", "16"]
TRAIN_FLAGS_AT = {8: FAST_TRAIN, 128: WIDE}
# a valid value for each gen flag, none of them the default
GEN_FLAG_VALUES = {
    "seed": 4, "d": 12, "snippet_len": 8, "n_normal": 3, "n_abnormal": 5,
    "frame_range": (200, 300), "eps_range": (1, 4), "anomaly_shift": 2.5, "noise_std": 0.5,
}


def gen(tmp_path, name, seed="9", *flags):
    out = tmp_path / name
    assert main(["gen", "--out", str(out), "--seed", seed, *GEN_FLAGS, *flags]) == 0
    return out


def train_run(out: Path, data: Path, *flags) -> Path:
    manifest = data / "train" / "manifest.json"
    assert main(["train", "--manifest", str(manifest), "--out", str(out), "--seed", "1", *flags]) == 0
    return out


def all_files(root: Path):
    return sorted(p for p in root.rglob("*") if p.is_file())


def assert_rejected(capsys, argv, out: Path, line: str) -> None:
    """Bad input exits 1 with the one stderr line ``line`` (a regex), before
    it makes ``out``, which the command gets as --out."""
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(line + "\n", err), err
    assert not out.exists()


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    """The d=8 dataset most tests read, and a d=128 one for WIDE training."""
    tmp = tmp_path_factory.mktemp("cli_ds")
    return {8: gen(tmp, "ds"), 128: gen(tmp, "wide", "1", "--d", "128")}


@pytest.fixture(scope="module")
def dataset(datasets):
    return datasets[8]


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_ckpt") / CHECKPOINT_FILENAME
    save_checkpoint(init_model(8, TsaConfig(), np.random.SeedSequence(0)), path)
    return path


@pytest.fixture(scope="module")
def tsa_run(tmp_path_factory, dataset):
    return train_run(tmp_path_factory.mktemp("tsa") / "run", dataset, *FAST_TRAIN)


@pytest.fixture(scope="module")
def no_tsa_runs(tmp_path_factory, datasets):
    """A training with the attention off (--r 1.0) at each width, for the reruns."""
    tmp = tmp_path_factory.mktemp("no_tsa")
    return {d: train_run(tmp / str(d), data, *TRAIN_FLAGS_AT[d], "--r", "1.0") for d, data in datasets.items()}


TRAIN = ["train", "--manifest", "TRAIN", "--seed", "1"]
EVAL_TEST = ["eval", "--manifest", "TEST", "--seed", "1", "--checkpoint"]
SPLITS = ["--manifest", "TRAIN", "--test-manifest", "TEST"]
RUN_FILES, EVAL_FILES = [CHECKPOINT_FILENAME, "train_log.csv"], ["report.json", "frame_scores.csv"]
# (id, dataset width, argv, files compared); RUN and RUN_OFF are the
# checkpoints of a training with the attention on and off (--r 1.0)
RERUNS = [
    ("eval", 8, [*EVAL_TEST, "RUN"], EVAL_FILES),
    ("eval-no-tsa", 8, [*EVAL_TEST, "RUN_OFF"], EVAL_FILES),
    ("train", 8, [*TRAIN, *FAST_TRAIN], RUN_FILES),
    ("train-wide", 128, [*TRAIN, *WIDE], RUN_FILES),
    ("train-wide-no-tsa", 128, [*TRAIN, *WIDE, "--r", "1.0"], RUN_FILES),
    ("train-val", 8, [*TRAIN, *FAST_TRAIN, "--val-manifest", "TEST", "--val-every", "2"], RUN_FILES),
    ("sweep-r", 8, ["sweep-r", *SPLITS, "--seed", "1", "--r-grid", "0.5,1.0", *FAST_TRAIN], ["sweep_r.csv"]),
    ("ablate", 8, ["ablate", *SPLITS, "--seeds", "0,1", *FAST_TRAIN], ["ablate.csv"]),
]


class TestReruns:
    @pytest.mark.parametrize("d, argv, files", [row[1:] for row in RERUNS], ids=[row[0] for row in RERUNS])
    def test_rerun_writes_the_same_bytes(self, datasets, tsa_run, no_tsa_runs, tmp_path, d, argv, files):
        paths = {
            "TRAIN": datasets[d] / "train" / "manifest.json",
            "TEST": datasets[d] / "test" / "manifest.json",
            "RUN": tsa_run / CHECKPOINT_FILENAME,
            "RUN_OFF": no_tsa_runs[d] / CHECKPOINT_FILENAME,
        }
        for out in ("a", "b"):
            assert main([*(str(paths.get(a, a)) for a in argv), "--out", str(tmp_path / out)]) == 0
        for name in files:
            blob = (tmp_path / "a" / name).read_bytes()
            assert blob and blob == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("d", [8, 128])
    def test_full_ratio_leaves_the_scorer_untouched(self, datasets, tmp_path, monkeypatch, d):
        """At --r 1.0 the attention keeps every snippet with inclusion exactly
        1, so it is off: a step's graph is the 9 nodes of the context module,
        the classifier and the loss, with no scorer, selection or row scale,
        and the checkpoint's scorer is its initial draw, untouched even by
        weight decay."""
        nodes, backward = [], ag.backward

        def counting_backward(loss):
            nodes.append(graph_nodes(loss))
            backward(loss)

        monkeypatch.setattr(ag, "backward", counting_backward)
        run = train_run(tmp_path / "full", datasets[d], *TRAIN_FLAGS_AT[d], "--r", "1.0")
        assert nodes == [9] * int(TRAIN_FLAGS_AT[d][1])  # one step an epoch
        model = load_checkpoint(run / CHECKPOINT_FILENAME)
        initial = init_model(d, model.tsa, np.random.SeedSequence(1).spawn(4)[0]).named_params()
        scorer = [name for name in initial if name.startswith("scorer.")]
        assert scorer and all(np.array_equal(model.named_params()[n].data, initial[n].data) for n in scorer)


def set_feature(path, index, value) -> None:
    feats = load_features(path)
    feats[index] = value
    save_features(feats, path)


def no_training(monkeypatch) -> None:
    """A train that fails the row: the command's checks come before any epoch."""
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: pytest.fail("trained before the check"))


def keep_one_class(split: str, train_too: bool = False):
    """A set-up that drops the abnormal videos from the split's manifest (and
    from its ground truth, where it has one) and deletes the feature files of
    the rest, so that the row fails unless the command rejects the split
    before it reads a feature file; with ``train_too`` a training first also
    fails the row."""

    def set_up(monkeypatch) -> None:
        split_dir = Path("data") / split
        doc = json.loads((split_dir / "manifest.json").read_text())
        doc["videos"] = [v for v in doc["videos"] if v["label"] == 0]
        (split_dir / "manifest.json").write_text(json.dumps(doc))
        for video in doc["videos"]:
            (split_dir / video["path"]).unlink()
        truth = split_dir / GROUND_TRUTH_FILENAME
        if truth.exists():
            keep = {v["id"] for v in doc["videos"]}
            truth.write_text(json.dumps({k: s for k, s in json.loads(truth.read_text()).items() if k in keep}))
        if train_too:
            no_training(monkeypatch)

    return set_up


def poison_last_of_three(monkeypatch) -> None:
    """test_anom_0005 is last of the three 15-snippet test videos that eval
    scores as one batch, then again one by one once that batch overflows:
    one row of it set to 3e37, a finite float32 the loader accepts."""
    batch = [v.video_id for v in load_manifest(TEST_8).videos if -(-v.frame_count // 4) == 15]  # --delta 4
    assert len(batch) == 3 and batch[-1] == "test_anom_0005"
    set_feature("data/test/test_anom_0005.vadf", 8, 3e37)


def delete_last_scored(monkeypatch) -> None:
    """Eval loads one batch at a time, and the feature file of
    test_anom_0003, the one video of the last of its eight batches, is gone:
    the row fails unless the seven batches before it are scored first."""
    videos = load_manifest(TEST_8).videos
    batches = evaluate.eval_batches([snippet_count(v.frame_count, 4) for v in videos])  # --delta 4
    assert len(batches) == 8 and batches[-1] == [9] and videos[9].video_id == "test_anom_0003"
    Path("data/test/test_anom_0003.vadf").unlink()
    monkeypatch.setattr(evaluate, "EVAL_LOAD_BYTES", 1)
    scored, score_bag, load_records = [], evaluate.score_bag, evaluate.load_records
    monkeypatch.setattr(evaluate, "score_bag", lambda *args, **kwargs: scored.append(1) or score_bag(*args, **kwargs))

    def load_after_scoring(manifest, base_dir):
        if "test_anom_0003" in [v.video_id for v in manifest.videos] and len(scored) != 7:
            pytest.fail(f"{len(scored)} batches scored before the last one's load")
        return load_records(manifest, base_dir)

    monkeypatch.setattr(evaluate, "load_records", load_after_scoring)


def huge_classifier_weights(monkeypatch) -> None:
    """Every classifier weight 1e30: finite, so the checkpoint loads, but the
    classifier's second hidden layer overflows its pre-activation."""
    model = load_checkpoint("ckpt.vadc")
    for w in model.classifier.weights:
        w.data[...] = 1e30
    save_checkpoint(model, "ckpt.vadc")


def version_one_checkpoint(monkeypatch) -> None:
    """The checkpoint relabelled as format version 1, which no loader reads."""
    blob = Path("ckpt.vadc").read_bytes()
    Path("ckpt.vadc").write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])


def poison_val_video(monkeypatch) -> None:
    """Every feature of test_anom_0002 set to 3e38, a finite float32 the
    loader accepts but the first validation's forward pass overflows on."""
    set_feature("data/test/test_anom_0002.vadf", ..., 3e38)


def trillion_frame_video(monkeypatch) -> None:
    """test_norm_0001 listed at 10**12 frames while its file holds the
    snippets of its real frame count: eval must reach the file's error
    without building a frame mask of that length first."""
    doc = json.loads(Path(TEST_8).read_text())
    next(v for v in doc["videos"] if v["id"] == "test_norm_0001")["frame_count"] = 10**12
    Path(TEST_8).write_text(json.dumps(doc))


def d12_split_and_no_training(monkeypatch) -> None:
    """A d=12 dataset, and a train that fails the row: the width check
    comes before any epoch."""
    gen(Path("."), "d12", "9", "--d", "12")
    no_training(monkeypatch)


TRAIN_8, TEST_8, TEST_12 = "data/train/manifest.json", "data/test/manifest.json", "d12/test/manifest.json"
EVAL = ["eval", "--manifest", TEST_8, "--checkpoint", "ckpt.vadc"]
# a split of keep_one_class
ONE_CLASS = (
    r"error: FormatError: data/{0}/manifest\.json: {0} split needs both normal and abnormal videos "
    r"\(6 normal, 0 abnormal\)"
)
# (id, set-up, argv, the stderr line as a regex). Each runs in a directory
# that holds a copy of the d=8 dataset at data/ and an untrained checkpoint
# at ckpt.vadc, which the set-up may edit first.
BAD_INPUTS = [
    ("gen-delta", None, ["gen", "--delta", "0"], r"error: ValueError: --delta must be positive, got 0"),
    ("gen-eps", None, ["gen", *GEN_FLAGS, "--eps", "50", "60"],
     r"error: ValueError: --eps \(50, 60\) cannot fit: 40 frames give only 10 complete snippets of length 4"),
    ("train-t", None, ["train", "--manifest", TRAIN_8, "--t", "0"], r"error: ValueError: --t must be positive, got 0"),
    ("missing-manifest", None, ["eval", "--manifest", "missing.json", "--checkpoint", "ckpt.vadc"],
     r"error: FileNotFoundError: \[Errno 2\] No such file or directory: 'missing\.json'"),
    ("missing-checkpoint", None, ["eval", "--manifest", "data/test/manifest.json", "--checkpoint", "nope.vadc"],
     r"error: FileNotFoundError: \[Errno 2\] No such file or directory: 'nope\.vadc'"),
    ("nan-feature", lambda _: set_feature("data/train/train_anom_0002.vadf", (0, 0), np.nan),
     ["train", "--manifest", TRAIN_8, *FAST_TRAIN],
     r"error: FormatError: data/train/train_anom_0002\.vadf: feature values hold NaN or Inf"),
    ("overflow-last-of-three", poison_last_of_three, EVAL,
     r"error: NumericsError: video 'test_anom_0005': non-finite values produced by '\w+'.*"),
    ("missing-last-scored-feature", delete_last_scored, EVAL,
     r"error: FileNotFoundError: \[Errno 2\] No such file or directory: 'data/test/test_anom_0003\.vadf'"),
    # the one MLP op names itself, and the layer by its output's shape
    ("overflow-classifier-weight", huge_classifier_weights, EVAL,
     r"error: NumericsError: video 'test_norm_0000': non-finite values produced by 'linear' \(shape \(17, 32\)\)"),
    # the first Adam step puts every weight near 1e30, and the scorer's
    # second layer overflows in the next epoch
    ("overflow-lr", None, ["train", "--manifest", TRAIN_8, *FAST_TRAIN, "--lr", "1e30"],
     r"error: NumericsError: epoch 2: batch videos 'train_norm_0002', 'train_norm_0000', 'train_anom_0004', "
     r"'train_anom_0005': non-finite values produced by 'linear' \(shape \(32, 256\)\)"),
    ("one-class-train", keep_one_class("train"), ["train", "--manifest", TRAIN_8, *FAST_TRAIN],
     ONE_CLASS.format("train")),
    ("one-class-test", keep_one_class("test"), EVAL, ONE_CLASS.format("test")),
    ("one-class-train-val", keep_one_class("test", train_too=True),
     ["train", "--manifest", TRAIN_8, "--val-manifest", TEST_8, "--val-every", "1", *FAST_TRAIN],
     ONE_CLASS.format("test")),
    ("one-class-sweep-r", keep_one_class("test", train_too=True),
     ["sweep-r", "--manifest", TRAIN_8, "--test-manifest", TEST_8, *FAST_TRAIN], ONE_CLASS.format("test")),
    ("one-class-ablate", keep_one_class("test", train_too=True),
     ["ablate", "--manifest", TRAIN_8, "--test-manifest", TEST_8, *FAST_TRAIN], ONE_CLASS.format("test")),
    ("fractional-ground-truth",
     lambda _: Path("data/test/ground_truth.json").write_text('{"test_anom_0000": [[0, 1.5]]}'), EVAL,
     r"error: FormatError: data/test/ground_truth\.json: video 'test_anom_0000' needs a list of \[start, end\] "
     r"integer pairs, got \[\[0, 1\.5\]\]"),
    ("eval-frame-count-unconfirmed", trillion_frame_video, EVAL,
     r"error: FormatError: data/test/test_norm_0001\.vadf: video 'test_norm_0001': \d+ snippets but 1000000000000 "
     r"frames at snippet length 4 imply 250000000000"),
    ("checkpoint-version-1", version_one_checkpoint, EVAL,
     r"error: FormatError: ckpt\.vadc: unsupported checkpoint version 1"),
    ("sweep-r-width", d12_split_and_no_training, ["sweep-r", "--manifest", TRAIN_8, "--test-manifest", TEST_12],
     r"error: ValueError: --test-manifest has width 12, --manifest has width 8"),
    ("ablate-width", d12_split_and_no_training, ["ablate", "--manifest", TRAIN_8, "--test-manifest", TEST_12],
     r"error: ValueError: --test-manifest has width 12, --manifest has width 8"),
    ("train-val-width", d12_split_and_no_training,
     ["train", "--manifest", TRAIN_8, "--val-manifest", TEST_12, "--val-every", "20"],
     r"error: ValueError: --val-manifest has width 12, --manifest has width 8"),
    ("eval-width", d12_split_and_no_training, ["eval", "--manifest", TEST_12, "--checkpoint", "ckpt.vadc"],
     r"error: ValueError: test split has width 12, checkpoint expects 8"),
    # validation reads its feature files, so a missing one fails the first
    # validation, after epoch 1 trained
    ("missing-val-feature", lambda _: Path("data/test/test_norm_0001.vadf").unlink(),
     ["train", "--manifest", TRAIN_8, "--val-manifest", TEST_8, "--val-every", "1", *FAST_TRAIN],
     r"error: FileNotFoundError: \[Errno 2\] No such file or directory: 'data/test/test_norm_0001\.vadf'"),
    # the epoch and the validation video, and no training video
    ("overflow-val", poison_val_video,
     ["train", "--manifest", TRAIN_8, "--val-manifest", TEST_8, "--val-every", "1", *FAST_TRAIN],
     r"error: NumericsError: epoch 1: validation: video 'test_anom_0002': non-finite values produced by "
     r"'conv1d_dilated' \(shape \(14, 2\)\)"),
]


class TestBadInputs:
    @pytest.mark.parametrize("set_up, argv, line", [row[1:] for row in BAD_INPUTS], ids=[row[0] for row in BAD_INPUTS])
    def test_exits_one_naming_the_input_before_out(
        self, dataset, untrained_checkpoint, tmp_path, monkeypatch, capsys, set_up, argv, line
    ):
        shutil.copytree(dataset, tmp_path / "data")
        shutil.copy(untrained_checkpoint, tmp_path / "ckpt.vadc")
        monkeypatch.chdir(tmp_path)
        if set_up:
            set_up(monkeypatch)
        assert_rejected(capsys, argv, tmp_path / "out", line)


class TestGen:
    def test_writes_both_splits(self, tmp_path, capsys):
        out = gen(tmp_path, "ds")
        assert (out / "train" / "manifest.json").exists()
        assert (out / "test" / "manifest.json").exists()
        assert (out / "test" / "ground_truth.json").exists()
        assert not (out / "train" / "ground_truth.json").exists()
        assert "12 train" in capsys.readouterr().out

    def test_same_seed_byte_identical(self, tmp_path):
        a = gen(tmp_path, "a")
        b = gen(tmp_path, "b")
        fa, fb = all_files(a), all_files(b)
        assert [p.relative_to(a) for p in fa] == [p.relative_to(b) for p in fb]
        assert all(filecmp.cmp(x, y, shallow=False) for x, y in zip(fa, fb))

    @pytest.mark.parametrize(
        "flag, values, message",
        [
            ("--n-normal", ["0"], "must be positive, got 0"),
            ("--n-abnormal", ["0"], "must be positive, got 0"),
            ("--d", ["0"], "must be positive, got 0"),
            ("--delta", ["0"], "must be positive, got 0"),
            ("--frames", ["50", "10"], "must satisfy 1 <= LO <= HI, got (50, 10)"),
            ("--eps", ["3", "1"], "must satisfy 1 <= LO <= HI, got (3, 1)"),
            ("--shift", ["-1"], "must be non-negative and finite, got -1.0"),
            ("--noise-std", ["0"], "must be positive and finite, got 0.0"),
            ("--seed", ["-1"], "must be non-negative, got -1"),
            ("--shift", ["nan"], "must be non-negative and finite, got nan"),
        ],
    )
    def test_option_error_names_the_flag(self, tmp_path, capsys, flag, values, message):
        line = re.escape(f"error: ValueError: {flag} {message}")
        assert_rejected(capsys, ["gen", *GEN_FLAGS, flag, *values], tmp_path / "x", line)

    @pytest.mark.parametrize("flag, field", [row[:2] for row in cli.GEN_FLAGS], ids=[row[1] for row in cli.GEN_FLAGS])
    def test_flag_reaches_the_config(self, tmp_path, monkeypatch, capsys, flag, field):
        """Every gen flag fills its own config field and no other; a flag the
        parser accepts and drops fails here."""
        configs = []

        def stop(cfg, out_dir):
            configs.append(cfg)
            raise RuntimeError("stop before generating")

        monkeypatch.setattr(cli, "generate_synthetic", stop)
        value = GEN_FLAG_VALUES[field]
        argv = [str(v) for v in value] if isinstance(value, tuple) else [str(value)]
        assert main(["gen", "--out", str(tmp_path / "ds"), flag, *argv]) == 1
        assert capsys.readouterr().err == "error: RuntimeError: stop before generating\n"
        assert configs == [dataclasses.replace(SyntheticConfig(), **{field: value})]
        assert configs[0] != SyntheticConfig()


class TestDefaults:
    """Each flag's default comes from the config field it fills, so a
    subcommand given only its required flags builds the default configs."""

    def parse(self, *argv):
        return cli.build_parser().parse_args(list(argv))

    def test_gen(self):
        assert cli._synthetic_config(self.parse("gen", "--out", "o")) == SyntheticConfig()

    @pytest.mark.parametrize("command", ["train", "sweep-r"])
    def test_train_and_sweep_r(self, command):
        argv = ["--manifest", "m", "--out", "o"] + (["--test-manifest", "t"] if command == "sweep-r" else [])
        # sweep-r has no --r; each run's ratio comes from --r-grid
        ratio = TrainConfig().tsa.ratio if command == "sweep-r" else None
        assert cli._train_config(self.parse(command, *argv), ratio=ratio) == TrainConfig()

    def test_ablate(self):
        args = self.parse("ablate", "--manifest", "m", "--test-manifest", "t", "--out", "o")
        assert cli._train_config(args, seed=TrainConfig().seed) == TrainConfig()


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, tsa_run):
        assert (tsa_run / CHECKPOINT_FILENAME).exists()
        log = (tsa_run / "train_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,loss,val_auc"
        assert len(log) == 9

    def test_eval_outputs_report_and_csv(self, dataset, tsa_run, tmp_path):
        ev = tmp_path / "ev"
        code = main([
            "eval", "--manifest", str(dataset / "test" / "manifest.json"),
            "--checkpoint", str(tsa_run / CHECKPOINT_FILENAME),
            "--out", str(ev), "--seed", "3",
        ])
        assert code == 0
        report = json.loads((ev / "report.json").read_text())
        assert 0.0 <= report["auc_roc"] <= 1.0
        assert report["eval_seed"] == 3
        assert report["pr_convention"] == "average_precision"
        header = (ev / "frame_scores.csv").read_text().splitlines()[0]
        assert header == "video_id,frame_idx,score,binary,label"

    def test_eval_prints_frames_and_seconds(self, dataset, untrained_checkpoint, tmp_path, capsys):
        """The summary line gives the split's frame total and the seconds
        the evaluation took, which no output file holds."""
        manifest = dataset / "test" / "manifest.json"
        code = main([
            "eval", "--manifest", str(manifest), "--checkpoint", str(untrained_checkpoint),
            "--out", str(tmp_path / "ev"), "--seed", "0",
        ])
        assert code == 0
        frames = sum(v.frame_count for v in load_manifest(manifest).videos)
        line = r"AUC@ROC \d\.\d{4}  AUC@PR \d\.\d{4}  \(%d frames, \d+\.\d\ds\)\n" % frames
        assert re.fullmatch(line, capsys.readouterr().out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--manifest", "MISSING", "--checkpoint", "CKPT"],
            ["eval", "--manifest", "TEST", "--checkpoint", "CKPT", "--ground-truth", "MISSING"],
            ["train", "--manifest", "MISSING"],
            ["train", "--manifest", "TRAIN", "--val-manifest", "MISSING", "--val-every", "1"],
            ["sweep-r", "--manifest", "TRAIN", "--test-manifest", "MISSING"],
            ["ablate", "--manifest", "MISSING", "--test-manifest", "TEST"],
            ["train", "--manifest", "BROKEN"],
            ["sweep-r", "--manifest", "BROKEN", "--test-manifest", "TEST"],
            ["ablate", "--manifest", "BROKEN", "--test-manifest", "TEST"],
        ],
        ids=["eval", "eval-ground-truth", "train", "train-val", "sweep-r", "ablate", "train-features",
             "sweep-r-features", "ablate-features"],
    )
    def test_missing_input_leaves_no_out(self, dataset, untrained_checkpoint, tmp_path, capsys, argv):
        """A command that cannot read its inputs exits 1 before it makes --out.
        BROKEN is a training split whose manifest names a feature file that
        is not there; only training reads it."""
        paths = {
            "TRAIN": dataset / "train" / "manifest.json",
            "TEST": dataset / "test" / "manifest.json",
            "CKPT": untrained_checkpoint,
            "MISSING": tmp_path / "nope.json",
            "BROKEN": tmp_path / "broken" / "manifest.json",
        }
        missing = "nope.json"
        if "BROKEN" in argv:
            shutil.copytree(dataset / "train", tmp_path / "broken")
            gone = load_manifest(paths["BROKEN"]).videos[-1].path
            (tmp_path / "broken" / gone).unlink()
            missing = gone
        out = tmp_path / "out"
        assert main([*(str(paths.get(a, a)) for a in argv), "--out", str(out)]) == 1
        assert missing in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, split, value", [("train", "train", np.nan), ("eval", "test", np.inf)], ids=["train-nan", "eval-inf"]
    )
    def test_non_finite_features_leave_no_out(
        self, dataset, untrained_checkpoint, tmp_path, capsys, command, split, value
    ):
        """A feature file that holds one NaN or one Inf exits 1 naming the
        file, before --out is made."""
        corrupt = shutil.copytree(dataset / split, tmp_path / split)
        path = corrupt / load_manifest(corrupt / "manifest.json").videos[2].path
        set_feature(path, (len(load_features(path)) // 2, 0), value)
        extra = ["--checkpoint", str(untrained_checkpoint)] if command == "eval" else FAST_TRAIN
        argv = [command, "--manifest", str(corrupt / "manifest.json"), *extra]
        line = re.escape(f"error: FormatError: {path}: feature values hold NaN or Inf")
        assert_rejected(capsys, argv, tmp_path / "out", line)


class TestEvalGroundTruth:
    def _eval(self, dataset, checkpoint, *extra):
        return ["eval", "--manifest", str(dataset / "test" / "manifest.json"), "--checkpoint", str(checkpoint), *extra]

    def test_ground_truth_read_once(self, dataset, untrained_checkpoint, tmp_path, monkeypatch):
        calls = []
        real = cli.load_ground_truth
        monkeypatch.setattr(cli, "load_ground_truth", lambda path: calls.append(path) or real(path))
        assert main([*self._eval(dataset, untrained_checkpoint), "--out", str(tmp_path / "ev")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("defect", ["abnormal_without_intervals", "unknown_id"])
    def test_bad_ground_truth_exits_one_naming_the_id(self, dataset, untrained_checkpoint, tmp_path, capsys, defect):
        gt = json.loads((dataset / "test" / "ground_truth.json").read_text())
        if defect == "unknown_id":
            vid = "ghost_0000"
            gt[vid] = [[0, 4]]
            line = f"ground truth names video '{vid}', which is not in the manifest"
        else:
            vid = next(k for k, spans in sorted(gt.items()) if spans)
            del gt[vid]
            line = f"abnormal video '{vid}' has no frame inside its ground-truth intervals"
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        argv = self._eval(dataset, untrained_checkpoint, "--ground-truth", str(gt_path))
        assert_rejected(capsys, argv, tmp_path / "ev", re.escape(f"error: ValueError: {line}"))

    @pytest.mark.parametrize("intervals", [5, [[1, 2, 3]], [[0, 100000]]])
    def test_malformed_ground_truth_exits_one_naming_the_video(
        self, dataset, untrained_checkpoint, tmp_path, capsys, intervals
    ):
        gt = json.loads((dataset / "test" / "ground_truth.json").read_text())
        vid = sorted(gt)[0]
        gt[vid] = intervals
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        if intervals == [[0, 100000]]:
            line = re.escape(f"error: ValueError: video '{vid}': interval [0, 100000) outside 0..") + r"\d+"
        else:
            line = re.escape(f"error: FormatError: {gt_path}: video '{vid}' needs a list of [start, end] integer "
                             f"pairs, got {intervals}")
        argv = self._eval(dataset, untrained_checkpoint, "--ground-truth", str(gt_path))
        assert_rejected(capsys, argv, tmp_path / "ev", line)

    def test_empty_split_exits_one_saying_so(self, dataset, untrained_checkpoint, tmp_path, capsys):
        manifest = json.loads((dataset / "test" / "manifest.json").read_text())
        manifest["videos"] = []
        empty = tmp_path / "empty"
        (empty / "test").mkdir(parents=True)
        (empty / "test" / "manifest.json").write_text(json.dumps(manifest))
        (empty / "test" / "ground_truth.json").write_text("{}")
        line = re.escape(
            f"error: FormatError: {empty / 'test' / 'manifest.json'}: test split needs both normal and abnormal videos "
            "(0 normal, 0 abnormal)"
        )
        assert_rejected(capsys, self._eval(empty, untrained_checkpoint), tmp_path / "ev", line)


def poison_one_row(split_dir: Path, video: int = 0) -> str:
    """Set one feature row of a video to 3e37, a finite float32 the loader
    accepts but the forward pass overflows on; returns the video's id."""
    entry = load_manifest(split_dir / "manifest.json").videos[video]
    path = split_dir / entry.path
    set_feature(path, len(load_features(path)) // 2, 3e37)
    return entry.video_id


class TestLocatedNumericsErrors:
    """A forward pass that overflows exits 1 naming where: the video in eval,
    the epoch and the batch's videos in training, and the epoch and the
    video in validation (BAD_INPUTS[overflow-val]). No numpy warning comes
    first (pytest turns every RuntimeWarning into an error)."""

    def test_eval_names_the_video(self, dataset, tmp_path, untrained_checkpoint, capsys):
        """Eval scores the videos of one snippet count as one batch; a batch
        that overflows is scored again one video at a time, so the error
        names the video whether it is first in its batch or alone (last of
        three is BAD_INPUTS[overflow-last-of-three])."""
        for video, batch_size in [(3, 2), (1, 1)]:
            split = shutil.copytree(dataset / "test", tmp_path / f"test{video}")
            counts = [-(-v.frame_count // 4) for v in load_manifest(split / "manifest.json").videos]
            assert counts.count(counts[video]) == batch_size  # --delta 4
            vid = poison_one_row(split, video=video)
            argv = ["eval", "--manifest", str(split / "manifest.json"), "--checkpoint", str(untrained_checkpoint)]
            line = rf"error: NumericsError: video '{vid}': non-finite values produced by '\w+'.*"
            assert_rejected(capsys, argv, tmp_path / f"ev{video}", line)

    def test_train_names_the_epoch_and_the_batch(self, tmp_path, capsys):
        data = gen(tmp_path, "ds")
        vid = poison_one_row(data / "train")
        # --batch 6 draws every one of the 6 videos of each class each epoch
        code = main([
            "train", "--manifest", str(data / "train" / "manifest.json"),
            "--out", str(tmp_path / "run"), "--seed", "1", *FAST_TRAIN, "--batch", "6",
        ])
        assert code == 1
        err = capsys.readouterr().err
        found = re.match(r"error: NumericsError: epoch \d+: batch videos (.*?): non-finite values produced by ", err)
        assert found, err
        batch = found.group(1).split(", ")
        assert len(batch) == 12 and f"'{vid}'" in batch


# (flag, bad value, the message that follows the flag)
OPTION_ERRORS = [
    ("--t", "0", "must be positive, got 0"),
    ("--batch", "0", "must be positive, got 0"),
    ("--epochs", "0", "must be positive, got 0"),
    ("--alpha", "9", "must be in [1, 8], got 9"),
    ("--lr", "-1", "must be non-negative and finite, got -1.0"),
    ("--weight-decay", "inf", "must be non-negative and finite, got inf"),
    ("--margin", "-1", "must be non-negative and finite, got -1.0"),
    ("--samples", "0", "must be >= 1, got 0"),
    ("--r", "2", "must be in (0, 1], got 2.0"),
    ("--sigma-noise", "0", "must be positive and finite, got 0.0"),
    ("--seed", "-1", "must be non-negative, got -1"),
]


class TestBadOptions:
    @pytest.mark.parametrize("flag, field", [("--sigma-noise", "sigma_noise"), ("--margin", "margin")])
    def test_nan_option_exits_one_naming_it(self, dataset, tmp_path, capsys, flag, field):
        """A NaN option is rejected, naming the flag rather than the config
        field it fills, before training starts, not blamed on the first
        batch's videos once it has made a gradient non-finite."""
        out = tmp_path / "run"
        code = main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out),
            *FAST_TRAIN, flag, "nan",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {flag} must be ") and err.endswith(", got nan\n"), err
        assert f" {field} " not in err
        assert not out.exists()

    # sweep-r takes its ratios from --r-grid, so --r is checked by train and
    # ablate only; ablate takes --seeds, checked with eval's --seed below
    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (command, *case)
            for command in ("train", "sweep-r", "ablate")
            for case in OPTION_ERRORS
            if (command, case[0]) not in {("sweep-r", "--r"), ("ablate", "--seed")}
        ],
    )
    def test_option_error_names_the_flag(self, dataset, tmp_path, capsys, command, flag, value, message):
        argv = [command, "--manifest", str(dataset / "train" / "manifest.json"), *FAST_TRAIN, flag, value]
        if command != "train":
            argv += ["--test-manifest", str(dataset / "test" / "manifest.json")]
        assert_rejected(capsys, argv, tmp_path / "run", re.escape(f"error: ValueError: {flag} {message}"))

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("ablate", "--seeds", ","),
            ("ablate", "--seeds", ""),
            ("ablate", "--seeds", "1,x"),
            ("ablate", "--seeds", "0.5"),
            ("sweep-r", "--r-grid", ""),
            ("sweep-r", "--r-grid", " , "),
            ("sweep-r", "--r-grid", "0.5,half"),
        ],
    )
    def test_bad_list_exits_one_naming_the_flag(self, dataset, tmp_path, capsys, command, flag, value):
        """An empty or malformed list is an error before any run, not a
        mean over no seeds or a header-only CSV."""
        argv = [
            command, "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"), *FAST_TRAIN, flag, value,
        ]
        kind = "int" if flag == "--seeds" else "float"
        line = f"error: ValueError: {flag} takes a non-empty comma-separated list of {kind} values, got {value!r}"
        assert_rejected(capsys, argv, tmp_path / "run", re.escape(line))

    @pytest.mark.parametrize("command, flag", [("eval", "--seed"), ("ablate", "--seeds")])
    def test_negative_seed_names_the_flag(self, dataset, untrained_checkpoint, tmp_path, capsys, command, flag):
        """A negative seed is an error naming the flag before anything is
        written, not numpy's unlocated one from the first generator it seeds."""
        argv = [command, "--manifest", str(dataset / "train" / "manifest.json"), flag, "-1"]
        if command == "eval":
            argv += ["--checkpoint", str(untrained_checkpoint)]
        else:
            argv += ["--test-manifest", str(dataset / "test" / "manifest.json"), *FAST_TRAIN]
        line = re.escape(f"error: ValueError: {flag} must be non-negative, got -1")
        assert_rejected(capsys, argv, tmp_path / "run", line)

    @pytest.mark.parametrize(
        "command, flag", [("sweep-r", "--r"), ("sweep-r", "--no-tsa"), ("ablate", "--no-tsa"), ("train", "--no-tsa")]
    )
    def test_flag_the_command_would_ignore_is_a_usage_error(self, capsys, command, flag):
        """sweep-r takes its ratios from --r-grid and ablate runs the attention
        both on and off, so neither accepts a flag it would drop; nor may
        `--r` pass as an abbreviation of `--r-grid`. No command has
        `--no-tsa`: `--r 1.0` turns the attention off."""
        splits = ["--manifest", "m"] + (["--test-manifest", "t"] if command != "train" else [])
        argv = [command, *splits, "--out", "o", flag]
        assert main(argv + (["0.5"] if flag == "--r" else [])) == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_out_of_range_grid_ratio_names_the_grid(self, dataset, tmp_path, capsys):
        """Each ratio of the grid is checked before the first run, and an
        error names --r-grid, not --r."""
        argv = [
            "sweep-r", "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"), *FAST_TRAIN, "--r-grid", "0.5,1.5",
        ]
        line = re.escape("error: ValueError: --r-grid must be in (0, 1], got 1.5")
        assert_rejected(capsys, argv, tmp_path / "run", line)


SUBCOMMANDS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# a valid value for each training flag, none of them the default
FLAG_VALUES = {
    "t_len": "5", "batch_bags": "3", "epochs": "2", "lr": "0.002", "weight_decay": "0.01", "alpha": "2",
    "margin": "50", "num_samples": "7", "ratio": "0.5", "sigma_noise": "0.1", "seed": "4",
}
# the flag of each training field: the table's, and --seed, which fills both seeds
TRAIN_FLAG_OF = {field: flag for flag, field, _ in cli.TRAIN_FLAGS} | {"seed": "--seed"}


class TestFlagsReachTheConfig:
    """Every training flag a command accepts is in the config its first run
    trains with; a flag it accepts and drops fails here."""

    def first_config(self, dataset, tmp_path, monkeypatch, command, *flags) -> TrainConfig:
        configs = []

        def stop(manifest, base_dir, cfg, **kwargs):
            configs.append(cfg)
            raise RuntimeError("stop before training")

        monkeypatch.setattr(cli, "train", stop)
        argv = [command, "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(tmp_path / "run")]
        if command != "train":
            argv += ["--test-manifest", str(dataset / "test" / "manifest.json")]
        assert main([*argv, *flags]) == 1
        return configs[0]

    @pytest.mark.parametrize(
        "command, field",
        [
            (command, field)
            for command in ("train", "sweep-r", "ablate")
            for field, flag in TRAIN_FLAG_OF.items()
            if flag in SUBCOMMANDS[command]._option_string_actions
        ],
    )
    def test_flag_reaches_the_config(self, dataset, tmp_path, monkeypatch, capsys, command, field):
        cfg = self.first_config(dataset, tmp_path, monkeypatch, command, TRAIN_FLAG_OF[field], FLAG_VALUES[field])
        assert capsys.readouterr().err == "error: RuntimeError: stop before training\n"
        owner, default = (cfg, TrainConfig()) if hasattr(cfg, field) else (cfg.tsa, TrainConfig().tsa)
        value = getattr(owner, field)
        assert value == type(value)(FLAG_VALUES[field]) != getattr(default, field)


def recorded_eval_loads(monkeypatch, split_dir: Path) -> list[list[str]]:
    """Eval loads one batch at a time (``EVAL_LOAD_BYTES`` = 1); returns the
    video ids of each ``evaluate.load_records`` call, and fails the test
    when a feature file of ``split_dir`` is read outside one."""
    calls, inside = [], []
    load_records, load_features = evaluate.load_records, features.load_features

    def recorded_load_records(manifest, base_dir):
        calls.append([v.video_id for v in manifest.videos])
        inside.append(True)
        try:
            return load_records(manifest, base_dir)
        finally:
            inside.pop()

    def checked_load_features(path):
        if Path(path).parent == split_dir and not inside:
            pytest.fail(f"{path} read outside evaluate.load_records")
        return load_features(path)

    monkeypatch.setattr(evaluate, "EVAL_LOAD_BYTES", 1)
    monkeypatch.setattr(evaluate, "load_records", recorded_load_records)
    monkeypatch.setattr(features, "load_features", checked_load_features)
    return calls


def one_batch_loads(split_dir: Path, evaluations: int) -> list[list[str]]:
    """The video ids of each load ``evaluations`` evaluations of the split
    make at one batch a load."""
    manifest = load_manifest(split_dir / "manifest.json")
    counts = [snippet_count(v.frame_count, manifest.snippet_len) for v in manifest.videos]
    batches = evaluate.eval_batches(counts)
    assert len(batches) > 1
    return [[manifest.videos[i].video_id for i in batch] for batch in batches] * evaluations


class TestValidation:
    def test_validation_split_loaded_once(self, dataset, tmp_path, monkeypatch):
        """The manifest and ground truth are read once; each validation reads
        the feature files through ``evaluate_manifest``, one chunk a load,
        and ``cli`` reads none itself. The logged AUCs equal a fresh
        evaluation of the model at that epoch."""
        test_dir = dataset / "test"
        args = cli.build_parser().parse_args([
            "train", "--manifest", str(dataset / "train" / "manifest.json"),
            "--out", str(tmp_path / "x"), "--seed", "1", *FAST_TRAIN, "--epochs", "5",
        ])
        expected = train(
            load_manifest(dataset / "train" / "manifest.json"), dataset / "train", cli._train_config(args),
            val_fn=lambda model: evaluate.evaluate_manifest(
                load_manifest(test_dir / "manifest.json"), test_dir, model,
                load_ground_truth(test_dir / GROUND_TRUTH_FILENAME), eval_seed=1,
            )[0].auc_roc,
            val_every=1,
        )

        loads = recorded_eval_loads(monkeypatch, test_dir)
        gt_reads = []
        real_gt = cli.load_ground_truth
        monkeypatch.setattr(cli, "load_ground_truth", lambda path: gt_reads.append(path) or real_gt(path))
        out = tmp_path / "run"
        code = main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out),
            "--seed", "1", *FAST_TRAIN, "--epochs", "5",
            "--val-manifest", str(test_dir / "manifest.json"), "--val-every", "1",
        ])
        assert code == 0
        assert loads == one_batch_loads(test_dir, 5) and len(gt_reads) == 1
        rows = (out / "train_log.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [repr(r["val_auc"]) for r in expected.log]


    @pytest.mark.parametrize(
        "flags", [["--val-manifest", "VAL"], ["--val-manifest", "VAL", "--val-every", "-2"], ["--val-every", "2"]]
    )
    def test_validation_flags_must_come_together(self, dataset, tmp_path, capsys, flags):
        """A validation split that is never scored, or a validation period
        with nothing to score, is an error rather than an empty column."""
        val = str(dataset / "test" / "manifest.json")
        out = tmp_path / "run"
        code = main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out),
            *FAST_TRAIN, *[val if f == "VAL" else f for f in flags],
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--val-manifest" in err and "--val-every" in err
        assert not out.exists()


class TestOneClassSplit:
    """BAD_INPUTS' one-class rows drop a split's abnormal videos; eval
    rejects a split with no normal video the same way, before it reads a
    feature file (this one names two that do not exist), and makes no
    --out."""

    @pytest.mark.parametrize("command", ["eval"])
    def test_exits_one_before_any_work(self, untrained_checkpoint, tmp_path, capsys, command):
        bad = tmp_path / "one_class" / "manifest.json"
        bad.parent.mkdir()
        videos = [{"id": f"v{i}", "path": f"missing_{i}.vadf", "label": 1, "frame_count": 40} for i in range(2)]
        bad.write_text(json.dumps({"version": 1, "d": 8, "snippet_len": 4, "split": "test", "videos": videos}))
        argv = [command, "--manifest", str(bad), "--checkpoint", str(untrained_checkpoint)]
        line = f"error: FormatError: {bad}: test split needs both normal and abnormal videos (0 normal, 2 abnormal)"
        assert_rejected(capsys, argv, tmp_path / "out", re.escape(line))


class TestSweepAndAblate:
    def test_sweep_r(self, dataset, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main([
            "sweep-r", "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"),
            "--out", str(out), "--seed", "1", "--r-grid", "0.5,1.0", *FAST_TRAIN,
        ])
        assert code == 0
        lines = (out / "sweep_r.csv").read_text().strip().splitlines()
        assert lines[0] == "r,auc_roc,auc_pr"
        assert len(lines) == 3
        assert "best r" in capsys.readouterr().out

    def test_ablate(self, dataset, tmp_path, capsys):
        out = tmp_path / "ab"
        code = main([
            "ablate", "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"),
            "--out", str(out), "--seeds", "0,1", *FAST_TRAIN,
        ])
        assert code == 0
        lines = (out / "ablate.csv").read_text().strip().splitlines()
        assert lines[0] == "seed,auc_tsa_on,auc_tsa_off,delta"
        assert len(lines) == 3
        assert "mean delta" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep-r", "ablate"])
    def test_test_split_loaded_once(self, dataset, tmp_path, monkeypatch, capsys, command):
        """The test manifest and ground truth are read once; each run's
        evaluation reads the feature files through ``evaluate_manifest``,
        one chunk a load, and ``cli`` reads none itself. The logged AUCs
        equal a fresh evaluation of each run's model."""
        flags = ["--r-grid", "0.5,1.0"] if command == "sweep-r" else ["--seeds", "0,1"]
        test_dir = dataset / "test"
        runs = []  # (model, seed) per run

        def recorded_train(manifest, base_dir, cfg):
            result = train(manifest, base_dir, cfg)
            runs.append((result.model, cfg.seed))
            return result

        monkeypatch.setattr(cli, "train", recorded_train)
        loads = recorded_eval_loads(monkeypatch, test_dir)
        gt_reads = []
        real_gt = cli.load_ground_truth
        monkeypatch.setattr(cli, "load_ground_truth", lambda path: gt_reads.append(path) or real_gt(path))
        code = main([
            command, "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"),
            "--out", str(tmp_path / "run"), *flags, *FAST_TRAIN,
        ])
        assert code == 0
        capsys.readouterr()
        assert len(runs) == (2 if command == "sweep-r" else 4)
        assert loads == one_batch_loads(test_dir, len(runs)) and len(gt_reads) == 1
        monkeypatch.undo()
        manifest, truth = load_manifest(test_dir / "manifest.json"), load_ground_truth(test_dir / GROUND_TRUTH_FILENAME)
        expected = [
            repr(evaluate.evaluate_manifest(manifest, test_dir, model, truth, eval_seed=seed)[0].auc_roc)
            for model, seed in runs
        ]
        rows = (tmp_path / "run" / f"{command.replace('-', '_')}.csv").read_text().split()[1:]
        # sweep-r logs one AUC a run, ablate two a seed, attention on then off
        logged = [v for row in rows for v in row.split(",")[1 : 2 if command == "sweep-r" else 3]]
        assert logged == expected


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        assert main(["gen", "--nonsense"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_args_exits_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestReadme:
    def test_quickstart_commands_parse(self):
        """Each `wsvad` command of README's CLI quickstart, its `\\`
        continuations joined, parses with the CLI's own parser, so a README
        that names a removed or renamed flag fails here."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI quickstart", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("wsvad ")]
        parser = cli.build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README quickstart command does not parse: {line}")
        assert sorted(shlex.split(line)[1] for line in commands) == sorted(SUBCOMMANDS)
