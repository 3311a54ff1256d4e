"""CLI surface: subcommands, outputs, exit codes, reproducibility."""

import argparse
import dataclasses
import filecmp
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from wsvad import cli, evaluate
from wsvad.attention import TsaConfig
from wsvad.cli import main
from wsvad.features import load_features, load_manifest, save_features
from wsvad.model import init_model, save_checkpoint
from wsvad.synthetic import GROUND_TRUTH_FILENAME, SyntheticConfig, load_ground_truth
from wsvad.trainer import TrainConfig, train

GEN_FLAGS = [
    "--d", "8", "--delta", "4", "--n-normal", "6", "--n-abnormal", "6",
    "--frames", "40", "80", "--eps", "2", "3", "--shift", "3.0",
]
FAST_TRAIN = ["--epochs", "8", "--batch", "2", "--t", "8", "--samples", "16"]
# a valid value for each gen flag, none of them the default
GEN_FLAG_VALUES = {
    "seed": 4, "d": 12, "snippet_len": 8, "n_normal": 3, "n_abnormal": 5,
    "frame_range": (200, 300), "eps_range": (1, 4), "anomaly_shift": 2.5, "noise_std": 0.5,
}


def gen(tmp_path, name, seed="9"):
    out = tmp_path / name
    assert main(["gen", "--out", str(out), "--seed", seed, *GEN_FLAGS]) == 0
    return out


def all_files(root: Path):
    return sorted(p for p in root.rglob("*") if p.is_file())


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

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = main([
            "gen", "--out", str(tmp_path / "x"), *GEN_FLAGS, "--eps", "50", "60",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

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
        ],
    )
    def test_option_error_names_the_flag(self, tmp_path, capsys, flag, values, message):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), *GEN_FLAGS, flag, *values]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {flag} {message}\n"
        assert not out.exists()

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


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_ds")
    return gen(tmp, "ds")


class TestTrainEval:
    def test_train_writes_checkpoint_and_log(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"),
            "--out", str(out), "--seed", "1", *FAST_TRAIN,
        ])
        assert code == 0
        assert (out / "checkpoint.vadc").exists()
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,loss,val_auc"
        assert len(log) == 9

    def test_train_checkpoint_reproducible(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main([
                "train", "--manifest", str(dataset / "train" / "manifest.json"),
                "--out", str(out), "--seed", "7", *FAST_TRAIN,
            ])
            outs.append(out)
        assert (outs[0] / "checkpoint.vadc").read_bytes() == (outs[1] / "checkpoint.vadc").read_bytes()
        assert (outs[0] / "train_log.csv").read_text() == (outs[1] / "train_log.csv").read_text()

    def test_eval_outputs_report_and_csv(self, dataset, tmp_path):
        run = tmp_path / "run"
        main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"),
            "--out", str(run), "--seed", "1", *FAST_TRAIN,
        ])
        ev = tmp_path / "ev"
        code = main([
            "eval", "--manifest", str(dataset / "test" / "manifest.json"),
            "--checkpoint", str(run / "checkpoint.vadc"),
            "--out", str(ev), "--seed", "3",
        ])
        assert code == 0
        report = json.loads((ev / "report.json").read_text())
        assert 0.0 <= report["auc_roc"] <= 1.0
        assert report["eval_seed"] == 3
        assert report["pr_convention"] == "average_precision"
        header = (ev / "frame_scores.csv").read_text().splitlines()[0]
        assert header == "video_id,frame_idx,score,binary,label"

    def test_eval_reports_byte_identical(self, dataset, tmp_path):
        run = tmp_path / "run"
        main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"),
            "--out", str(run), "--seed", "1", *FAST_TRAIN,
        ])
        blobs = []
        for name in ("e1", "e2"):
            ev = tmp_path / name
            main([
                "eval", "--manifest", str(dataset / "test" / "manifest.json"),
                "--checkpoint", str(run / "checkpoint.vadc"),
                "--out", str(ev), "--seed", "3",
            ])
            blobs.append((ev / "report.json").read_bytes() + (ev / "frame_scores.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("rate", [b"0.0", b"0.5"])
    def test_checkpoint_dropout_rate_leaves_eval_unchanged(self, dataset, untrained_checkpoint, tmp_path, rate):
        """Eval runs no dropout and a load keeps nothing of the header's
        classifier_dropout, so a checkpoint with that rate rewritten
        evaluates to the same report and frame CSV bytes."""
        edited = tmp_path / "edited.vadc"
        blob = untrained_checkpoint.read_bytes()
        edited.write_bytes(blob.replace(b'"classifier_dropout":0.7', b'"classifier_dropout":' + rate, 1))
        assert edited.read_bytes() != blob
        blobs = []
        for name, checkpoint in (("e1", untrained_checkpoint), ("e2", edited)):
            ev = tmp_path / name
            assert main([
                "eval", "--manifest", str(dataset / "test" / "manifest.json"),
                "--checkpoint", str(checkpoint), "--out", str(ev), "--seed", "3",
            ]) == 0
            blobs.append([(ev / "report.json").read_bytes(), (ev / "frame_scores.csv").read_bytes()])
        assert blobs[0] == blobs[1]

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

    def test_missing_checkpoint_exits_one(self, dataset, tmp_path, capsys):
        code = main([
            "eval", "--manifest", str(dataset / "test" / "manifest.json"),
            "--checkpoint", str(tmp_path / "nope.vadc"),
            "--out", str(tmp_path / "ev"), "--seed", "0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


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
        corrupt = tmp_path / split
        shutil.copytree(dataset / split, corrupt)
        path = corrupt / load_manifest(corrupt / "manifest.json").videos[2].path
        feats = load_features(path)
        feats[feats.shape[0] // 2, 0] = value
        save_features(feats, path)
        extra = ["--checkpoint", str(untrained_checkpoint)] if command == "eval" else FAST_TRAIN
        out = tmp_path / "out"
        assert main([command, "--manifest", str(corrupt / "manifest.json"), *extra, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: FormatError: {path}: feature values hold NaN or Inf\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def untrained_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_ckpt") / "checkpoint.vadc"
    save_checkpoint(init_model(8, TsaConfig(), np.random.SeedSequence(0)), path)
    return path


class TestEvalGroundTruth:
    def _eval(self, dataset, checkpoint, out, *extra):
        return main([
            "eval", "--manifest", str(dataset / "test" / "manifest.json"),
            "--checkpoint", str(checkpoint), "--out", str(out), "--seed", "0", *extra,
        ])

    def test_ground_truth_read_once(self, dataset, untrained_checkpoint, tmp_path, monkeypatch):
        calls = []
        real = cli.load_ground_truth
        monkeypatch.setattr(cli, "load_ground_truth", lambda path: calls.append(path) or real(path))
        assert self._eval(dataset, untrained_checkpoint, tmp_path / "ev") == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("defect", ["abnormal_without_intervals", "unknown_id"])
    def test_bad_ground_truth_exits_one_naming_the_id(self, dataset, untrained_checkpoint, tmp_path, capsys, defect):
        gt = json.loads((dataset / "test" / "ground_truth.json").read_text())
        if defect == "unknown_id":
            vid = "ghost_0000"
            gt[vid] = [[0, 4]]
        else:
            vid = next(k for k, spans in sorted(gt.items()) if spans)
            del gt[vid]
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        code = self._eval(dataset, untrained_checkpoint, tmp_path / "ev", "--ground-truth", str(gt_path))
        assert code == 1
        assert f"'{vid}'" in capsys.readouterr().err


    @pytest.mark.parametrize("intervals", [5, [[1, 2, 3]], [[0, 100000]]])
    def test_malformed_ground_truth_exits_one_naming_the_video(
        self, dataset, untrained_checkpoint, tmp_path, capsys, intervals
    ):
        gt = json.loads((dataset / "test" / "ground_truth.json").read_text())
        vid = sorted(gt)[0]
        gt[vid] = intervals
        gt_path = tmp_path / "gt.json"
        gt_path.write_text(json.dumps(gt))
        code = self._eval(dataset, untrained_checkpoint, tmp_path / "ev", "--ground-truth", str(gt_path))
        assert code == 1
        err = capsys.readouterr().err
        assert f"video '{vid}'" in err
        if intervals != [[0, 100000]]:
            assert "gt.json" in err

    def test_empty_split_exits_one_saying_so(self, dataset, untrained_checkpoint, tmp_path, capsys):
        manifest = json.loads((dataset / "test" / "manifest.json").read_text())
        manifest["videos"] = []
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "manifest.json").write_text(json.dumps(manifest))
        (empty / "ground_truth.json").write_text("{}")
        code = main([
            "eval", "--manifest", str(empty / "manifest.json"),
            "--checkpoint", str(untrained_checkpoint), "--out", str(tmp_path / "ev"), "--seed", "0",
        ])
        assert code == 1
        assert (
            f"FormatError: {empty / 'manifest.json'}: test split needs both normal and abnormal videos "
            "(0 normal, 0 abnormal)"
        ) in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()


def poison_one_row(split_dir: Path, video: int = 0) -> str:
    """Set one feature row of a video to 3e37, a finite float32 the loader
    accepts but the forward pass overflows on; returns the video's id."""
    entry = load_manifest(split_dir / "manifest.json").videos[video]
    feats = load_features(split_dir / entry.path)
    feats[feats.shape[0] // 2] = 3e37
    save_features(feats, split_dir / entry.path)
    return entry.video_id


class TestLocatedNumericsErrors:
    """A forward pass that overflows exits 1 naming where: the video in eval,
    the epoch and the batch's videos in training. No numpy warning comes
    first (pytest turns every RuntimeWarning into an error)."""

    def test_eval_names_the_video(self, tmp_path, untrained_checkpoint, capsys):
        """Eval scores the videos of one snippet count as one batch; a batch
        that overflows is scored again one video at a time, so the error
        names the video whether it is first or last in its batch or alone."""
        for video, batch_size in [(3, 2), (11, 3), (1, 1)]:
            data = gen(tmp_path, f"ds{video}")
            counts = [-(-v.frame_count // 4) for v in load_manifest(data / "test" / "manifest.json").videos]
            assert counts.count(counts[video]) == batch_size  # --delta 4
            vid = poison_one_row(data / "test", video=video)
            code = main([
                "eval", "--manifest", str(data / "test" / "manifest.json"),
                "--checkpoint", str(untrained_checkpoint), "--out", str(tmp_path / f"ev{video}"), "--seed", "0",
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: NumericsError: video '{vid}': non-finite values produced by ")

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
        out = tmp_path / "run"
        argv = [command, "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out)]
        if command != "train":
            argv += ["--test-manifest", str(dataset / "test" / "manifest.json")]
        assert main([*argv, *FAST_TRAIN, flag, value]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {flag} {message}\n"
        assert not out.exists()

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
        out = tmp_path / "run"
        code = main([
            command, "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"), "--out", str(out),
            *FAST_TRAIN, flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {flag} takes a non-empty comma-separated list of " + (
            f"{'int' if flag == '--seeds' else 'float'} values, got {value!r}\n"
        ), err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("eval", "--seed"), ("ablate", "--seeds")])
    def test_negative_seed_names_the_flag(self, dataset, untrained_checkpoint, tmp_path, capsys, command, flag):
        """A negative seed is an error naming the flag before anything is
        written, not numpy's unlocated one from the first generator it seeds."""
        out = tmp_path / "run"
        argv = [command, "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out), flag, "-1"]
        if command == "eval":
            argv += ["--checkpoint", str(untrained_checkpoint)]
        else:
            argv += ["--test-manifest", str(dataset / "test" / "manifest.json"), *FAST_TRAIN]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: ValueError: {flag} must be non-negative, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("sweep-r", "--r"), ("sweep-r", "--no-tsa"), ("ablate", "--no-tsa")])
    def test_flag_the_command_would_ignore_is_a_usage_error(self, capsys, command, flag):
        """sweep-r takes its ratios from --r-grid and ablate runs the attention
        both on and off, so neither accepts a flag it would drop; nor may
        `--r` pass as an abbreviation of `--r-grid`."""
        argv = [command, "--manifest", "m", "--test-manifest", "t", "--out", "o", flag]
        assert main(argv + (["0.5"] if flag == "--r" else [])) == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    def test_out_of_range_grid_ratio_names_the_grid(self, dataset, tmp_path, capsys):
        """Each ratio of the grid is checked before the first run, and an
        error names --r-grid, not --r."""
        out = tmp_path / "run"
        code = main([
            "sweep-r", "--manifest", str(dataset / "train" / "manifest.json"),
            "--test-manifest", str(dataset / "test" / "manifest.json"), "--out", str(out),
            *FAST_TRAIN, "--r-grid", "0.5,1.5",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: ValueError: --r-grid must be in (0, 1], got 1.5\n"
        assert not out.exists()


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

    def test_no_tsa_reaches_the_config(self, dataset, tmp_path, monkeypatch, capsys):
        assert not self.first_config(dataset, tmp_path, monkeypatch, "train", "--no-tsa").tsa_enabled
        capsys.readouterr()


class TestValidation:
    def test_validation_split_loaded_once(self, dataset, tmp_path, monkeypatch):
        """Each validation scores records loaded once up front; the logged
        AUCs equal a fresh evaluation of the model at that epoch."""
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

        loads = []
        for module in (cli, evaluate):
            real = module.load_records
            monkeypatch.setattr(
                module, "load_records", lambda m, base, real=real: loads.append(Path(base)) or real(m, base)
            )
        out = tmp_path / "run"
        code = main([
            "train", "--manifest", str(dataset / "train" / "manifest.json"), "--out", str(out),
            "--seed", "1", *FAST_TRAIN, "--epochs", "5",
            "--val-manifest", str(test_dir / "manifest.json"), "--val-every", "1",
        ])
        assert code == 0
        assert loads == [test_dir]
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


def one_class_manifest(directory: Path, split: str) -> Path:
    """A manifest of two abnormal videos whose feature files do not exist."""
    directory.mkdir()
    videos = [{"id": f"v{i}", "path": f"missing_{i}.vadf", "label": 1, "frame_count": 40} for i in range(2)]
    doc = {"version": 1, "d": 8, "snippet_len": 4, "split": split, "videos": videos}
    path = directory / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


class TestOneClassSplit:
    """Every command rejects a one-class split when it loads the manifest,
    before it reads a feature file or trains, and makes no --out."""

    @pytest.mark.parametrize("command", ["train", "eval", "sweep-r", "ablate", "train --val-manifest"])
    def test_exits_one_before_any_work(self, dataset, untrained_checkpoint, tmp_path, capsys, command):
        split = "train" if command == "train" else "test"
        bad = one_class_manifest(tmp_path / "one_class", split)
        train_manifest = str(dataset / "train" / "manifest.json")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--manifest", str(bad), *FAST_TRAIN],
            "eval": ["eval", "--manifest", str(bad), "--checkpoint", str(untrained_checkpoint)],
            "sweep-r": ["sweep-r", "--manifest", train_manifest, "--test-manifest", str(bad), *FAST_TRAIN],
            "ablate": ["ablate", "--manifest", train_manifest, "--test-manifest", str(bad), *FAST_TRAIN],
            "train --val-manifest": [
                "train", "--manifest", train_manifest, "--val-manifest", str(bad), "--val-every", "1", *FAST_TRAIN,
            ],
        }[command]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: FormatError: {bad}: {split} split needs both normal and abnormal videos (0 normal, 2 abnormal)\n"
        )
        assert not out.exists()


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
        """Every run is evaluated on records and ground truth loaded once."""
        flags = ["--r-grid", "0.5,1.0"] if command == "sweep-r" else ["--seeds", "0,1"]
        loads = []
        for module in (cli, evaluate):
            real = module.load_records
            monkeypatch.setattr(
                module, "load_records", lambda m, base, real=real: loads.append(Path(base)) or real(m, base)
            )
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
        assert loads == [dataset / "test"] and len(gt_reads) == 1


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
