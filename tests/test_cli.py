"""CLI surface: subcommands, outputs, exit codes, reproducibility."""

import filecmp
import json
import re
from pathlib import Path

import numpy as np
import pytest

from wsvad import cli, evaluate
from wsvad.attention import TsaConfig
from wsvad.cli import main
from wsvad.features import load_features, load_manifest, save_features
from wsvad.model import init_model, save_checkpoint
from wsvad.synthetic import SyntheticConfig
from wsvad.trainer import TrainConfig, train

GEN_FLAGS = [
    "--d", "8", "--delta", "4", "--n-normal", "6", "--n-abnormal", "6",
    "--frames", "40", "80", "--eps", "2", "3", "--shift", "3.0",
]
FAST_TRAIN = ["--epochs", "8", "--batch", "2", "--t", "8", "--samples", "16"]


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
        assert cli._train_config(self.parse(command, *argv)) == TrainConfig()

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

    def test_missing_checkpoint_exits_one(self, dataset, tmp_path, capsys):
        code = main([
            "eval", "--manifest", str(dataset / "test" / "manifest.json"),
            "--checkpoint", str(tmp_path / "nope.vadc"),
            "--out", str(tmp_path / "ev"), "--seed", "0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


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
        assert "ValueError: no videos to evaluate" in capsys.readouterr().err


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
    the epoch and the batch's videos in training. The overflowing ops still
    warn, so the warnings are silenced around the call."""

    def test_eval_names_the_video(self, tmp_path, untrained_checkpoint, capsys):
        data = gen(tmp_path, "ds")
        vid = poison_one_row(data / "test", video=3)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "eval", "--manifest", str(data / "test" / "manifest.json"),
                "--checkpoint", str(untrained_checkpoint), "--out", str(tmp_path / "ev"), "--seed", "0",
            ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: NumericsError: video '{vid}': non-finite values produced by ")

    def test_train_names_the_epoch_and_the_batch(self, tmp_path, capsys):
        data = gen(tmp_path, "ds")
        vid = poison_one_row(data / "train")
        # --batch 6 draws every one of the 6 videos of each class each epoch
        with np.errstate(over="ignore", invalid="ignore"):
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
            val_fn=lambda model: cli._eval_model(model, test_dir / "manifest.json", 1)[0].auc_roc,
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
