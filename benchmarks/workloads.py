"""The benchmark's workloads: set-up, measured cycles, output checks, metrics.

Every workload is a closed loop with one client: a cycle starts only after
the previous one has finished. A training cycle is one ``trainer.train``
call, its checkpoint written with ``model.save_checkpoint``, and one
``wsvad eval`` command (``cli.main``) over the held-out split; an eval cycle
is the ``wsvad eval`` command alone. The library only ever sees the
generated dataset files.

Timings are scaled to the reference CPU speed (see ``speed.py``): the
Speedometer probes between epochs and around every other timed interval,
outside the timed spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wsvad import cli, model, synthetic, trainer
from wsvad.attention import TsaConfig
from wsvad.features import DatasetManifest

import spans
from speed import NOMINAL_S, Speedometer

PHASES = ("train", "eval")


@dataclass(frozen=True)
class Workload:
    name: str
    data: dict  # SyntheticConfig fields besides the seed
    t_len: int  # snippets per training bag
    epochs: int  # epochs per trainer.train call
    cycle_s: float  # nominal seconds per measured cycle (2-core x86, numpy 2.4, one BLAS thread)
    setup_repeats: int
    evals_per_cycle: int = 1  # wsvad eval commands after each training
    eval_data: dict | None = None  # a separate held-out split to score; training then happens in set-up
    min_auc: float | None = None  # frame-level AUC every eval must reach

    @property
    def primary(self) -> str:
        """The phase the measured cycles run."""
        return "eval" if self.eval_data is not None else "train"


WORKLOADS = {
    w.name: w
    for w in (
        # the acceptance setup: d=32, delta=16, 100+100 videos of 128-512 frames, T=16
        # One eval takes ~0.4 s, so four per training give eval_frames_per_s
        # eight samples in a 20 s run rather than two.
        Workload(
            "train_small",
            data={},
            t_len=16,
            epochs=200,
            cycle_s=9.6,
            setup_repeats=15,
            evals_per_cycle=4,
            min_auc=0.95,
        ),
        # the paper shape: d=512, T=32; shift 7.2 keeps the d=32 class magnitude gap.
        # Short trainings, so a 20 s run holds six evals as well as 33 timed epochs.
        Workload(
            "train_paper",
            data=dict(d=512, n_normal=40, n_abnormal=40, frame_range=(512, 2048), anomaly_shift=7.2),
            t_len=32,
            epochs=12,
            cycle_s=7.5,
            setup_repeats=9,
            evals_per_cycle=2,
        ),
        # 50+50 held-out videos of 2048-8192 frames scored by a checkpoint that
        # set-up trains exactly as train_small does (200 epochs), the training
        # that acceptance criterion 9's AUC bar is stated for: at 100 epochs
        # some seeds are still on the loss plateau (seed 2117338234: AUC 0.936)
        Workload(
            "eval_long",
            data={},
            t_len=16,
            epochs=200,
            cycle_s=2.7,
            setup_repeats=3,
            eval_data=dict(n_normal=50, n_abnormal=50, frame_range=(2048, 8192)),
            min_auc=0.95,
        ),
    )
}


class Checks:
    """Counts operations and output checks; a run is correct when none failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def op(self, name: str, fn):
        """Run one operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed.append(name)
            traceback.print_exc()
            return None


def _sha(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass
class Dataset:
    train_manifest: DatasetManifest
    train_dir: Path
    test_dir: Path
    checkpoint: Path  # written by set-up when the workload trains there


@dataclass
class TrainRun:
    epoch_ends: list[float]  # perf_counter at each val_fn call, one per epoch
    # epochs 2..E, from the end of one val_fn call to the start of the next
    # (epoch 1 also loads the split and builds the model, and has no start mark)
    epoch_ms: np.ndarray
    epoch_ms_ref: np.ndarray  # the same, at reference speed
    wall: float  # seconds inside trainer.train, probes excluded
    speed: float  # reference-speed factor over the whole training
    losses: list[float]
    checkpoint_sha: str


@dataclass
class EvalRun:
    wall: float  # seconds for the whole eval command
    speed: float  # reference-speed factor around it
    report: dict
    csv_rows: int
    output_sha: str  # report.json + frame_scores.csv


def run_training(wl: Workload, seed: int, ds: Dataset, checkpoint: Path, speed: Speedometer, tracer=None) -> TrainRun:
    cfg = trainer.TrainConfig(t_len=wl.t_len, epochs=wl.epochs, tsa=TsaConfig(seed=seed), seed=seed)
    ends: list[float] = []
    starts: list[float] = []
    probes: list[float] = []

    def val_fn(_model) -> float:
        ends.append(time.perf_counter())
        speed.sample()
        probes.append(speed.took[-1])
        if tracer is not None:
            tracer.tag = len(ends) + 1
        starts.append(time.perf_counter())
        return 0.0

    if tracer is not None:
        tracer.phase, tracer.tag = "train", 1
    started = time.perf_counter()
    result = trainer.train(ds.train_manifest, ds.train_dir, cfg, val_fn=val_fn, val_every=1)
    finished = time.perf_counter()
    model.save_checkpoint(result.model, checkpoint)
    epoch_s = np.subtract(ends[1:], starts[:-1])
    # each epoch at the speed of the probes just before and after it, which
    # also catches a load burst that lasts about one epoch
    epoch_ref = epoch_s * NOMINAL_S / ((np.array(probes[:-1]) + np.array(probes[1:])) / 2)
    return TrainRun(
        epoch_ends=ends,
        epoch_ms=epoch_s * 1e3,
        epoch_ms_ref=epoch_ref * 1e3,
        wall=finished - started - float(np.sum(np.subtract(starts, ends))),
        speed=speed.factor(started, finished),
        losses=[row["loss"] for row in result.log],
        checkpoint_sha=_sha(checkpoint),
    )


def run_eval(seed: int, ds: Dataset, checkpoint: Path, out: Path, speed: Speedometer, tracer=None) -> EvalRun:
    argv = ["eval", "--manifest", str(ds.test_dir / "manifest.json"), "--checkpoint", str(checkpoint),
            "--out", str(out), "--seed", str(seed)]
    if tracer is not None:
        tracer.phase, tracer.tag = "eval", None
    speed.sample(5)
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        finished = time.perf_counter()
    speed.sample(5)
    if code != 0:
        raise RuntimeError(f"wsvad eval exited with {code}")
    report_path, csv_path = out / "report.json", out / "frame_scores.csv"
    with open(csv_path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return EvalRun(
        finished - started, speed.factor(started, finished), json.loads(report_path.read_text()), rows,
        _sha(report_path, csv_path),
    )


def set_up(wl: Workload, seed: int, dest: Path, speed: Speedometer) -> tuple[Dataset, TrainRun | None]:
    """Generate the inputs; the eval workload also trains its checkpoint here."""
    train_manifest, _ = synthetic.generate_synthetic(synthetic.SyntheticConfig(seed=seed, **wl.data), dest / "data")
    ds = Dataset(train_manifest, dest / "data" / "train", dest / "data" / "test", dest / "checkpoint.vadc")
    if wl.eval_data is None:
        return ds, None
    # same seed and width, so the held-out split shares the anomaly direction
    synthetic.generate_synthetic(synthetic.SyntheticConfig(seed=seed, **wl.eval_data), dest / "long")
    ds.test_dir = dest / "long" / "test"
    return ds, run_training(wl, seed, ds, ds.checkpoint, speed)


# -- output checks ---------------------------------------------------------------


def _manifest_videos(split_dir: Path) -> list[dict]:
    return json.loads((split_dir / "manifest.json").read_text())["videos"]


def check_training(checks: Checks, run: TrainRun, ref: TrainRun | None, what: str) -> None:
    checks.check(f"{what}: every epoch loss is finite", all(math.isfinite(x) for x in run.losses))
    if ref is not None:
        checks.check(f"{what}: loss log repeats the first training", run.losses == ref.losses)
        checks.check(f"{what}: checkpoint bytes repeat the first training", run.checkpoint_sha == ref.checkpoint_sha)


def check_eval(checks: Checks, wl: Workload, ds: Dataset, run: EvalRun, ref: EvalRun | None, what: str) -> None:
    videos = _manifest_videos(ds.test_dir)
    frames = sum(int(v["frame_count"]) for v in videos)
    checks.check(f"{what}: report num_frames equals the manifest frame total", run.report["num_frames"] == frames)
    checks.check(f"{what}: report num_videos equals the manifest", run.report["num_videos"] == len(videos))
    checks.check(f"{what}: frame_scores.csv has one row per frame plus a header", run.csv_rows == frames + 1)
    if wl.min_auc is not None:
        checks.check(f"{what}: auc_roc >= {wl.min_auc}", run.report["auc_roc"] >= wl.min_auc)
    if ref is not None:
        checks.check(f"{what}: report and frame CSV bytes repeat the first eval", run.output_sha == ref.output_sha)


# -- end-to-end run -------------------------------------------------------------


def _tail(values: np.ndarray) -> tuple[float, float]:
    """The tail value and its percentile: p95, or the highest percentile with
    at least ten samples beyond it when there are fewer than 200 samples.

    Above p95 the value is set by the few epochs that a load burst from
    another tenant happened to hit, and spreads by 0.3 across runs."""
    v = np.sort(values)
    n = v.size
    beyond = max(10, n // 20)
    if n <= beyond:
        return float(v[-1]), 100.0
    return float(v[n - beyond - 1]), 100.0 * (n - beyond) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def user_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def measure(wl: Workload, seed: int, seconds: int, work: Path, checks: Checks) -> tuple[dict, dict]:
    """Untraced run: returns (end-to-end metrics, informational figures)."""
    speed = Speedometer()
    setup_s, setup_raw, train_runs, eval_runs = [], [], [], []
    for i in range(wl.setup_repeats):
        speed.sample(5)
        spent, started, cpu = speed.spent, time.perf_counter(), user_cpu_s()
        ds, setup_train = set_up(wl, seed, work / f"setup{i}", speed)
        finished, cpu = time.perf_counter(), user_cpu_s() - cpu
        probing = speed.spent - spent
        speed.sample(5)
        setup_raw.append(finished - started - probing)
        # user-mode CPU: creating hundreds of small files costs 3-10x more
        # kernel time than the generator's own work on the shared disk, and
        # that share swings with other tenants' I/O
        setup_s.append((cpu - probing) * speed.factor(started, finished))
        if setup_train is not None:
            check_training(checks, setup_train, train_runs[0] if train_runs else None, f"set-up training {i}")
            train_runs.append(setup_train)

    cycles = max(1, round(seconds / wl.cycle_s))
    for c in range(cycles):
        if wl.primary == "train":
            run = checks.op(f"cycle {c}: train", lambda: run_training(wl, seed, ds, ds.checkpoint, speed))
            if run is None:
                continue
            check_training(checks, run, train_runs[0] if train_runs else None, f"cycle {c}")
            train_runs.append(run)
        for e in range(wl.evals_per_cycle):
            ev = checks.op(f"cycle {c}: eval {e}", lambda: run_eval(seed, ds, ds.checkpoint, work / "eval", speed))
            if ev is not None:
                check_eval(checks, wl, ds, ev, eval_runs[0] if eval_runs else None, f"cycle {c}, eval {e}")
                eval_runs.append(ev)
    if not train_runs or not eval_runs:
        raise RuntimeError("no training or eval cycle completed")

    epoch_ms = np.concatenate([r.epoch_ms_ref for r in train_runs])
    tail, tail_pct = _tail(epoch_ms)
    bags = 2 * trainer.TrainConfig().batch_bags * sum(len(r.losses) for r in train_runs)
    first = train_runs[0].losses
    last_tenth = first[-max(1, len(first) // 10):]
    frames = eval_runs[-1].report["num_frames"]
    metrics = {
        "setup_s": (float(np.median(setup_s)), "s"),
        "train_epoch_ms.p50": (float(np.median(epoch_ms)), "ms"),
        "train_epoch_ms.tail": (tail, "ms"),
        "train_bags_per_s": (bags / sum(r.wall * r.speed for r in train_runs), "bags/s"),
        "loss_last": (float(np.mean(last_tenth)), "loss"),
        "eval_frames_per_s": (float(np.median([frames / (r.wall * r.speed) for r in eval_runs])), "frames/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = eval_runs[-1].report
    raw_epoch_ms = np.concatenate([r.epoch_ms for r in train_runs])
    info = {
        "auc_roc": (report["auc_roc"], "1"),
        "auc_pr": (report["auc_pr"], "1"),
        "train_epoch_ms.tail_percentile": (tail_pct, "%"),
        "epochs_timed": (int(epoch_ms.size), "count"),
        "training_runs": (len(train_runs), "count"),
        "eval_commands": (len(eval_runs), "count"),
        "setup_repeats": (len(setup_s), "count"),
        "cpu_speed": (NOMINAL_S / float(np.median(speed.took)), "x_ref"),
        "raw.setup_wall_s": (float(np.median(setup_raw)), "s"),
        "raw.train_epoch_ms.p50": (float(np.median(raw_epoch_ms)), "ms"),
        "raw.train_epoch_ms.tail": (_tail(raw_epoch_ms)[0], "ms"),
        "raw.train_bags_per_s": (bags / sum(r.wall for r in train_runs), "bags/s"),
        "raw.eval_frames_per_s": (float(np.median([frames / r.wall for r in eval_runs])), "frames/s"),
    }
    return metrics, info


# -- traced run -----------------------------------------------------------------


def _split_bytes(split_dir: Path) -> int:
    return sum((split_dir / v["path"]).stat().st_size for v in _manifest_videos(split_dir))


def measure_traced(wl: Workload, seed: int, work: Path, checks: Checks) -> tuple[dict, dict, spans.Tracer]:
    """One untraced and one traced cycle on the same inputs: returns
    (per-layer metrics, informational figures, the tracer with its spans)."""
    speed = Speedometer()
    ds, base_train = set_up(wl, seed, work / "setup", speed)
    if base_train is None:
        base_train = run_training(wl, seed, ds, ds.checkpoint, speed)
    base_eval = run_eval(seed, ds, ds.checkpoint, work / "eval", speed)
    check_training(checks, base_train, None, "untraced")
    check_eval(checks, wl, ds, base_eval, None, "untraced")

    traced_ckpt = work / "traced.vadc"
    with spans.Tracer() as tracer:
        t_train = run_training(wl, seed, ds, traced_ckpt, speed, tracer)
        t_eval = run_eval(seed, ds, traced_ckpt, work / "eval_traced", speed, tracer)
    checks.check("every wrapped name is restored", tracer.restored())
    check_training(checks, t_train, base_train, "traced (vs untraced)")
    check_eval(checks, wl, ds, t_eval, base_eval, "traced (vs untraced)")

    epochs = len(t_train.epoch_ends)
    totals = {ph: spans.layer_totals(tracer.spans, ph) for ph in PHASES}
    calls = {ph: spans.call_counts(tracer.spans, ph) for ph in PHASES}
    # counts per epoch in training and per eval command in eval; times also
    # go from seconds to reference-speed milliseconds
    per_unit = {"train": 1.0 / epochs, "eval": 1.0}
    to_ms = {"train": 1e3 * t_train.speed, "eval": 1e3 * t_eval.speed}
    order = (wl.primary, "eval" if wl.primary == "train" else "train")

    def phase_ms(ph: str, span: str) -> float:
        return totals[ph][span] * per_unit[ph] * to_ms[ph]

    def layer_ms(span: str, *, per_call: bool = False) -> float:
        """A layer's time in the workload's measured phase, or in the other
        phase when it only runs there."""
        ph = next(ph for ph in order if span in totals[ph])
        return totals[ph][span] / calls[ph][span] * to_ms[ph] if per_call else phase_ms(ph, span)

    def count(name: str, *, per_call_of: str | None = None) -> float:
        ph = next(ph for ph in order if (ph, name) in tracer.counts)
        return tracer.counts[(ph, name)] * (1.0 / calls[ph][per_call_of] if per_call_of else per_unit[ph])

    epoch_self = spans.epoch_self_seconds(tracer.spans, t_train.epoch_ends)
    infer_ms = spans.infer_video_ms(tracer.spans) * t_eval.speed
    infer_tail, infer_tail_pct = _tail(infer_ms)
    metrics = {
        "autograd.backward_ms": (phase_ms("train", "autograd.backward"), "ms"),
        "autograd.graph_nodes": (float(tracer.epoch_nodes[0]), "count"),
        "autograd.conv1d_dilated_ms": (layer_ms("autograd.conv1d_dilated"), "ms"),
        "autograd.conv1d_gflop": (count("autograd.conv1d_flop") / 1e9, "GFLOP"),
        "nn.conv_module_ms": (layer_ms("nn.conv_module"), "ms"),
        "nn.classifier_ms": (layer_ms("nn.classifier"), "ms"),
        "attention.topk_score_ms": (layer_ms("attention.topk_score"), "ms"),
        "attention.tsa_fuse_ms": (layer_ms("attention.tsa_fuse"), "ms"),
        "attention.scorer_ms": (layer_ms("attention.scorer"), "ms"),
        "trainer.build_batch_ms": (phase_ms("train", "trainer.build_batch"), "ms"),
        "trainer.dmt_loss_ms": (phase_ms("train", "trainer.dmt_loss"), "ms"),
        "trainer.epoch_self_ms": (float(np.mean(epoch_self)) * to_ms["train"], "ms"),
        "optim.adam_step_ms": (phase_ms("train", "optim.adam_step"), "ms"),
        "evaluate.infer_video_ms.p50": (float(np.median(infer_ms)), "ms"),
        "evaluate.infer_video_ms.tail": (infer_tail, "ms"),
        "model.score_bag_ms": (phase_ms("eval", "model.score_bag"), "ms"),
        "evaluate.unfold_ms": (phase_ms("eval", "evaluate.unfold"), "ms"),
        "metrics.auc_roc_ms": (phase_ms("eval", "metrics.auc_roc"), "ms"),
        "metrics.auc_pr_ms": (phase_ms("eval", "metrics.auc_pr"), "ms"),
        "evaluate.write_frame_csv_ms": (phase_ms("eval", "evaluate.write_frame_csv"), "ms"),
        "evaluate.videos": (tracer.counts[("eval", "evaluate.videos")], "count"),
        "evaluate.frames": (tracer.counts[("eval", "evaluate.frames")], "count"),
        "features.load_records_ms": (layer_ms("features.load_records", per_call=True), "ms"),
        "features.bytes_read": (count("features.bytes_read", per_call_of="features.load_records"), "bytes"),
        "model.load_checkpoint_ms": (phase_ms("eval", "model.load_checkpoint"), "ms"),
        "trace.epoch_overhead_ms": (float(np.median(t_train.epoch_ms_ref) - np.median(base_train.epoch_ms_ref)), "ms"),
        "trace.eval_overhead_ms": ((t_eval.wall * t_eval.speed - base_eval.wall * base_eval.speed) * 1e3, "ms"),
    }

    # exact counts: each must equal what the inputs fix
    videos = _manifest_videos(ds.test_dir)
    d = ds.train_manifest.d
    bags = 2 * trainer.TrainConfig().batch_bags
    conv_flop = bags * 3 * 2.0 * wl.t_len * 3 * d * (d // 4)  # 3 branches, kernel 3, d -> d/4
    checks.check("graph nodes are the same every epoch", len(set(tracer.epoch_nodes)) == 1 and len(tracer.epoch_nodes) == epochs)
    checks.check("conv flop per epoch matches the shapes", tracer.counts[("train", "autograd.conv1d_flop")] == conv_flop * epochs)
    checks.check("training bytes_read equals the train split's file sizes", tracer.counts[("train", "features.bytes_read")] == _split_bytes(ds.train_dir))
    checks.check("eval bytes_read equals the test split's file sizes", tracer.counts[("eval", "features.bytes_read")] == _split_bytes(ds.test_dir))
    checks.check("evaluate.videos equals the manifest", tracer.counts[("eval", "evaluate.videos")] == len(videos))
    checks.check("evaluate.frames equals the manifest frame total", tracer.counts[("eval", "evaluate.frames")] == sum(int(v["frame_count"]) for v in videos))
    checks.check("epoch spans are nested (non-negative self time)", min(epoch_self) >= 0.0)

    info = {
        "evaluate.infer_video_ms.tail_percentile": (infer_tail_pct, "%"),
        "epochs_traced": (epochs, "count"),
        "spans": (len(tracer.spans), "count"),
        "cpu_speed.traced_train": (t_train.speed, "x_ref"),
        "cpu_speed.traced_eval": (t_eval.speed, "x_ref"),
        "raw.epoch_ms.traced_p50": (float(np.median(t_train.epoch_ms)), "ms"),
        "raw.epoch_ms.untraced_p50": (float(np.median(base_train.epoch_ms)), "ms"),
        "raw.eval_s.traced": (t_eval.wall, "s"),
        "raw.eval_s.untraced": (base_eval.wall, "s"),
        "auc_roc": (t_eval.report["auc_roc"], "1"),
        "auc_pr": (t_eval.report["auc_pr"], "1"),
    }
    return metrics, info, tracer
