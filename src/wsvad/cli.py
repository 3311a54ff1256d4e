"""Command-line front end: gen / train / eval / sweep-r / ablate."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .attention import TsaConfig
from .evaluate import evaluate_manifest, evaluate_records, write_frame_csv
from .features import load_manifest, load_records
from .model import load_checkpoint, save_checkpoint
from .synthetic import GROUND_TRUTH_FILENAME, SyntheticConfig, generate_synthetic, load_ground_truth
from .trainer import TrainConfig, train

CHECKPOINT_FILENAME = "checkpoint.vadc"

# every flag's default is read off the config it fills
GEN_DEFAULTS = SyntheticConfig()
TRAIN_DEFAULTS = TrainConfig()


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    c, tsa = TRAIN_DEFAULTS, TRAIN_DEFAULTS.tsa
    p.add_argument("--epochs", type=int, default=c.epochs)
    p.add_argument("--batch", type=int, default=c.batch_bags, metavar="B", help="bags per class; the batch holds 2*B")
    p.add_argument("--t", type=int, default=c.t_len, help="snippets per bag after resizing")
    p.add_argument("--r", type=float, default=tsa.ratio, help="fraction of snippets the attention keeps")
    p.add_argument("--alpha", type=int, default=c.alpha)
    p.add_argument("--margin", type=float, default=c.margin)
    p.add_argument("--sigma-noise", type=float, default=tsa.sigma_noise)
    p.add_argument("--samples", type=int, default=tsa.num_samples, metavar="M")
    p.add_argument("--lr", type=float, default=c.lr)
    p.add_argument("--weight-decay", type=float, default=c.weight_decay)
    p.add_argument("--no-tsa", action="store_true", help="disable the attention stage")


def _train_config(args, *, seed: int | None = None, ratio: float | None = None, tsa_enabled: bool | None = None) -> TrainConfig:
    use_seed = args.seed if seed is None else seed
    return TrainConfig(
        t_len=args.t,
        batch_bags=args.batch,
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        alpha=args.alpha,
        margin=args.margin,
        tsa=TsaConfig(
            num_samples=args.samples,
            ratio=args.r if ratio is None else ratio,
            sigma_noise=args.sigma_noise,
            seed=use_seed,
        ),
        tsa_enabled=(not args.no_tsa) if tsa_enabled is None else tsa_enabled,
        seed=use_seed,
    )


def _train_once(manifest_path: Path, cfg: TrainConfig):
    manifest = load_manifest(manifest_path)
    return train(manifest, manifest_path.parent, cfg)


def _eval_model(model, test_manifest_path: Path, seed: int, gt_path: Path | None = None):
    """Returns the report, the timelines and their frame label masks."""
    manifest = load_manifest(test_manifest_path)
    ground_truth = load_ground_truth(gt_path or (test_manifest_path.parent / GROUND_TRUTH_FILENAME))
    return evaluate_manifest(manifest, test_manifest_path.parent, model, ground_truth, eval_seed=seed)


def _write_train_log(path: Path, log: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_auc"])
        for row in log:
            val = row.get("val_auc")
            writer.writerow([row["epoch"], repr(row["loss"]), "" if val is None else repr(val)])


def _synthetic_config(args) -> SyntheticConfig:
    return SyntheticConfig(
        n_normal=args.n_normal,
        n_abnormal=args.n_abnormal,
        d=args.d,
        snippet_len=args.delta,
        frame_range=(args.frames[0], args.frames[1]),
        eps_range=(args.eps[0], args.eps[1]),
        anomaly_shift=args.shift,
        noise_std=args.noise_std,
        seed=args.seed,
    )


def _cmd_gen(args) -> int:
    cfg = _synthetic_config(args)
    train_m, test_m = generate_synthetic(cfg, args.out)
    print(
        f"wrote {len(train_m.videos)} train and {len(test_m.videos)} test videos "
        f"(d={cfg.d}, snippet_len={cfg.snippet_len}) under {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.val_manifest and args.val_every < 1:
        raise ValueError(f"--val-manifest needs --val-every >= 1, got {args.val_every}")
    if args.val_every and not args.val_manifest:
        raise ValueError(f"--val-every {args.val_every} needs --val-manifest")
    cfg = _train_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    val_fn = None
    if args.val_manifest:
        # loaded once; every validation scores the same records
        val_path = Path(args.val_manifest)
        val_records = load_records(load_manifest(val_path), val_path.parent)
        val_truth = load_ground_truth(val_path.parent / GROUND_TRUTH_FILENAME)

        def val_fn(model):
            report, _, _ = evaluate_records(val_records, model, val_truth, eval_seed=args.seed)
            return report.auc_roc

    manifest = load_manifest(Path(args.manifest))
    result = train(
        manifest,
        Path(args.manifest).parent,
        cfg,
        val_fn=val_fn,
        val_every=args.val_every,
    )
    save_checkpoint(result.model, out / CHECKPOINT_FILENAME)
    _write_train_log(out / "train_log.csv", result.log)
    print(
        f"trained {cfg.epochs} epochs; loss {result.log[0]['loss']:.4f} -> "
        f"{result.log[-1]['loss']:.4f}; checkpoint at {out / CHECKPOINT_FILENAME}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt_path = Path(args.ground_truth) if args.ground_truth else None
    report, timelines, masks = _eval_model(model, Path(args.manifest), args.seed, gt_path)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    write_frame_csv(out / "frame_scores.csv", timelines, masks)
    print(
        f"AUC@ROC {report.auc_roc:.4f}  AUC@PR {report.auc_pr:.4f}  "
        f"({report.num_frames} frames, {report.wall_clock_sec:.2f}s)"
    )
    return 0


def _cmd_sweep_r(args) -> int:
    grid = [float(x) for x in args.r_grid.split(",") if x]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for r in grid:
        cfg = _train_config(args, ratio=r)
        result = _train_once(Path(args.manifest), cfg)
        report, _, _ = _eval_model(result.model, Path(args.test_manifest), args.seed)
        rows.append((r, report.auc_roc, report.auc_pr))
        print(f"r={r:.2f}  AUC@ROC {report.auc_roc:.4f}  AUC@PR {report.auc_pr:.4f}")
    with open(out / "sweep_r.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "auc_roc", "auc_pr"])
        for r, roc, pr in rows:
            writer.writerow([repr(r), repr(roc), repr(pr)])
    best = max(rows, key=lambda row: row[1])
    print(f"best r={best[0]:.2f} with AUC@ROC {best[1]:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    seeds = [int(x) for x in args.seeds.split(",") if x]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in seeds:
        aucs = {}
        for enabled in (True, False):
            cfg = _train_config(args, seed=seed, tsa_enabled=enabled)
            result = _train_once(Path(args.manifest), cfg)
            report, _, _ = _eval_model(result.model, Path(args.test_manifest), seed)
            aucs[enabled] = report.auc_roc
        rows.append((seed, aucs[True], aucs[False], aucs[True] - aucs[False]))
        print(
            f"seed={seed}  attention on {aucs[True]:.4f}  off {aucs[False]:.4f}  "
            f"delta {aucs[True] - aucs[False]:+.4f}"
        )
    with open(out / "ablate.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "auc_tsa_on", "auc_tsa_off", "delta"])
        for seed, on, off, delta in rows:
            writer.writerow([seed, repr(on), repr(off), repr(delta)])
    mean_delta = float(np.mean([row[3] for row in rows]))
    print(f"mean delta over {len(seeds)} seeds: {mean_delta:+.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsvad",
        description="Weakly-supervised video anomaly detection on snippet features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = GEN_DEFAULTS
    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=g.seed)
    p.add_argument("--d", type=int, default=g.d)
    p.add_argument("--delta", type=int, default=g.snippet_len, help="frames per snippet")
    p.add_argument("--n-normal", type=int, default=g.n_normal)
    p.add_argument("--n-abnormal", type=int, default=g.n_abnormal)
    p.add_argument("--frames", type=int, nargs=2, default=list(g.frame_range), metavar=("LO", "HI"))
    p.add_argument("--eps", type=int, nargs=2, default=list(g.eps_range), metavar=("LO", "HI"),
                   help="planted abnormal snippets per abnormal video")
    p.add_argument("--shift", type=float, default=g.anomaly_shift)
    p.add_argument("--noise-std", type=float, default=g.noise_std)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="fit a detector and write a checkpoint")
    p.add_argument("--manifest", required=True, help="path to the train manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=TRAIN_DEFAULTS.seed)
    p.add_argument("--val-manifest", default=None)
    p.add_argument("--val-every", type=int, default=0, help="epochs between validations; needs --val-manifest")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a test split against frame ground truth")
    p.add_argument("--manifest", required=True, help="path to the test manifest.json")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ground-truth", default=None,
                   help=f"defaults to {GROUND_TRUTH_FILENAME} next to the manifest")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-r", help="train/eval across a grid of selection ratios")
    p.add_argument("--manifest", required=True, help="train manifest.json")
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=TRAIN_DEFAULTS.seed)
    p.add_argument("--r-grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_sweep_r)

    p = sub.add_parser("ablate", help="paired attention on/off runs over seeds")
    p.add_argument("--manifest", required=True, help="train manifest.json")
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as exit 1 with a located message
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
