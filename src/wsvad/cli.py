"""Command-line front end: gen / train / eval / sweep-r / ablate."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attention import TsaConfig
from .evaluate import evaluate_manifest, write_frame_csv
from .features import load_manifest
from .model import load_checkpoint, save_checkpoint
from .synthetic import GROUND_TRUTH_FILENAME, SyntheticConfig, generate_synthetic, load_ground_truth
from .trainer import TrainConfig, train

CHECKPOINT_FILENAME = "checkpoint.vadc"

# One row per config flag: (flag, the config field it fills, argparse
# extras). The parser reads each default off the config and its type off
# that default, and an option error names the row's flag.
GEN_FLAGS = (
    ("--seed", "seed", {}),
    ("--d", "d", {}),
    ("--delta", "snippet_len", dict(help="frames per snippet")),
    ("--n-normal", "n_normal", {}),
    ("--n-abnormal", "n_abnormal", {}),
    ("--frames", "frame_range", dict(nargs=2, metavar=("LO", "HI"))),
    ("--eps", "eps_range", dict(nargs=2, metavar=("LO", "HI"), help="planted abnormal snippets per abnormal video")),
    ("--shift", "anomaly_shift", {}),
    ("--noise-std", "noise_std", {}),
)
TRAIN_FLAGS = (
    ("--epochs", "epochs", {}),
    ("--batch", "batch_bags", dict(metavar="B", help="bags per class; the batch holds 2*B")),
    ("--t", "t_len", dict(help="snippets per bag after resizing")),
    ("--r", "ratio", dict(help="fraction of snippets the attention keeps; 1.0 turns it off")),
    ("--alpha", "alpha", {}),
    ("--margin", "margin", {}),
    ("--sigma-noise", "sigma_noise", {}),
    ("--samples", "num_samples", dict(metavar="M")),
    ("--lr", "lr", {}),
    ("--weight-decay", "weight_decay", {}),
)
TRAIN_DEFAULTS = TrainConfig()
TSA_FIELDS = {f.name for f in fields(TsaConfig)}


def _add_flags(p: argparse.ArgumentParser, table, defaults: dict, *, skip: str | None = None) -> None:
    """Add each table flag but ``skip``; ``defaults`` maps each config field
    to its default, whose type (or its items' type) the flag parses to."""
    for flag, name, extras in table:
        if flag != skip:
            default = defaults[name]
            kind = type(default[0] if isinstance(default, tuple) else default)
            p.add_argument(flag, type=kind, default=default, **extras)


def _flag_values(args, table) -> dict:
    """The value of each table flag the command has, keyed by its config
    field; a two-value flag parses to a list, and the config holds a tuple."""
    values = {}
    for flag, name, _ in table:
        dest = flag.lstrip("-").replace("-", "_")
        if dest in args:
            value = getattr(args, dest)
            values[name] = tuple(value) if isinstance(value, list) else value
    return values


def _flag_error(exc: ValueError, table, **named: str) -> ValueError:
    """``exc`` naming the flag: every config check's message starts with the
    field, and ``named`` gives the flag of a field set from outside the table."""
    flags = {name: flag for flag, name, _ in table} | named
    field, _, rest = str(exc).partition(" ")
    return ValueError(f"{flags[field]} {rest}") if field in flags else exc


def _train_config(args, *, seed: int | None = None, ratio: float | None = None) -> TrainConfig:
    """The training config the flags ask for; a ``seed`` or ``ratio`` given
    here comes from ``--seeds`` or ``--r-grid`` (or is ablate's 1.0, which is
    always valid), and an error names it so."""
    use_seed = args.seed if seed is None else seed
    values = _flag_values(args, TRAIN_FLAGS)
    if ratio is not None:
        values["ratio"] = ratio
    tsa = {name: values.pop(name) for name in TSA_FIELDS & values.keys()}
    try:
        return TrainConfig(**values, tsa=TsaConfig(**tsa, seed=use_seed), seed=use_seed)
    except ValueError as exc:
        named = dict(seed="--seed" if seed is None else "--seeds", ratio="--r" if ratio is None else "--r-grid")
        raise _flag_error(exc, TRAIN_FLAGS, **named) from None


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The non-empty comma-separated list of ``kind`` values a flag gives."""
    items = [x.strip() for x in text.split(",") if x.strip()]
    try:
        if items:
            return [kind(x) for x in items]
    except ValueError:
        pass
    raise ValueError(f"{flag} takes a non-empty comma-separated list of {kind.__name__} values, got {text!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_split(manifest_path: Path, flag: str, d: int):
    """A split's manifest, directory and ground truth, read once and checked
    for models trained on ``--manifest``'s ``d`` features; each evaluation
    reads the feature files anew, one chunk at a time."""
    manifest = load_manifest(manifest_path)
    if manifest.d != d:
        raise ValueError(f"{flag} has width {manifest.d}, --manifest has width {d}")
    return manifest, manifest_path.parent, load_ground_truth(manifest_path.parent / GROUND_TRUTH_FILENAME)


def _train_and_eval(args, cfgs: list[TrainConfig]):
    """Read the ``--manifest`` and ``--test-manifest`` manifests and the test
    ground truth now, and return a generator that trains with each config in
    turn and yields the report of that model on the test split, evaluated
    with the run's seed."""
    manifest_path = Path(args.manifest)
    manifest = load_manifest(manifest_path)
    test_manifest, test_dir, test_truth = _load_split(Path(args.test_manifest), "--test-manifest", manifest.d)

    def reports():
        for cfg in cfgs:
            model = train(manifest, manifest_path.parent, cfg).model
            yield evaluate_manifest(test_manifest, test_dir, model, test_truth, eval_seed=cfg.seed)[0]

    return reports()


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Each value is written as its repr, None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else repr(v) for v in row] for row in rows)


def _synthetic_config(args) -> SyntheticConfig:
    try:
        return SyntheticConfig(**_flag_values(args, GEN_FLAGS))
    except ValueError as exc:
        raise _flag_error(exc, GEN_FLAGS) from None


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
    manifest = load_manifest(Path(args.manifest))

    val_fn = None
    if args.val_manifest:
        val_manifest, val_dir, val_truth = _load_split(Path(args.val_manifest), "--val-manifest", manifest.d)

        def val_fn(model):
            return evaluate_manifest(val_manifest, val_dir, model, val_truth, eval_seed=args.seed)[0].auc_roc

    result = train(
        manifest,
        Path(args.manifest).parent,
        cfg,
        val_fn=val_fn,
        val_every=args.val_every,
    )
    # made only now: training reads the feature files, and any of them may be missing
    out = _out_dir(args)
    save_checkpoint(result.model, out / CHECKPOINT_FILENAME)
    log = [(row["epoch"], row["loss"], row.get("val_auc")) for row in result.log]
    _write_csv(out / "train_log.csv", ["epoch", "loss", "val_auc"], log)
    print(
        f"trained {cfg.epochs} epochs; loss {result.log[0]['loss']:.4f} -> "
        f"{result.log[-1]['loss']:.4f}; checkpoint at {out / CHECKPOINT_FILENAME}"
    )
    return 0


def _cmd_eval(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    model = load_checkpoint(args.checkpoint)
    manifest_path = Path(args.manifest)
    manifest, base_dir = load_manifest(manifest_path), manifest_path.parent
    ground_truth = load_ground_truth(Path(args.ground_truth or base_dir / GROUND_TRUTH_FILENAME))
    started = time.perf_counter()
    report, timelines, masks = evaluate_manifest(manifest, base_dir, model, ground_truth, eval_seed=args.seed)
    seconds = time.perf_counter() - started
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    write_frame_csv(out / "frame_scores.csv", timelines, masks)
    print(
        f"AUC@ROC {report.auc_roc:.4f}  AUC@PR {report.auc_pr:.4f}  "
        f"({report.num_frames} frames, {seconds:.2f}s)"
    )
    return 0


def _cmd_sweep_r(args) -> int:
    grid = _parse_list(args.r_grid, "--r-grid", float)
    # every config is checked before the first run
    cfgs = [_train_config(args, ratio=r) for r in grid]
    reports = _train_and_eval(args, cfgs)
    rows = []
    for r, report in zip(grid, reports):
        rows.append((r, report.auc_roc, report.auc_pr))
        print(f"r={r:.2f}  AUC@ROC {report.auc_roc:.4f}  AUC@PR {report.auc_pr:.4f}")
    # after the runs, each of which reads the training feature files
    _write_csv(_out_dir(args) / "sweep_r.csv", ["r", "auc_roc", "auc_pr"], rows)
    best = max(rows, key=lambda row: row[1])
    print(f"best r={best[0]:.2f} with AUC@ROC {best[1]:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    seeds = _parse_list(args.seeds, "--seeds", int)
    # every config is checked before the first run; each seed trains with the attention on, then off (ratio 1.0)
    cfgs = [_train_config(args, seed=seed, ratio=r) for seed in seeds for r in (None, 1.0)]
    reports = _train_and_eval(args, cfgs)
    rows = []
    for seed in seeds:
        on, off = next(reports).auc_roc, next(reports).auc_roc
        rows.append((seed, on, off, on - off))
        print(f"seed={seed}  attention on {on:.4f}  off {off:.4f}  delta {on - off:+.4f}")
    # after the runs, each of which reads the training feature files
    _write_csv(_out_dir(args) / "ablate.csv", ["seed", "auc_tsa_on", "auc_tsa_off", "delta"], rows)
    mean_delta = float(np.mean([row[3] for row in rows]))
    print(f"mean delta over {len(seeds)} seeds: {mean_delta:+.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsvad",
        description="Weakly-supervised video anomaly detection on snippet features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    train_defaults = vars(TRAIN_DEFAULTS) | vars(TRAIN_DEFAULTS.tsa)

    p = sub.add_parser("gen", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    _add_flags(p, GEN_FLAGS, vars(SyntheticConfig()))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="fit a detector and write a checkpoint")
    p.add_argument("--manifest", required=True, help="path to the train manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=TRAIN_DEFAULTS.seed)
    p.add_argument("--val-manifest", default=None)
    p.add_argument("--val-every", type=int, default=0, help="epochs between validations; needs --val-manifest")
    _add_flags(p, TRAIN_FLAGS, train_defaults)
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
    _add_flags(p, TRAIN_FLAGS, train_defaults, skip="--r")  # each run's ratio comes from --r-grid
    p.set_defaults(func=_cmd_sweep_r)

    p = sub.add_parser("ablate", help="paired attention on/off runs over seeds")
    p.add_argument("--manifest", required=True, help="train manifest.json")
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="0,1,2,3,4")
    _add_flags(p, TRAIN_FLAGS, train_defaults)
    p.set_defaults(func=_cmd_ablate)

    for p in sub.choices.values():  # no abbreviations: `sweep-r --r` is not `--r-grid`
        p.allow_abbrev = False
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
