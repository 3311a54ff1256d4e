"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.attention import TsaConfig, topk_score
from wsvad.autograd import Tensor
from wsvad.cli import main as cli_main
from wsvad.evaluate import evaluate_manifest, unfold_scores
from wsvad.features import temporal_normalize
from wsvad.metrics import auc_pr, auc_roc
from wsvad.synthetic import SyntheticConfig, generate_synthetic, harder_config, load_ground_truth
from wsvad.trainer import TrainConfig, dmt_loss, separability, theorem1_probe, top_alpha_mean, train

from helpers import (
    ref_auc_pr_enumeration,
    ref_auc_roc_pairwise,
    ref_temporal_normalize,
    ref_unfold,
)
from test_autograd import run_gradient_sweep

END_TO_END_SEEDS = (0, 1, 2)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    badge = "PASS" if ok else "FAIL"
    print(f"[{badge}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acc_default")
    cfg = SyntheticConfig(seed=7)  # d=32, delta=16, 100+100, eps 2..5
    train_m, test_m = generate_synthetic(cfg, tmp)
    gt = load_ground_truth(tmp / "test" / "ground_truth.json")
    return tmp, train_m, test_m, gt


def test_criterion_01_autodiff_soundness():
    started = time.perf_counter()
    worst = run_gradient_sweep(instances=15)  # 15 instances x 7 op families >= 100
    elapsed = time.perf_counter() - started
    report(
        "1. autodiff gradients match 64-bit finite differences (rel err < 1e-3)",
        worst < 1e-3 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_temporal_normalize_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        t_in = int(rng.integers(1, 98))
        d = int(rng.integers(1, 9))
        feats = rng.normal(size=(t_in, d)).astype(np.float32)
        if not np.array_equal(temporal_normalize(feats, 32), ref_temporal_normalize(feats, 32)):
            mismatches += 1
    ident = np.random.default_rng(1).normal(size=(32, 5)).astype(np.float32)
    identity_ok = np.array_equal(temporal_normalize(ident, 32), ident)
    report(
        "2. temporal resize equals brute-force chunk averaging on 1000 instances",
        mismatches == 0 and identity_ok,
        f"{mismatches} mismatches; identity {'ok' if identity_ok else 'broken'}",
    )


def test_criterion_03_topk_structure():
    rng = np.random.default_rng(3)
    ok = True
    detail = ""
    for t_len in range(1, 9):
        for kappa in range(1, t_len + 1):
            omega = rng.uniform(0, 1, t_len)
            sel = topk_score(omega, kappa, 64, 0.2, rng)
            if not np.allclose(sel.vhat.sum(axis=1), 1.0, atol=1e-6):
                ok, detail = False, f"row sums broken at T={t_len}, kappa={kappa}"
            if kappa == t_len:
                feats = rng.normal(size=(t_len, 3)).astype(np.float32)
                fused = sel.inclusion[:, None] * feats
                if not np.allclose(fused, feats, atol=1e-6):
                    ok, detail = False, f"full-selection identity broken at T={t_len}"
            hard = topk_score(omega, kappa, 16, 0.0)
            expect = np.argsort(-omega, kind="stable")[:kappa]
            if not np.array_equal(np.argmax(hard.vhat, axis=1), expect):
                ok, detail = False, f"hard selection order broken at T={t_len}, kappa={kappa}"
            tied = topk_score(np.zeros(t_len), kappa, 4, 0.0)
            if not np.array_equal(np.argmax(tied.vhat, axis=1), np.arange(kappa)):
                ok, detail = False, f"tie-breaking broken at T={t_len}, kappa={kappa}"
    report("3. soft-selection structure exhaustively checked for T <= 8", ok, detail)


def test_criterion_04_perturbed_topk_gradient():
    started = time.perf_counter()
    t_len, kappa, sigma, m = 6, 3, 0.2, 100_000
    rng = np.random.default_rng(4)
    omega = rng.uniform(0.2, 0.8, t_len)
    z = rng.standard_normal((m, t_len))
    sel = topk_score(omega, kappa, m, sigma, noise=z)
    v = sel.sample_inclusion()
    h = 0.02
    worst_sigma_ratio = 0.0
    for s in range(t_len):
        plus, minus = omega.copy(), omega.copy()
        plus[s] += h
        minus[s] -= h
        v_plus = topk_score(plus, kappa, m, sigma, noise=z).sample_inclusion()
        v_minus = topk_score(minus, kappa, m, sigma, noise=z).sample_inclusion()
        diff = v * z[:, s : s + 1] / sigma - (v_plus - v_minus) / (2 * h)
        mean = diff.mean(axis=0)
        se = diff.std(axis=0, ddof=1) / np.sqrt(m)
        worst_sigma_ratio = max(worst_sigma_ratio, float(np.max(np.abs(mean) / np.maximum(se, 1e-12))))
    elapsed = time.perf_counter() - started
    report(
        "4. Monte-Carlo selection Jacobian matches finite differences (3 SE)",
        worst_sigma_ratio <= 3.0 and elapsed < 60.0,
        f"worst |mean|/SE {worst_sigma_ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_05_loss_oracles():
    rng = np.random.default_rng(5)
    exact = True
    for _ in range(1000):
        t_len = int(rng.integers(1, 12))
        alpha = int(rng.integers(1, t_len + 1))
        d = int(rng.integers(1, 5))
        x = rng.normal(size=(t_len, d)).astype(np.float32)
        order = sorted(range(t_len), key=lambda i: (-np.linalg.norm(x[i].astype(np.float64)), i))
        want = x[order[:alpha]].astype(np.float64).mean(axis=0).astype(np.float32)
        if not np.array_equal(top_alpha_mean(Tensor(x), alpha).data, want):
            exact = False
        y = rng.normal(size=(t_len, d)).astype(np.float32)
        lam = lambda arr: np.linalg.norm(arr[order_of(arr)[:alpha]].astype(np.float64).mean(axis=0).astype(np.float32).astype(np.float64))
        order_of = lambda arr: sorted(range(len(arr)), key=lambda i: (-np.linalg.norm(arr[i].astype(np.float64)), i))
        want_sep = np.float32(lam(x)) - np.float32(lam(y))
        got_sep = separability(Tensor(x), Tensor(y), alpha).item()
        if abs(got_sep - float(want_sep)) > 1e-6:
            exact = False

    import math

    ctx_neg = Tensor(np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5], [1.0, 1.0]]))
    ctx_pos = Tensor(np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
    u_neg = Tensor(np.array([[0.2], [0.6], [0.4], [0.3]]))
    u_pos = Tensor(np.array([[0.9], [0.1], [0.2], [0.5]]))
    cfg = TrainConfig(t_len=4, batch_bags=1, epochs=1, alpha=1, margin=4.0)
    loss = dmt_loss(ag.concat([ctx_neg, ctx_pos], axis=0), ag.concat([u_neg, u_pos], axis=0), 2, cfg).item()
    expected = 1.0 + (-math.log(1.0 - 0.6) - math.log(0.9)) / 2.0
    fixture_ok = abs(loss - expected) < 1e-6
    report(
        "5. top-alpha/separability match brute force; loss matches hand fixture",
        exact and fixture_ok,
        f"hand fixture |diff| {abs(loss - expected):.2e}",
    )


def test_criterion_06_expected_separability_shape():
    started = time.perf_counter()
    res = theorem1_probe(
        d=32, t_len=32, eps=5, alphas=[1, 2, 3, 4, 5, 32],
        trials=10_000, anomaly_shift=10.0, seed=6,
    )
    ok = True
    detail = []
    for i in range(4):
        mean_diff, se = res.paired_diff(i + 1, i)
        if mean_diff < -3 * se:
            ok = False
            detail.append(f"alpha {res.alphas[i]}->{res.alphas[i+1]} fell by {-mean_diff:.4f}")
    drop, se = res.paired_diff(4, 5)
    if drop <= 3 * se:
        ok = False
        detail.append("alpha=32 not below alpha=5")
    elapsed = time.perf_counter() - started
    report(
        "6. expected separability rises to eps then shrinks by alpha=T (3 SE)",
        ok and elapsed < 60.0,
        "; ".join(detail) or f"{elapsed:.1f}s",
    )


def test_criterion_07_metric_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 200))
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        scores = np.round(rng.random(n), int(rng.integers(1, 3)))  # plenty of ties
        worst = max(worst, abs(auc_roc(scores, labels) - ref_auc_roc_pairwise(scores, labels)))
        worst = max(worst, abs(auc_pr(scores, labels) - ref_auc_pr_enumeration(scores, labels)))
    report(
        "7. ROC matches pairwise oracle, PR matches threshold enumeration (1e-9)",
        worst < 1e-9,
        f"worst |diff| {worst:.2e}",
    )


def test_criterion_08_unfold_oracle():
    rng = np.random.default_rng(8)
    mismatches = 0
    for _ in range(1000):
        t_k = int(rng.integers(1, 30))
        delta = int(rng.integers(1, 20))
        n = int(rng.integers(max(1, delta * (t_k - 1)), delta * t_k + delta))
        values = rng.random(t_k)
        if not np.array_equal(unfold_scores(values, delta, n), ref_unfold(values, delta, n)):
            mismatches += 1
    report("8. score unfolding matches per-frame expansion on 1000 triples", mismatches == 0,
           f"{mismatches} mismatches")


def test_criterion_09_end_to_end_training(default_dataset):
    tmp, train_m, test_m, gt = default_dataset
    results = []
    ok = True
    for seed in END_TO_END_SEEDS:
        started = time.perf_counter()
        cfg = TrainConfig(t_len=16, tsa=TsaConfig(seed=seed), seed=seed)
        trained = train(train_m, tmp / "train", cfg)
        rep, _, _ = evaluate_manifest(test_m, tmp / "test", trained.model, gt, eval_seed=0)
        elapsed = time.perf_counter() - started
        results.append((seed, rep.auc_roc, elapsed))
        if rep.auc_roc < 0.95 or elapsed >= 120.0:
            ok = False
    detail = ", ".join(f"seed {s}: AUC {a:.4f} in {t:.0f}s" for s, a, t in results)
    report("9. synthetic end-to-end training reaches frame AUC >= 0.95 (3 seeds, <2min each)", ok, detail)


def test_criterion_10_attention_ablation_direction(tmp_path):
    cfg = harder_config()
    train_m, test_m = generate_synthetic(cfg, tmp_path)
    gt = load_ground_truth(tmp_path / "test" / "ground_truth.json")
    deltas = []
    for seed in range(5):
        aucs = {}
        for enabled in (True, False):  # off is ratio 1.0
            tsa = TsaConfig(seed=seed) if enabled else TsaConfig(seed=seed, ratio=1.0)
            tcfg = TrainConfig(t_len=16, tsa=tsa, seed=seed)
            trained = train(train_m, tmp_path / "train", tcfg)
            rep, _, _ = evaluate_manifest(test_m, tmp_path / "test", trained.model, gt, eval_seed=0)
            aucs[enabled] = rep.auc_roc
        deltas.append(aucs[True] - aucs[False])
    mean_delta = float(np.mean(deltas))
    report(
        "10. attention on/off ablation: mean AUC delta over 5 seeds >= 0",
        mean_delta >= 0.0,
        f"mean delta {mean_delta:+.4f} ({', '.join(f'{d:+.4f}' for d in deltas)})",
    )


def test_criterion_11_cli_determinism(tmp_path):
    gen_flags = [
        "--seed", "5", "--d", "16", "--delta", "8", "--n-normal", "8", "--n-abnormal", "8",
        "--frames", "64", "128", "--eps", "2", "4", "--shift", "3.0",
    ]
    train_flags = ["--epochs", "15", "--batch", "2", "--t", "8", "--samples", "32", "--seed", "3"]

    def run(tag: str) -> Path:
        root = tmp_path / tag
        assert cli_main(["gen", "--out", str(root / "data"), *gen_flags]) == 0
        assert cli_main([
            "train", "--manifest", str(root / "data" / "train" / "manifest.json"),
            "--out", str(root / "run"), *train_flags,
        ]) == 0
        assert cli_main([
            "eval", "--manifest", str(root / "data" / "test" / "manifest.json"),
            "--checkpoint", str(root / "run" / "checkpoint.vadc"),
            "--out", str(root / "ev"), "--seed", "2",
        ]) == 0
        return root

    a, b = run("a"), run("b")
    pairs = [
        (pa, b / pa.relative_to(a))
        for pa in sorted(p for p in a.rglob("*") if p.is_file())
    ]
    bad = [str(pa.relative_to(a)) for pa, pb in pairs if not filecmp.cmp(pa, pb, shallow=False)]
    report(
        "11. gen/train/eval artifacts byte-identical across repeated seeded runs",
        not bad,
        f"{len(pairs)} files compared" + (f"; differing: {bad[:3]}" if bad else ""),
    )
