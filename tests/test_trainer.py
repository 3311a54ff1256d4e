"""Batch assembly, the difference-maximization loss, and the training loop."""

import math

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.attention import TsaConfig, tsa_fuse
from wsvad.autograd import Tensor
from wsvad import trainer as trainer_module
from wsvad.features import load_features, load_records, save_features, temporal_normalize
from wsvad.model import init_model
from wsvad.nn import conv_module_forward, conv_module_init, mlp_forward
from wsvad.synthetic import SyntheticConfig, generate_synthetic
from wsvad.trainer import (
    TrainConfig,
    build_batch,
    dmt_loss,
    separability,
    theorem1_probe,
    top_alpha_mean,
    train,
)

from helpers import engine_grads, max_rel_err, read_only_gradients, ref_dmt_loss, stack


def make_records(tmp_path, **kw):
    cfg_kw = dict(
        n_normal=6,
        n_abnormal=6,
        d=8,
        snippet_len=4,
        frame_range=(40, 80),
        eps_range=(2, 3),
        anomaly_shift=3.0,
        seed=11,
    )
    cfg_kw.update(kw)
    cfg = SyntheticConfig(**cfg_kw)
    train_m, _ = generate_synthetic(cfg, tmp_path)
    return load_records(train_m, tmp_path / "train"), train_m


def resized(records, t_len):
    """The (N, T, d) training array and (N,) labels ``train`` builds."""
    return np.stack([temporal_normalize(r.features, t_len) for r in records]), np.array([r.label for r in records])


class TestBuildBatch:
    def test_layout_contract(self, tmp_path):
        records, _ = make_records(tmp_path)
        videos, labels = resized(records, 8)
        for seed in range(5):
            batch = build_batch(videos, labels, 4, np.random.default_rng(seed))
            assert np.all(batch.labels == np.repeat([0, 1], 4))
            assert np.array_equal(labels[batch.videos], batch.labels)
            # six videos per class: four drawn without replacement
            assert len(set(batch.videos[:4])) == 4 and len(set(batch.videos[4:])) == 4
            assert batch.features.shape == (8 * 8, 8)
            assert np.array_equal(batch.features.data, videos[batch.videos].reshape(64, 8))

    def test_single_pair_is_deterministic(self, tmp_path):
        records, _ = make_records(tmp_path, n_normal=1, n_abnormal=1)
        videos, labels = resized(records, 6)
        a = build_batch(videos, labels, 1, np.random.default_rng(0))
        b = build_batch(videos, labels, 1, np.random.default_rng(123))
        assert np.array_equal(a.videos, b.videos)
        assert np.array_equal(a.features.data, b.features.data)

    def test_replayed_stream_matches(self, tmp_path):
        records, _ = make_records(tmp_path)
        videos, labels = resized(records, 8)

        def draws(seed, n=500):
            rng = np.random.default_rng(seed)
            return [tuple(build_batch(videos, labels, 2, rng).videos) for _ in range(n)]

        assert draws(42) == draws(42)

    def test_missing_class_rejected(self, tmp_path):
        records, _ = make_records(tmp_path)
        videos, labels = resized(records, 8)
        normal = labels == 0
        with pytest.raises(ValueError, match="both classes"):
            build_batch(videos[normal], labels[normal], 2, np.random.default_rng(0))

    def test_training_resizes_each_video_once(self, tmp_path, monkeypatch):
        records, manifest = make_records(tmp_path)
        calls = []

        def counting(features, t_out):
            calls.append(features.shape[0])
            return temporal_normalize(features, t_out)

        monkeypatch.setattr(trainer_module, "temporal_normalize", counting)
        train(manifest, tmp_path / "train", TrainConfig(t_len=8, batch_bags=2, epochs=5, seed=0))
        assert calls == [r.features.shape[0] for r in records]

    def test_sampling_with_replacement_when_scarce(self, tmp_path):
        records, _ = make_records(tmp_path, n_normal=1, n_abnormal=1)
        videos, labels = resized(records, 8)
        batch = build_batch(videos, labels, 4, np.random.default_rng(0))
        # 1 video per class reused
        assert batch.videos.tolist() == [np.flatnonzero(labels == 0)[0]] * 4 + [np.flatnonzero(labels == 1)[0]] * 4
        assert batch.features.shape == (8 * 8, 8)


class TestTopAlphaMean:
    def test_full_selection_is_plain_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        got = top_alpha_mean(Tensor(x), 5)
        np.testing.assert_allclose(got.data, x.mean(axis=0), atol=1e-6)

    def test_hand_case(self):
        x = Tensor(np.array([[5.0], [1.0], [3.0]]))
        assert top_alpha_mean(x, 2).data.tolist() == [4.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t_len = int(rng.integers(1, 12))
            alpha = int(rng.integers(1, t_len + 1))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(t_len, d)).astype(np.float32)
            got = top_alpha_mean(Tensor(x), alpha).data
            order = sorted(range(t_len), key=lambda i: (-np.linalg.norm(x[i].astype(np.float64)), i))
            want = x[order[:alpha]].astype(np.float64).mean(axis=0)
            np.testing.assert_array_equal(got, want.astype(np.float32))

    def test_gradient_only_into_selected_rows(self):
        x = Tensor(np.array([[3.0, 0.0], [0.1, 0.0], [2.0, 0.0]]), requires_grad=True)
        ag.backward(top_alpha_mean(x, 2).sum())
        assert np.all(x.grad[1] == 0.0)
        assert np.all(x.grad[[0, 2]] == 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            top_alpha_mean(Tensor(np.ones((3, 2))), 4)


class TestSeparability:
    def test_identical_bags_zero(self):
        x = Tensor(np.random.default_rng(2).normal(size=(6, 4)).astype(np.float32))
        assert separability(x, x, 3).item() == 0.0

    def test_homogeneity_under_doubling(self):
        x = np.random.default_rng(3).normal(size=(6, 4)).astype(np.float32)
        sep = separability(Tensor(2.0 * x), Tensor(x), 3)
        base = ag.l2_norm(top_alpha_mean(Tensor(x), 3))
        assert sep.item() == base.item()

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        b = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        assert separability(a, b, 2).item() == -separability(b, a, 2).item()

    def test_width_mismatch(self):
        with pytest.raises(ag.ShapeError):
            separability(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 2))), 1)


def loss_cfg(**kw):
    base = dict(t_len=4, batch_bags=1, epochs=1, alpha=1, margin=4.0)
    base.update(kw)
    return TrainConfig(**base)


class TestDmtLoss:
    def test_hand_fixture(self):
        """B=1, T=4, d=2, alpha=1, margin=4, hand-evaluated."""
        ctx_neg = Tensor(np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5], [1.0, 1.0]]))
        ctx_pos = Tensor(np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        u_neg = Tensor(np.array([[0.2], [0.6], [0.4], [0.3]]))
        u_pos = Tensor(np.array([[0.9], [0.1], [0.2], [0.5]]))
        loss = dmt_loss(stack([ctx_neg, ctx_pos]), stack([u_neg, u_pos]), np.array([0, 1]), loss_cfg())
        # top-1 magnitudes: |[0,2]| = 2 and |[3,4]| = 5 -> hinge = 4 - (5-2) = 1
        # video scores (top-1 snippet by magnitude): 0.6 and 0.9
        expected = 1.0 + (-math.log(1.0 - 0.6) - math.log(0.9)) / 2.0
        assert abs(loss.item() - expected) < 1e-6

    def test_saturated_hinge_and_confident_scores(self):
        ctx_neg = Tensor(np.zeros((4, 2), dtype=np.float32))
        ctx_pos = Tensor(100.0 * np.ones((4, 2), dtype=np.float32))
        u_neg = Tensor(np.full((4, 1), 1e-7, dtype=np.float32))
        u_pos = Tensor(np.full((4, 1), 1.0 - 1e-7, dtype=np.float32))
        loss = dmt_loss(stack([ctx_neg, ctx_pos]), stack([u_neg, u_pos]), np.array([0, 1]), loss_cfg())
        assert 0.0 <= loss.item() < 1e-4

    def test_identical_bags_margin_exact(self):
        x = Tensor(np.random.default_rng(5).normal(size=(4, 2)).astype(np.float32))
        u = Tensor(np.full((4, 1), 0.5, dtype=np.float32))
        loss = dmt_loss(stack([x, x]), stack([u, u]), np.array([0, 1]), loss_cfg(w_bce=0.0))
        assert loss.item() == 4.0

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ctx = [Tensor(rng.normal(size=(4, 2)).astype(np.float32)) for _ in range(4)]
            u = [Tensor(rng.uniform(0.01, 0.99, size=(4, 1)).astype(np.float32)) for _ in range(4)]
            cfg = loss_cfg(batch_bags=2, margin=float(rng.uniform(0, 10)))
            loss = dmt_loss(stack(ctx), stack(u), np.array([0, 0, 1, 1]), cfg)
            assert loss.item() >= 0.0

    def test_batch_order_invariance(self):
        """With every hinge active, shuffling bags within each class leaves
        the loss unchanged."""
        rng = np.random.default_rng(7)
        b = 3
        ctx = [Tensor(rng.normal(size=(5, 3)).astype(np.float32)) for _ in range(2 * b)]
        u = [Tensor(rng.uniform(0.2, 0.8, size=(5, 1)).astype(np.float32)) for _ in range(2 * b)]
        labels = np.repeat([0, 1], b)
        cfg = loss_cfg(batch_bags=b, margin=1000.0)  # far from saturation
        base = dmt_loss(stack(ctx), stack(u), labels, cfg).item()
        perm_n = rng.permutation(b)
        perm_a = b + rng.permutation(b)
        order = np.concatenate([perm_n, perm_a])
        shuffled = dmt_loss(stack([ctx[i] for i in order]), stack([u[i] for i in order]), labels, cfg).item()
        assert abs(base - shuffled) < 1e-6 * max(1.0, abs(base))

    def test_layout_violation_rejected(self):
        x = Tensor(np.ones((4, 2), dtype=np.float32))
        u = Tensor(np.full((4, 1), 0.5, dtype=np.float32))
        with pytest.raises(ValueError, match="layout"):
            dmt_loss(stack([x, x]), stack([u, u]), np.array([1, 0]), loss_cfg())


class TestStackedLoss:
    """The stacked loss against the bag-by-bag reference in helpers."""

    @pytest.mark.parametrize("b, t_len, d, alpha", [(1, 4, 2, 1), (2, 5, 3, 3), (4, 7, 6, 2), (3, 6, 4, 6)])
    def test_matches_per_bag_reference(self, b, t_len, d, alpha):
        rng = np.random.default_rng(100 + b)
        labels = np.repeat([0, 1], b)
        for trial in range(5):
            ctx = rng.normal(size=(2 * b, t_len, d)).astype(np.float32) * (1.0 + trial)
            u = rng.uniform(0.01, 0.99, size=(2 * b, t_len, 1)).astype(np.float32)
            # a margin inside the spread of separabilities leaves some hinges active, some not
            cfg = loss_cfg(t_len=t_len, batch_bags=b, alpha=alpha, margin=float(rng.uniform(0, 2 * d)),
                           w_margin=float(rng.uniform(0.5, 2)), w_bce=float(rng.uniform(0.5, 2)))

            ctx_s = Tensor(ctx.reshape(-1, d), requires_grad=True)
            u_s = Tensor(u.reshape(-1, 1), requires_grad=True)
            got = dmt_loss(ctx_s, u_s, labels, cfg)
            ag.backward(got)

            ctx_b = [Tensor(c, requires_grad=True) for c in ctx]
            u_b = [Tensor(v, requires_grad=True) for v in u]
            want = ref_dmt_loss(ctx_b, u_b, labels, cfg)
            ag.backward(want)

            assert max_rel_err(got.data, want.data) < 1e-6
            grads = lambda ts: np.concatenate([t.grad if t.grad is not None else np.zeros_like(t.data) for t in ts])
            assert max_rel_err(ctx_s.grad, grads(ctx_b)) < 1e-6
            assert max_rel_err(u_s.grad, grads(u_b)) < 1e-6

    def test_one_bag_helpers_agree_with_the_stacked_loss(self):
        """separability feeds the hinge: with the BCE off and every hinge
        active, the loss is margin minus the mean separability."""
        rng = np.random.default_rng(12)
        ctx = [Tensor(rng.normal(size=(5, 3)).astype(np.float32)) for _ in range(4)]
        u = [Tensor(np.full((5, 1), 0.5, dtype=np.float32)) for _ in range(4)]
        cfg = loss_cfg(t_len=5, batch_bags=2, alpha=2, margin=100.0, w_bce=0.0)
        seps = [separability(ctx[2 + i], ctx[i], 2).item() for i in range(2)]
        loss = dmt_loss(stack(ctx), stack(u), np.array([0, 0, 1, 1]), cfg).item()
        assert abs(loss - (100.0 - np.mean(seps))) < 1e-5

    def test_rows_must_split_into_bags(self):
        x = Tensor(np.ones((7, 2), dtype=np.float32))
        u = Tensor(np.full((7, 1), 0.5, dtype=np.float32))
        with pytest.raises(ag.ShapeError):
            dmt_loss(x, u, np.array([0, 1]), loss_cfg())
        with pytest.raises(ValueError, match="scores"):
            dmt_loss(Tensor(np.ones((8, 2))), u, np.array([0, 1]), loss_cfg())


class TestConvModule:
    def test_zero_init_is_identity(self):
        mod = conv_module_init(8, np.random.default_rng(0))
        for t in [*mod.conv_w, *mod.conv_b, mod.w_theta, mod.w_phi, mod.w_g]:
            t.data = np.zeros_like(t.data)
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)).astype(np.float32))
        out = conv_module_forward(mod, x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_width_must_divide_by_four(self):
        with pytest.raises(ValueError):
            conv_module_init(6, np.random.default_rng(0))

    def test_per_bag_independence(self):
        mod = conv_module_init(8, np.random.default_rng(2))
        rng = np.random.default_rng(3)
        bags = [Tensor(rng.normal(size=(4, 8)).astype(np.float32)) for _ in range(3)]
        outs = [conv_module_forward(mod, b).data for b in bags]
        for perm in ([2, 0, 1], [1, 2, 0]):
            permuted = [conv_module_forward(mod, bags[i]).data for i in perm]
            for j, i in enumerate(perm):
                np.testing.assert_array_equal(permuted[j], outs[i])
        # the same bags stacked and run as one batch
        stacked = conv_module_forward(mod, ag.concat(bags, axis=0), len(bags)).data
        np.testing.assert_allclose(stacked, np.concatenate(outs), rtol=1e-6, atol=1e-6)

    def test_stacked_batch_grad_matches_per_bag(self):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(2, 8)) for _ in range(3)]
        with ag.using_dtype(np.float64):
            mod = conv_module_init(8, np.random.default_rng(7))
            bags = [Tensor(a, requires_grad=True) for a in arrays]
            per_bag = [conv_module_forward(mod, b) for b in bags]
            ag.backward(ag.l2_norm(ag.concat(per_bag, axis=0)))
            want = [b.grad.copy() for b in bags] + [p.grad.copy() for p in mod.named_params("m").values()]
            ag.zero_grad(mod.named_params("m").values())
            x = Tensor(np.concatenate(arrays), requires_grad=True)
            ag.backward(ag.l2_norm(conv_module_forward(mod, x, 3)))
            got = list(np.split(x.grad, 3)) + [p.grad for p in mod.named_params("m").values()]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)

    def test_gradcheck_against_engine_fd(self):
        rng = np.random.default_rng(4)
        x64 = rng.normal(size=(4, 8))

        with ag.using_dtype(np.float64):
            mod = conv_module_init(8, np.random.default_rng(5))
            x = Tensor(x64, requires_grad=True)
            ag.backward(ag.l2_norm(conv_module_forward(mod, x)))
            analytic = x.grad.copy()

            def value(arr):
                with ag.no_grad():
                    return float(ag.l2_norm(conv_module_forward(mod, Tensor(arr))).data)

            h = 1e-5
            fd = np.zeros_like(x64)
            for i in range(x64.size):
                xp = x64.copy()
                xp.flat[i] += h
                xm = x64.copy()
                xm.flat[i] -= h
                fd.flat[i] = (value(xp) - value(xm)) / (2 * h)
        assert max_rel_err(analytic, fd) < 1e-3


class TestTrainLoop:
    def test_zero_lr_is_fixed_point(self, tmp_path):
        records, manifest = make_records(tmp_path)
        cfg = TrainConfig(t_len=8, batch_bags=2, epochs=3, lr=0.0, seed=3)
        result = train(manifest, tmp_path / "train", cfg)
        reference = init_model(
            manifest.d, cfg.tsa, np.random.SeedSequence(3).spawn(4)[0], tsa_enabled=True
        )
        got = result.model.named_params()
        want = reference.named_params()
        for name in want:
            np.testing.assert_array_equal(got[name].data, want[name].data)

    def test_numerics_error_names_the_epoch(self, tmp_path):
        _, manifest = make_records(tmp_path)
        cfg = TrainConfig(t_len=8, batch_bags=2, epochs=5, seed=3)

        def poison_after_epoch_two(model):
            # val_fn runs at the end of each epoch; a NaN weight breaks the next forward
            calls.append(1)
            if len(calls) == 2:
                model.classifier.weights[0].data[0, 0] = np.nan
            return 0.0

        calls = []
        with pytest.raises(ag.NumericsError, match=r"^epoch 3: batch videos '[^']+'(, '[^']+'){3}: non-finite values"):
            train(manifest, tmp_path / "train", cfg, val_fn=poison_after_epoch_two, val_every=1)

    def test_non_finite_features_name_the_epoch(self, tmp_path):
        # the batch tensor itself is rejected, so there is no batch to name
        _, manifest = make_records(tmp_path)
        entry = manifest.videos[0]
        feats = load_features(tmp_path / "train" / entry.path)
        feats[0, 0] = np.nan
        save_features(feats, tmp_path / "train" / entry.path)
        cfg = TrainConfig(t_len=8, batch_bags=6, epochs=2, seed=3)
        with pytest.raises(ag.NumericsError, match=r"^epoch 1: non-finite values produced by 'tensor'"):
            train(manifest, tmp_path / "train", cfg)

    def test_loss_decreases(self, tmp_path):
        _, manifest = make_records(tmp_path, n_normal=20, n_abnormal=20)
        cfg = TrainConfig(t_len=8, batch_bags=4, epochs=60, seed=0)
        result = train(manifest, tmp_path / "train", cfg)
        first = np.mean([r["loss"] for r in result.log[:5]])
        last = np.mean([r["loss"] for r in result.log[-5:]])
        assert last < first

    def test_full_selection_matches_disabled_attention(self, tmp_path):
        """kappa = T makes the attention stage exactly transparent, so the
        loss trajectory must match a run with the stage disabled."""
        _, manifest = make_records(tmp_path)
        losses = {}
        for enabled in (True, False):
            cfg = TrainConfig(
                t_len=8,
                batch_bags=2,
                epochs=5,
                tsa=TsaConfig(num_samples=8, ratio=1.0, sigma_noise=0.3, seed=0),
                tsa_enabled=enabled,
                seed=9,
            )
            result = train(manifest, tmp_path / "train", cfg)
            losses[enabled] = [r["loss"] for r in result.log]
        assert losses[True] == losses[False]

    def test_seed_reproducibility(self, tmp_path):
        _, manifest = make_records(tmp_path)
        cfg = TrainConfig(t_len=8, batch_bags=2, epochs=4, seed=21)
        a = train(manifest, tmp_path / "train", cfg)
        b = train(manifest, tmp_path / "train", cfg)
        assert [r["loss"] for r in a.log] == [r["loss"] for r in b.log]
        pa, pb = a.model.named_params(), b.model.named_params()
        for name in pa:
            assert np.array_equal(pa[name].data, pb[name].data)

    def test_val_hook_runs(self, tmp_path):
        _, manifest = make_records(tmp_path)
        cfg = TrainConfig(t_len=8, batch_bags=2, epochs=4, seed=0)
        result = train(manifest, tmp_path / "train", cfg, val_fn=lambda m: 0.5, val_every=2)
        assert [r.get("val_auc") for r in result.log] == [None, 0.5, None, 0.5]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=40, t_len=32)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)


class TestTrainingStepCost:
    """One step at the acceptance shape (d=32, T=16, B=8)."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("step")
        manifest, _ = generate_synthetic(SyntheticConfig(n_normal=8, n_abnormal=8, seed=3), root)
        return manifest, root / "train"

    def test_nodes_checks_and_copies_are_pinned(self, manifest, monkeypatch):
        """A change that adds finiteness checks or gradient copies to a
        training step, or nodes to its graph, must change these on purpose."""
        counts = dict(nodes=0, checks=0, copies=0)
        ensure_finite, own_copy, backward = ag._ensure_finite, ag._own_copy, ag.backward

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        def counting_backward(loss):
            seen, stack_ = set(), [loss]
            while stack_:
                t = stack_.pop()
                if id(t) not in seen and t._rec is not None:
                    seen.add(id(t))
                    stack_.extend(t._rec.parents)
            counts["nodes"] += len(seen)
            backward(loss)

        monkeypatch.setattr(ag, "_ensure_finite", counting("checks", ensure_finite))
        monkeypatch.setattr(ag, "_own_copy", counting("copies", own_copy))
        monkeypatch.setattr(ag, "backward", counting_backward)

        def run(epochs):
            counts.update(nodes=0, checks=0, copies=0)
            train(*manifest, TrainConfig(t_len=16, batch_bags=8, epochs=epochs, seed=1))
            return dict(counts)

        one, two = run(1), run(2)
        per_step = {key: two[key] - one[key] for key in counts}
        # nodes: scorer 3 linear, attention 1, context module 6 (3 convs
        # with bias, nonlocal_attention, concat, residual add), classifier 5
        # (3 linear, 2 dropout), loss 20.
        # 32 forward checks: the batch tensor 1, scorer 3, attention 1,
        # context module 6 (3 convs, the attention's logits and output, the
        # residual add), classifier 5 (3 linear, 2 dropout), loss 16.
        # 45 gradient checks: loss 12, classifier 11 (3 per linear, 1 per
        # dropout), context module 13 (3 per conv, 4 from nonlocal_attention),
        # attention 1, scorer 8 (no gradient for the constant batch).
        # One copy per parameter.
        assert per_step == dict(nodes=35, checks=77, copies=21)

    def test_no_vjp_writes_into_its_incoming_gradient(self, manifest):
        cfg = TrainConfig(t_len=16, batch_bags=8, epochs=2, seed=1)
        with read_only_gradients():
            guarded = train(*manifest, cfg)
        plain = train(*manifest, cfg)
        assert guarded.log == plain.log
        for name, p in plain.model.named_params().items():
            assert np.array_equal(guarded.model.named_params()[name].data, p.data), name


class TestEndToEndGradientIntegrity:
    def test_pipeline_grads_match_engine_fd(self):
        """Deterministic tiny instance (B=1, T=4, d=4): with a constant
        (kappa = T) selection and dropout off, analytic gradients of the full
        loss agree with finite differences for scorer, context module, and
        classifier parameters."""
        rng = np.random.default_rng(8)
        bags64 = [rng.normal(size=(4, 4)) for _ in range(2)]
        labels = np.array([0, 1])
        cfg = TrainConfig(
            t_len=4,
            batch_bags=1,
            epochs=1,
            alpha=1,
            margin=2.0,
            tsa=TsaConfig(num_samples=3, ratio=1.0, sigma_noise=0.5, seed=0),
        )
        zeros = np.zeros((3, 4))

        with ag.using_dtype(np.float64):
            model = init_model(4, cfg.tsa, np.random.SeedSequence(17), scorer_hidden=(6, 5))

            def forward():
                ctx_feats, scores = [], []
                for arr in bags64:
                    bag = Tensor(arr)
                    omega = mlp_forward(model.scorer, bag)
                    fhat, _ = tsa_fuse(bag, omega, cfg.tsa, noise=zeros)
                    ctx = conv_module_forward(model.conv, fhat)
                    ctx_feats.append(ctx)
                    scores.append(mlp_forward(model.classifier, ctx))
                return dmt_loss(stack(ctx_feats), stack(scores), labels, cfg)

            loss = forward()
            ag.backward(loss)
            params = model.named_params()
            analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}

            h = 1e-5
            worst = 0.0
            for name, p in params.items():
                idx = np.random.default_rng(hash(name) % 2**32).choice(p.data.size, size=min(4, p.data.size), replace=False)
                for i in idx:
                    orig = p.data.flat[i]
                    p.data.flat[i] = orig + h
                    with ag.no_grad():
                        fp = float(forward().data)
                    p.data.flat[i] = orig - h
                    with ag.no_grad():
                        fm = float(forward().data)
                    p.data.flat[i] = orig
                    fd = (fp - fm) / (2 * h)
                    worst = max(worst, max_rel_err(analytic[name].flat[i], fd))
        assert worst < 1e-3


class TestTheoremProbe:
    def test_monotone_up_to_eps_and_dilution_after(self):
        res = theorem1_probe(
            d=32, t_len=32, eps=5, alphas=[1, 2, 3, 4, 5, 32],
            trials=4000, anomaly_shift=10.0, seed=0,
        )
        for i in range(4):
            mean_diff, se = res.paired_diff(i + 1, i)
            assert mean_diff >= -3 * se, f"alpha {i+1}->{i+2} decreased"
        drop, se = res.paired_diff(4, 5)  # alpha=5 minus alpha=32
        assert drop > 3 * se

    def test_no_dilution_collapse_when_every_snippet_is_abnormal(self):
        """With eps = T there are no normal snippets to dilute the positive
        bag: the curve rises early and must stay near its peak instead of
        collapsing toward zero the way eps < T curves do. (The literal
        pointwise non-decrease does not hold for this statistic: the radial
        selection bias fades as alpha grows, giving a ~1% dip at the tail.)"""
        res = theorem1_probe(
            d=32, t_len=12, eps=12, alphas=list(range(1, 13)),
            trials=3000, anomaly_shift=10.0, seed=1,
        )
        means = res.mean
        assert np.all(means > 0)
        for i in range(5):  # clearly rising over the first half
            mean_diff, se = res.paired_diff(i + 1, i)
            assert mean_diff >= -3 * se
        assert means[-1] > 0.9 * means.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_probe(d=4, t_len=8, eps=9, alphas=[1], trials=10, anomaly_shift=1.0)
        with pytest.raises(ValueError):
            theorem1_probe(d=4, t_len=8, eps=2, alphas=[0], trials=10, anomaly_shift=1.0)
