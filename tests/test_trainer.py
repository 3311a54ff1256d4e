"""Batch assembly, the difference-maximization loss, and the training loop."""

import math
import platform
import re
import tracemalloc

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.attention import TsaConfig, tsa_fuse
from wsvad.autograd import Tensor
from wsvad import trainer as trainer_module
from wsvad.features import FormatError, load_features, load_records, save_features, temporal_normalize
from wsvad.model import context_features, init_model
from wsvad.nn import conv_module_forward, mlp_forward
from wsvad.synthetic import SyntheticConfig, generate_synthetic
from wsvad.trainer import (
    CLASSIFIER_DROPOUT,
    TrainConfig,
    build_batch,
    dmt_loss,
    dmt_terms,
    forward_loss,
    separability,
    theorem1_probe,
    top_alpha_mean,
    top_alpha_rows,
    train,
)

from helpers import (
    attention_always_on,
    engine_grads,
    graph_nodes,
    max_rel_err,
    read_only_gradients,
    ref_dmt_loss,
    stack,
    unfused_dmt_terms,
)


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
            features, drawn = build_batch(videos, labels, 4, np.random.default_rng(seed))
            assert np.array_equal(labels[drawn], np.repeat([0, 1], 4))
            # six videos per class: four drawn without replacement
            assert len(set(drawn[:4])) == 4 and len(set(drawn[4:])) == 4
            assert features.shape == (8 * 8, 8)
            assert np.array_equal(features.data, videos[drawn].reshape(64, 8))

    def test_single_pair_is_deterministic(self, tmp_path):
        records, _ = make_records(tmp_path, n_normal=1, n_abnormal=1)
        videos, labels = resized(records, 6)
        a_features, a_drawn = build_batch(videos, labels, 1, np.random.default_rng(0))
        b_features, b_drawn = build_batch(videos, labels, 1, np.random.default_rng(123))
        assert np.array_equal(a_drawn, b_drawn)
        assert np.array_equal(a_features.data, b_features.data)

    def test_replayed_stream_matches(self, tmp_path):
        records, _ = make_records(tmp_path)
        videos, labels = resized(records, 8)

        def draws(seed, n=500):
            rng = np.random.default_rng(seed)
            return [tuple(build_batch(videos, labels, 2, rng)[1]) for _ in range(n)]

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
        features, drawn = build_batch(videos, labels, 4, np.random.default_rng(0))
        # 1 video per class reused
        assert drawn.tolist() == [np.flatnonzero(labels == 0)[0]] * 4 + [np.flatnonzero(labels == 1)[0]] * 4
        assert features.shape == (8 * 8, 8)


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

    def test_rank_three_rejected(self):
        message = re.escape("expected (T, d) features stacked along the rows, got (2, 3, 4)")
        with pytest.raises(ag.ShapeError, match=message):
            top_alpha_mean(Tensor(np.ones((2, 3, 4))), 1)


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
        loss = dmt_loss(stack([ctx_neg, ctx_pos]), stack([u_neg, u_pos]), 2, loss_cfg())
        # top-1 magnitudes: |[0,2]| = 2 and |[3,4]| = 5 -> hinge = 4 - (5-2) = 1
        # video scores (top-1 snippet by magnitude): 0.6 and 0.9
        expected = 1.0 + (-math.log(1.0 - 0.6) - math.log(0.9)) / 2.0
        assert abs(loss.item() - expected) < 1e-6

    def test_saturated_hinge_and_confident_scores(self):
        ctx_neg = Tensor(np.zeros((4, 2), dtype=np.float32))
        ctx_pos = Tensor(100.0 * np.ones((4, 2), dtype=np.float32))
        u_neg = Tensor(np.full((4, 1), 1e-7, dtype=np.float32))
        u_pos = Tensor(np.full((4, 1), 1.0 - 1e-7, dtype=np.float32))
        loss = dmt_loss(stack([ctx_neg, ctx_pos]), stack([u_neg, u_pos]), 2, loss_cfg())
        assert 0.0 <= loss.item() < 1e-4

    def test_identical_bags_margin_exact(self):
        x = Tensor(np.random.default_rng(5).normal(size=(4, 2)).astype(np.float32))
        u = Tensor(np.full((4, 1), 0.5, dtype=np.float32))
        _, margin_term, _ = dmt_terms(stack([x, x]), stack([u, u]), 2, loss_cfg())
        assert margin_term == 4.0

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ctx = [Tensor(rng.normal(size=(4, 2)).astype(np.float32)) for _ in range(4)]
            u = [Tensor(rng.uniform(0.01, 0.99, size=(4, 1)).astype(np.float32)) for _ in range(4)]
            cfg = loss_cfg(batch_bags=2, margin=float(rng.uniform(0, 10)))
            loss = dmt_loss(stack(ctx), stack(u), 4, cfg)
            assert loss.item() >= 0.0

    def test_batch_order_invariance(self):
        """With every hinge active, shuffling bags within each class leaves
        the loss unchanged."""
        rng = np.random.default_rng(7)
        b = 3
        ctx = [Tensor(rng.normal(size=(5, 3)).astype(np.float32)) for _ in range(2 * b)]
        u = [Tensor(rng.uniform(0.2, 0.8, size=(5, 1)).astype(np.float32)) for _ in range(2 * b)]
        cfg = loss_cfg(batch_bags=b, margin=1000.0)  # far from saturation
        base = dmt_loss(stack(ctx), stack(u), 2 * b, cfg).item()
        perm_n = rng.permutation(b)
        perm_a = b + rng.permutation(b)
        order = np.concatenate([perm_n, perm_a])
        shuffled = dmt_loss(stack([ctx[i] for i in order]), stack([u[i] for i in order]), 2 * b, cfg).item()
        assert abs(base - shuffled) < 1e-6 * max(1.0, abs(base))

    def test_odd_bag_count_rejected(self):
        """Bags pair up as B normal then B abnormal, so the count is even and
        positive."""
        x = Tensor(np.ones((12, 2), dtype=np.float32))
        u = Tensor(np.full((12, 1), 0.5, dtype=np.float32))
        for bags in (3, 0):
            with pytest.raises(ValueError, match="2\\*B bags"):
                dmt_loss(x, u, bags, loss_cfg())

    @pytest.mark.parametrize(
        "ctx_shape, scores_shape, bags",
        [
            pytest.param((4, 3, 3), (4, 2, 1), 4, id="gathered-second-axis-not-alpha"),
            pytest.param((4, 2, 3), (4, 2, 2), 4, id="gathered-scores-two-columns"),
            pytest.param((3, 2, 3), (3, 2, 1), 3, id="gathered-odd-bag-count"),
            pytest.param((4, 2), (4, 2, 1), 4, id="two-dimensional-bags-by-alpha"),
        ],
    )
    def test_malformed_top_alpha_rows_rejected(self, ctx_shape, scores_shape, bags):
        """Top-alpha rows are (2B, alpha, d) with (2B, alpha, 1) scores; any
        other pair gets the loss's one input error, the stacked form's."""
        ctx, u = Tensor(np.ones(ctx_shape)), Tensor(np.full(scores_shape, 0.5))
        with pytest.raises(ValueError, match="2\\*B bags of context features and scores") as err:
            dmt_loss(ctx, u, bags, loss_cfg(alpha=2))
        assert err.type is ValueError


class TestForwardLoss:
    @staticmethod
    def _recording_masks(monkeypatch):
        """Record the masks `forward_loss` hands the classifier, one list per call."""
        calls = []

        def recording(mlp, x, *, bags=1, masks=None):
            calls.append(masks)
            return mlp_forward(mlp, x, bags=bags, masks=masks)

        monkeypatch.setattr(trainer_module, "mlp_forward", recording)
        return calls

    def test_classifier_on_the_loss_rows_matches_one_over_every_row(self, monkeypatch):
        """`forward_loss` runs the classifier on each bag's top-alpha rows
        alone, with dropout masks drawn at those rows: layer by layer at
        `CLASSIFIER_DROPOUT`, `random((2B, alpha, 128))` and then
        `random((2B, alpha, 32))`, each scaled by 1 / (1 - p), so the stream
        ends where those two draws leave a reference generator and each
        gathered row's mask is that row of the draw. The loss and every
        parameter's gradient are those of the classifier over every row whose
        masks hold the draw at the gathered rows (no other row's score reaches
        the loss, so their masks are never read), followed by the stacked loss
        (float64, where only the products' grouping can differ)."""
        rng = np.random.default_rng(31)
        cfg = TrainConfig(t_len=6, batch_bags=2, alpha=2, tsa=TsaConfig(num_samples=8))
        bags = 2 * cfg.batch_bags
        feats = rng.normal(size=(bags * cfg.t_len, 8))
        feats[bags // 2 * cfg.t_len :] += 1.0
        drop, reference = np.random.default_rng(7), np.random.default_rng(7)
        calls = self._recording_masks(monkeypatch)
        with ag.using_dtype(np.float64):
            model = init_model(8, cfg.tsa, np.random.SeedSequence(3))
            params = model.named_params()

            def grads(loss):
                ag.backward(loss)
                out = {k: p.grad for k, p in params.items()}
                for p in params.values():
                    p.grad = None
                return out

            got = forward_loss(model, Tensor(feats), bags, cfg, tsa_rng=np.random.default_rng(1), dropout_rng=drop)
            got_grads = grads(got)
            ctx, _ = context_features(model, Tensor(feats), bags, tsa_rng=np.random.default_rng(1))
            rows = top_alpha_rows(ctx.data.reshape(bags, cfg.t_len, -1), cfg.alpha) + cfg.t_len * np.arange(bags)[:, None]
            p = CLASSIFIER_DROPOUT
            assert model.classifier.dims[1:-1] == (128, 32)
            masks = []
            for width, mask in zip((128, 32), calls[0], strict=True):
                draw = (reference.random((bags, cfg.alpha, width)) >= p).astype(np.float64) / (1.0 - p)
                assert mask.data.tobytes() == draw.tobytes()
                whole = np.zeros((ctx.shape[0], width))  # rows the loss does not read
                whole[rows] = draw
                masks.append(Tensor(whole))
            want = dmt_loss(ctx, mlp_forward(model.classifier, ctx, bags=bags, masks=masks), bags, cfg)
            want_grads = grads(want)
        assert drop.bit_generator.state == reference.bit_generator.state
        assert max_rel_err(got.data, want.data) < 1e-12
        for name, g in want_grads.items():
            assert max_rel_err(got_grads[name], g, abs_floor=1e-12) < 1e-9, name

    def test_no_generator_draws_nothing_and_zero_rate_keeps_every_unit(self, monkeypatch):
        """Without a dropout generator `forward_loss` hands the classifier no
        masks, so it runs without dropout and draws nothing. The draw does
        not depend on the rate: at rate 0 every mask keeps every unit at
        scale 1, so the loss is the loss without dropout, and the stream
        moves on by the loss rows' draw, (2B, alpha, width) per layer."""
        cfg = TrainConfig(t_len=6, batch_bags=2, alpha=2, tsa=TsaConfig(ratio=1.0))
        bags = 2 * cfg.batch_bags
        feats = Tensor(np.random.default_rng(4).normal(size=(bags * cfg.t_len, 8)))
        model = init_model(8, cfg.tsa, np.random.SeedSequence(3))
        ctx, _ = context_features(model, feats, bags)
        want = dmt_loss(ctx, mlp_forward(model.classifier, ctx, bags=bags), bags, cfg).item()
        calls = self._recording_masks(monkeypatch)
        got = forward_loss(model, feats, bags, cfg).item()
        assert calls == [None]
        assert abs(got - want) <= 1e-6 * abs(want)
        drop, reference = np.random.default_rng(7), np.random.default_rng(7)
        monkeypatch.setattr(trainer_module, "CLASSIFIER_DROPOUT", 0.0)
        assert forward_loss(model, feats, bags, cfg, dropout_rng=drop).item() == got
        for width, mask in zip(model.classifier.dims[1:-1], calls[1], strict=True):
            assert mask.shape == (bags, cfg.alpha, width) and np.all(mask.data == 1.0)
            reference.random((bags, cfg.alpha, width))
        assert drop.bit_generator.state == reference.bit_generator.state

    def test_dropout_stream_does_not_depend_on_the_snippet_count(self):
        """A step draws its masks at the 2B * alpha loss rows only, so batches
        of 16 and of 64 snippets per bag, with the same B and alpha, leave
        the dropout generator in the same state."""
        states = []
        for t_len in (16, 64):
            cfg = TrainConfig(t_len=t_len, batch_bags=2, alpha=3, tsa=TsaConfig(ratio=1.0))
            bags = 2 * cfg.batch_bags
            feats = Tensor(np.random.default_rng(t_len).normal(size=(bags * t_len, 8)))
            model = init_model(8, cfg.tsa, np.random.SeedSequence(3))
            drop = np.random.default_rng(7)
            forward_loss(model, feats, bags, cfg, dropout_rng=drop)
            states.append(drop.bit_generator.state)
        assert states[0] == states[1] != np.random.default_rng(7).bit_generator.state


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
            cfg = loss_cfg(t_len=t_len, batch_bags=b, alpha=alpha, margin=float(rng.uniform(0, 2 * d)))

            ctx_s = Tensor(ctx.reshape(-1, d), requires_grad=True)
            u_s = Tensor(u.reshape(-1, 1), requires_grad=True)
            got = dmt_loss(ctx_s, u_s, 2 * b, cfg)
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
        """separability feeds the hinge: with every hinge active, the margin
        term is margin minus the mean separability."""
        rng = np.random.default_rng(12)
        ctx = [Tensor(rng.normal(size=(5, 3)).astype(np.float32)) for _ in range(4)]
        u = [Tensor(np.full((5, 1), 0.5, dtype=np.float32)) for _ in range(4)]
        cfg = loss_cfg(t_len=5, batch_bags=2, alpha=2, margin=100.0)
        seps = [separability(ctx[2 + i], ctx[i], 2).item() for i in range(2)]
        _, margin_term, _ = dmt_terms(stack(ctx), stack(u), 4, cfg)
        assert abs(margin_term - (100.0 - np.mean(seps))) < 1e-5

    def test_rows_must_split_into_bags(self):
        x = Tensor(np.ones((7, 2), dtype=np.float32))
        u = Tensor(np.full((7, 1), 0.5, dtype=np.float32))
        with pytest.raises(ag.ShapeError):
            dmt_loss(x, u, 2, loss_cfg())
        with pytest.raises(ValueError, match="scores"):
            dmt_loss(Tensor(np.ones((8, 2))), u, 2, loss_cfg())


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# (B, T, alpha, d, dtype, kind): the kinds pick the margin and the scores
LOSS_OP_CASES = {
    "mixed_hinges": (3, 7, 3, 6, np.float32, "mixed"),
    "every_hinge_active": (2, 5, 2, 4, np.float32, "active"),
    "every_hinge_inactive": (3, 6, 2, 5, np.float32, "inactive"),
    "scores_clipped_both_ends": (2, 6, 3, 4, np.float32, "clipped"),
    "alpha_is_t": (2, 4, 4, 3, np.float32, "mixed"),
    "one_pair": (1, 5, 2, 8, np.float32, "mixed"),
    "paper_widths": (8, 32, 3, 512, np.float32, "mixed"),
    "float64": (3, 6, 3, 5, np.float64, "mixed"),
}


class TestLossOp:
    """`dmt_loss` is one op whose forward and vjp replay the single-op chain
    (`unfused_dmt_terms` in helpers): the loss, both terms and both inputs'
    gradients are its bits, in the stacked form and the gathered one."""

    @staticmethod
    def inputs(case, seed):
        b, t_len, alpha, d, dtype, kind = LOSS_OP_CASES[case]
        rng = np.random.default_rng([seed, b, t_len, d])
        ctx = rng.normal(size=(2 * b, t_len, d)) * rng.uniform(0.1, 10.0)
        scores = rng.uniform(0.0, 1.0, size=(2 * b, t_len, 1))
        if kind == "inactive":  # every abnormal bag far above its normal one
            ctx[b:] *= 100.0
        if kind == "clipped":  # a normal bag scored 0 and an abnormal one 1
            scores[0], scores[-1] = 0.0, 1.0
        margin = {"active": 1e4, "inactive": 0.0}.get(kind, float(rng.uniform(0.0, 2.0 * np.sqrt(d))))
        cfg = loss_cfg(t_len=t_len, batch_bags=b, alpha=alpha, margin=margin)
        return ctx.astype(dtype), scores.astype(dtype), cfg

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", list(LOSS_OP_CASES))
    def test_loss_terms_and_gradients_are_the_chains_bits(self, case, seed):
        ctx, scores, cfg = self.inputs(case, seed)
        bags, t_len, d = ctx.shape
        rows = top_alpha_rows(ctx, cfg.alpha) + t_len * np.arange(bags)[:, None]
        with ag.using_dtype(ctx.dtype):
            # stacked, against the chain over the same gather
            ctx_s, u_s = Tensor(ctx.reshape(-1, d), requires_grad=True), Tensor(scores.reshape(-1, 1), requires_grad=True)
            loss, margin_term, bce_term = dmt_terms(ctx_s, u_s, bags, cfg)
            ag.backward(loss)
            ctx_r, u_r = Tensor(ctx.reshape(-1, d), requires_grad=True), Tensor(scores.reshape(-1, 1), requires_grad=True)
            want_margin, want_bce = unfused_dmt_terms(ag.gather_rows(ctx_r, rows), ag.gather_rows(u_r, rows), cfg.margin)
            want = want_margin + want_bce
            ag.backward(want)
            # gathered, as forward_loss hands the rows on
            top = [Tensor(ctx.reshape(-1, d)[rows], requires_grad=True) for _ in range(2)]
            u_top = [Tensor(scores.reshape(-1, 1)[rows], requires_grad=True) for _ in range(2)]
            ag.backward(dmt_loss(top[0], u_top[0], bags, cfg))
            chain_margin, chain_bce = unfused_dmt_terms(top[1], u_top[1], cfg.margin)
            ag.backward(chain_margin + chain_bce)
        assert same_bits(loss.data, want.data)
        assert (margin_term, bce_term) == (want_margin.item(), want_bce.item())
        assert same_bits(ctx_s.grad, ctx_r.grad) and same_bits(u_s.grad, u_r.grad)
        assert same_bits(top[0].grad, top[1].grad) and same_bits(u_top[0].grad, u_top[1].grad)
        kind = LOSS_OP_CASES[case][-1]
        if kind == "inactive":
            assert margin_term == 0.0 and not top[0].grad.any()
        if kind == "active":
            assert margin_term > 0.0 and top[0].grad.all()
        if kind == "clipped":  # the clipped bags' scores get no gradient
            assert not u_top[0].grad[[0, -1]].any() and u_top[0].grad[1:-1].all()

    def test_overflowing_magnitude_is_located(self):
        """An abnormal bag whose magnitude overflows float32 in its cast
        would meet a zero hinge and leave the loss finite; the op raises, as
        the chain's `l2_norm` does."""
        ctx = np.ones((4, 2, 4), dtype=np.float32)
        ctx[3] = 3e38
        scores = np.full((4, 2, 1), 0.5, dtype=np.float32)
        cfg = loss_cfg(t_len=2, batch_bags=2, alpha=2)
        with pytest.raises(ag.NumericsError, match="'dmt_loss'"), np.errstate(over="ignore"):
            dmt_loss(Tensor(ctx, requires_grad=True), Tensor(scores), 4, cfg)
        with pytest.raises(ag.NumericsError, match="'l2_norm'"), np.errstate(over="ignore"):
            unfused_dmt_terms(Tensor(ctx, requires_grad=True), Tensor(scores), cfg.margin)


def conv_module(seed):
    """The context module of a freshly initialised width-8 detector."""
    return init_model(8, TsaConfig(), np.random.SeedSequence(seed)).conv


def conv_params(mod):
    return [*mod.conv_w, *mod.conv_b, mod.w_theta, mod.w_phi, mod.w_g]


class TestConvModule:
    def test_wrong_width_rejected(self):
        with pytest.raises(ag.ShapeError, match=re.escape("conv module expects (T, 8), got (5, 4)")):
            conv_module_forward(conv_module(0), Tensor(np.ones((5, 4), np.float32)))

    def test_zero_init_is_identity(self):
        mod = conv_module(0)
        for t in conv_params(mod):
            t.data = np.zeros_like(t.data)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        out = conv_module_forward(mod, x)
        np.testing.assert_array_equal(out.data, x.data)
        # with a scale, the identity of the scaled features
        s = rng.uniform(size=(5, 1)).astype(np.float32)
        np.testing.assert_array_equal(conv_module_forward(mod, x, scale=Tensor(s)).data, x.data * s)

    def test_width_must_divide_by_four(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            init_model(6, TsaConfig(), np.random.SeedSequence(0))

    def test_per_bag_independence(self):
        mod = conv_module(2)
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
        scales = [rng.uniform(size=(2, 1)) for _ in range(3)]
        with ag.using_dtype(np.float64):
            mod = conv_module(7)
            per_scale = [Tensor(s, requires_grad=True) for s in scales]
            per_bag = [conv_module_forward(mod, Tensor(a), scale=s) for a, s in zip(arrays, per_scale)]
            ag.backward(ag.l2_norm(ag.concat(per_bag, axis=0)))
            want = [s.grad.copy() for s in per_scale] + [p.grad.copy() for p in conv_params(mod)]
            for p in conv_params(mod):
                p.grad = None
            scale = Tensor(np.concatenate(scales), requires_grad=True)
            ag.backward(ag.l2_norm(conv_module_forward(mod, Tensor(np.concatenate(arrays)), 3, scale=scale)))
            got = list(np.split(scale.grad, 3)) + [p.grad for p in conv_params(mod)]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)

    def test_gradcheck_against_engine_fd(self):
        """The scale's gradient through every branch and the residual."""
        rng = np.random.default_rng(4)
        x64 = rng.normal(size=(4, 8))
        s64 = rng.uniform(size=(4, 1))

        with ag.using_dtype(np.float64):
            mod = conv_module(5)
            x = Tensor(x64)
            scale = Tensor(s64, requires_grad=True)
            ag.backward(ag.l2_norm(conv_module_forward(mod, x, scale=scale)))
            analytic = scale.grad.copy()

            def value(arr):
                with ag.no_grad():
                    return float(ag.l2_norm(conv_module_forward(mod, x, scale=Tensor(arr))).data)

            h = 1e-5
            fd = np.zeros_like(s64)
            for i in range(s64.size):
                sp = s64.copy()
                sp.flat[i] += h
                sm = s64.copy()
                sm.flat[i] -= h
                fd.flat[i] = (value(sp) - value(sm)) / (2 * h)
        assert max_rel_err(analytic, fd) < 1e-3


class TestTrainLoop:
    def test_zero_lr_is_fixed_point(self, tmp_path):
        records, manifest = make_records(tmp_path)
        cfg = TrainConfig(t_len=8, batch_bags=2, epochs=3, lr=0.0, seed=3)
        result = train(manifest, tmp_path / "train", cfg)
        reference = init_model(manifest.d, cfg.tsa, np.random.SeedSequence(3).spawn(4)[0])
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

    def test_non_finite_features_name_the_file(self, tmp_path):
        # rejected at load, before any epoch
        _, manifest = make_records(tmp_path)
        entry = manifest.videos[0]
        feats = load_features(tmp_path / "train" / entry.path)
        feats[0, 0] = np.nan
        save_features(feats, tmp_path / "train" / entry.path)
        cfg = TrainConfig(t_len=8, batch_bags=6, epochs=2, seed=3)
        with pytest.raises(FormatError, match=re.escape(entry.path) + ": feature values hold NaN or Inf"):
            train(manifest, tmp_path / "train", cfg)

    def test_loss_decreases(self, tmp_path):
        _, manifest = make_records(tmp_path, n_normal=20, n_abnormal=20)
        cfg = TrainConfig(t_len=8, batch_bags=4, epochs=60, seed=0)
        result = train(manifest, tmp_path / "train", cfg)
        first = np.mean([r["loss"] for r in result.log[:5]])
        last = np.mean([r["loss"] for r in result.log[-5:]])
        assert last < first

    def test_full_selection_matches_disabled_attention(self, tmp_path, monkeypatch):
        """kappa = T makes the attention stage exactly transparent, so the
        ratio-1.0 run, which skips it, must match a run that makes every
        selection: the same losses, and the same context and classifier
        weights. Only the scorer's weights move in the latter, by weight decay
        alone (its zero biases stay zero)."""
        _, manifest = make_records(tmp_path)
        cfg = TrainConfig(
            t_len=8, batch_bags=2, epochs=5, tsa=TsaConfig(num_samples=8, ratio=1.0, sigma_noise=0.3, seed=0), seed=9
        )
        skipped = train(manifest, tmp_path / "train", cfg)
        monkeypatch.setattr(trainer_module, "context_features", attention_always_on)
        selected = train(manifest, tmp_path / "train", cfg)
        assert skipped.log == selected.log
        for name, p in skipped.model.named_params().items():
            same = np.array_equal(p.data, selected.model.named_params()[name].data)
            assert same != (name.startswith("scorer.") and name.endswith(".w")), name

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

    @pytest.mark.parametrize("field", ["t_len", "batch_bags", "epochs"])
    def test_each_count_is_checked_by_name(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be positive, got 0$"):
            TrainConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["lr", "weight_decay", "margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_weights_must_be_non_negative_and_finite(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: 0.0}), field) == 0.0


class TestTrainingStepCost:
    """One step at the acceptance shape (d=32, T=16, B=8), and its memory at
    the paper's shape."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("step")
        manifest, _ = generate_synthetic(SyntheticConfig(n_normal=8, n_abnormal=8, seed=3), root)
        return manifest, root / "train"

    def test_nodes_and_checks_are_pinned(self, manifest, monkeypatch):
        """A change that adds finiteness checks to a training step, or nodes
        to its graph, must change these on purpose."""
        counts = dict(nodes=0, checks=0)
        ensure_finite, backward = ag._ensure_finite, ag.backward

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        def counting_backward(loss):
            counts["nodes"] += graph_nodes(loss)
            backward(loss)

        monkeypatch.setattr(ag, "_ensure_finite", counting("checks", ensure_finite))
        monkeypatch.setattr(ag, "backward", counting_backward)

        def run(epochs):
            counts.update(nodes=0, checks=0)
            train(*manifest, TrainConfig(t_len=16, batch_bags=8, epochs=epochs, seed=1))
            return dict(counts)

        one, two = run(1), run(2)
        per_step = {key: two[key] - one[key] for key in counts}
        # nodes: scorer 1 (the one `linear` op of its three layers),
        # attention 1, context module 7 (3 convs with bias,
        # nonlocal_attention, concat, the residual's row scale and its add),
        # classifier 1 (its three layers and the `mul` by each of its 2
        # dropout masks, one op), loss 2 (the top-alpha gather of the
        # context features, which the classifier runs on, so its scores need
        # no gather of their own, and the `dmt_loss` op).
        # 19 forward checks: the batch tensor 1, scorer 3 (each layer's
        # pre-activation), attention 1, context module 7 (3 convs, the
        # attention's logits and output, the residual's row scale and its
        # add), classifier 5 (the 2 scaled mask tensors, and each layer's
        # pre-activation), loss 2 (the op's magnitudes and its output).
        # 31 gradient checks: loss 3 (the op's two gradients and the
        # gather's scatter), classifier 7 (its input, 3 weights and 3
        # biases), context module 14 (3 per conv and 4 from
        # nonlocal_attention, their weights, biases and scale, and 1 from
        # the residual's row scale), attention 1, scorer 6 (3 weights and 3
        # biases; no gradient for the constant batch).
        assert per_step == dict(nodes=12, checks=50)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
    def test_steps_do_not_page_fault(self, manifest):
        """Freed temporaries stay mapped, so a step faults almost no pages
        back in (about 780 minor faults per step with glibc's adaptive
        thresholds)."""
        import resource  # Unix only

        def faults(epochs):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(*manifest, TrainConfig(t_len=16, batch_bags=8, epochs=epochs, seed=1))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        short = faults(2)
        assert (faults(12) - short) / 10 <= 64

    def test_paper_shape_step_memory_is_pinned(self, tmp_path, monkeypatch):
        """Each step at the paper's shape (d=512, T=32, B=8) peaks 12.1 MiB of
        traced memory above what training holds before its first step (the
        model, the Adam moments and the training array); it read 13.8 MiB
        before the classifier ran on the loss's rows alone and Adam stepped
        in blocks. The peak is the loss's top-alpha ranking, with the whole
        forward held. Applying the
        attention's inclusion after the context module's projections keeps
        each conv branch's tap products P (not scale * P) and the attention
        branch's unscaled projections for the scale's gradient, 3 MiB more
        than the scaled input the context module used to take; ranking the
        rows without a float64 copy of the context features saves 2 MiB.
        Before both it read 12.7 MiB. Holding every walked node until
        backward returns, and the forward outputs across backward, took it to
        18.9 MiB. Earlier still, the im2col vjp, which kept each conv
        branch's im2col matrix and padded input from forward to backward,
        read 29.6 MiB above its step's own start."""
        manifest, _ = generate_synthetic(SyntheticConfig(n_normal=8, n_abnormal=8, d=512, seed=3), tmp_path)
        peaks, base = [], []

        def marking(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if base:
                peaks.append(peak - base[0])
            else:
                base.append(current)
            tracemalloc.reset_peak()
            return build_batch(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "build_batch", marking)
        tracemalloc.start()
        try:
            train(manifest, tmp_path / "train", TrainConfig(t_len=32, batch_bags=8, epochs=3, seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1] - base[0])
        finally:
            tracemalloc.stop()
        assert max(peaks) < 15 * 2**20, [round(p / 2**20, 2) for p in peaks]

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
        cfg = TrainConfig(
            t_len=4,
            batch_bags=1,
            epochs=1,
            alpha=1,
            margin=2.0,
            tsa=TsaConfig(num_samples=3, ratio=1.0, sigma_noise=0.5, seed=0),
        )
        zeros = np.zeros((1, 3, 4))

        with ag.using_dtype(np.float64):
            model = init_model(4, cfg.tsa, np.random.SeedSequence(17), scorer_hidden=(6, 5))

            def forward():
                ctx_feats, scores = [], []
                for arr in bags64:
                    bag = Tensor(arr)
                    omega = mlp_forward(model.scorer, bag)
                    incl, _ = tsa_fuse(omega, cfg.tsa, noise=zeros)
                    ctx = conv_module_forward(model.conv, bag, scale=incl)
                    ctx_feats.append(ctx)
                    scores.append(mlp_forward(model.classifier, ctx))
                return dmt_loss(stack(ctx_feats), stack(scores), 2, cfg)

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


    def test_batched_step_past_one_k_block_matches_engine_fd(self, monkeypatch):
        """A whole training step as `train` runs it, `forward_loss` over the
        stacked batch with the classifier on the loss's top-alpha rows, with
        attention on, at the paper shape's 16 bags of 32 rows: 512 rows,
        where OpenBLAS splits a product over the rows into two K-blocks, so
        the live-row products group their sums differently from the full
        ones. Every live-row vjp runs (the size from which the engine
        restricts is lowered to 0 here), the selection is constant
        (kappa = T) and dropout is off; the float64 gradients of every
        parameter agree with finite differences."""
        monkeypatch.setattr(ag, "_LIVE_ROWS_MIN_SIZE", 0)
        # ratio 1.0 skips the attention; the step runs it here all the same
        monkeypatch.setattr(trainer_module, "context_features", attention_always_on)
        cfg = TrainConfig(t_len=32, batch_bags=8, tsa=TsaConfig(ratio=1.0))
        bags = 2 * cfg.batch_bags
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(bags * cfg.t_len, 8))
        feats[bags // 2 * cfg.t_len :] += 1.5  # the abnormal bags

        with ag.using_dtype(np.float64):
            model = init_model(8, cfg.tsa, np.random.SeedSequence(23), scorer_hidden=(6, 5))

            def loss():
                return forward_loss(model, Tensor(feats), bags, cfg, tsa_rng=np.random.default_rng(0))

            found = []
            find = ag._live_rows
            monkeypatch.setattr(ag, "_live_rows", lambda g: found.append(find(g)) or found[-1])
            ag.backward(loss())
            # the three convs, the residual's row scale and the attention's
            # theta; the classifier sees only the loss's rows
            assert sum(not isinstance(f, slice) and f.size == bags * cfg.alpha for f in found) == 5
            params = model.named_params()
            analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}

            h = 1e-6  # 1e-5 crosses a classifier ReLU kink at this shape
            worst = 0.0
            for j, (name, p) in enumerate(params.items()):
                idx = np.random.default_rng(j).choice(p.data.size, size=min(4, p.data.size), replace=False)
                for i in idx:
                    orig = p.data.flat[i]
                    p.data.flat[i] = orig + h
                    with ag.no_grad():
                        fp = loss().item()
                    p.data.flat[i] = orig - h
                    with ag.no_grad():
                        fm = loss().item()
                    p.data.flat[i] = orig
                    worst = max(worst, max_rel_err(analytic[name].flat[i], (fp - fm) / (2 * h)))
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
