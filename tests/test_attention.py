"""Perturbed top-k selection: structure, limits, and its gradient estimator."""

import re

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.attention import (
    SoftSelection,
    TsaConfig,
    kappa_from_ratio,
    topk_score,
    tsa_forward,
    tsa_fuse,
)
from wsvad.autograd import Tensor
from wsvad.model import xavier_uniform
from wsvad.nn import MLP

from helpers import max_rel_err, ref_topk


def scorer_mlp(d, seed, hidden):
    """A d -> hidden -> 1 scorer built directly from arrays: Glorot-uniform
    weights drawn layer by layer from one stream, zero biases."""
    rng = np.random.default_rng(seed)
    dims = (d, *hidden, 1)
    return MLP(
        [Tensor(xavier_uniform(rng, shape), requires_grad=True) for shape in zip(dims[:-1], dims[1:])],
        [Tensor(np.zeros(n, np.float32), requires_grad=True) for n in dims[1:]],
    )


class TestKappaFromRatio:
    def test_reference_setting(self):
        assert kappa_from_ratio(32, 0.7) == 22

    def test_full_selection(self):
        for t in (1, 5, 97):
            assert kappa_from_ratio(t, 1.0) == t

    def test_clamped_to_one(self):
        assert kappa_from_ratio(4, 0.1) == 1

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            kappa_from_ratio(8, 0.0)
        with pytest.raises(ValueError):
            kappa_from_ratio(8, 1.5)

    def test_nonpositive_snippet_count(self):
        with pytest.raises(ValueError, match="snippet count must be positive, got 0"):
            kappa_from_ratio(0, 0.7)

    def test_exact_floor_of_the_printed_ratio(self):
        """90 * 0.7 is 62.99999999999999 in binary floating point; kappa is
        floor(T * r) for the decimal r, so T = 90 keeps 63."""
        assert kappa_from_ratio(90, 0.7) == 63
        for k in range(1, 11):
            for t in range(1, 8193):
                assert kappa_from_ratio(t, k / 10) == max(1, t * k // 10), (t, k)


class TestTopkStructure:
    def test_exhaustive_small_cases(self):
        """Row-stochasticity, hard-selection limit, and tie-breaking for
        every (T <= 8, kappa) combination."""
        rng = np.random.default_rng(0)
        for t_len in range(1, 9):
            for kappa in range(1, t_len + 1):
                omega = rng.uniform(0, 1, t_len)
                sel = topk_score(omega, kappa, 50, 0.1, rng)
                assert sel.vhat.shape == (kappa, t_len)
                np.testing.assert_allclose(sel.vhat.sum(axis=1), 1.0, atol=1e-6)
                assert np.all(sel.vhat >= 0.0) and np.all(sel.vhat <= 1.0)
                assert np.all(sel.inclusion <= 1.0 + 1e-12)
                assert abs(sel.vhat.sum() - kappa) < 1e-6

                # unperturbed: exact one-hots at the kappa largest scores
                hard = topk_score(omega, kappa, 7, 0.0)
                expect = np.argsort(-omega, kind="stable")[:kappa]
                got = np.argmax(hard.vhat, axis=1)
                assert np.array_equal(got, expect)
                assert np.all(np.max(hard.vhat, axis=1) == 1.0)

                if kappa == t_len:
                    noisy = topk_score(omega, kappa, 40, 0.5, rng)
                    assert np.all(noisy.inclusion == 1.0)

    def test_vhat_column_sums_are_inclusion(self):
        """With M a power of two every count / M is exact, and so is every sum."""
        rng = np.random.default_rng(16)
        for t_len in range(1, 9):
            for kappa in range(1, t_len + 1):
                sel = topk_score(rng.uniform(0, 1, t_len), kappa, 64, 0.1, rng)
                assert np.array_equal(sel.vhat.sum(axis=0), sel.inclusion)

    def test_tie_break_lower_index(self):
        sel = topk_score(np.array([0.5, 0.9, 0.9, 0.1]), 2, 3, 0.0)
        assert np.argmax(sel.vhat[0]) == 1
        assert np.argmax(sel.vhat[1]) == 2

    def test_all_equal_scores_tie_break(self):
        sel = topk_score(np.zeros(5), 3, 2, 0.0)
        assert [int(np.argmax(r)) for r in sel.vhat] == [0, 1, 2]

    @pytest.mark.parametrize("bags", [None, 3])
    @pytest.mark.parametrize("kind", ["quarters", "all_equal"])
    @pytest.mark.parametrize("t_len", [2, 7])
    def test_selection_equals_stable_argsort_on_ties(self, bags, kind, t_len):
        """Ties between perturbed scores fall to the lower index, exactly as a
        stable descending argsort picks them."""
        rng = np.random.default_rng(t_len * 10 + (bags or 1))
        m = 24
        lead = () if bags is None else (bags,)
        if kind == "quarters":
            # quarter-valued scores plus quarter-scaled integer noise: many exact ties
            omega = np.round(rng.uniform(0, 1, (*lead, t_len)) * 4) / 4
            z, sigma = rng.integers(-2, 3, (*lead, m, t_len)).astype(np.float64), 0.25
        else:
            omega, z, sigma = np.full((*lead, t_len), 0.5), np.zeros((*lead, m, t_len)), 0.0
        for kappa in (1, t_len - 1, t_len):
            sel = topk_score(omega, kappa, m, sigma, noise=z)
            indices, inclusion, v, vhat = ref_topk(omega, kappa, z, sigma)
            assert np.array_equal(sel.indices, indices)
            assert np.array_equal(sel.inclusion, inclusion)
            assert np.array_equal(sel.sample_inclusion(), v)
            assert np.array_equal(sel.vhat, vhat)

    def test_tie_fixup_touches_only_overfilled_samples(self):
        """One batched call mixes samples whose exact ties at the kappa-th score
        overfill kappa with tie-free samples; both kinds match the stable argsort.
        So does a call where a single sample ties there, overfilling by one: the
        whole array then keeps one snippet more than kappa per sample, and the
        fix-up must still run, keeping that sample's lower-index tie."""

        def check(omega, kappa, m, sigma, z):
            sel = topk_score(omega, kappa, m, sigma, noise=z)
            indices, inclusion, v, _ = ref_topk(omega, kappa, z, sigma)
            assert np.array_equal(sel.selected, v.astype(bool))
            assert np.array_equal(sel.inclusion, inclusion)
            assert np.array_equal(sel.indices, indices)
            return sel

        def kept(omega, kappa, sigma, z):
            perturbed = omega[:, None, :] + sigma * z
            kth = -np.sort(-perturbed, axis=-1)[..., kappa - 1, None]
            return np.count_nonzero(perturbed >= kth, axis=-1)

        rng = np.random.default_rng(41)
        bags, m, t_len, kappa, sigma = 3, 16, 9, 4, 0.25
        omega = np.round(rng.uniform(0, 1, (bags, t_len)) * 4) / 4
        z = rng.standard_normal((bags, m, t_len))
        z[:, ::2] = rng.integers(-2, 3, (bags, m // 2, t_len))  # quarter steps: exact ties
        overfilled = kept(omega, kappa, sigma, z) > kappa
        assert overfilled.any() and not overfilled.all()
        check(omega, kappa, m, sigma, z)

        bags, m, t_len, kappa = 3, 8, 7, 3
        omega = rng.uniform(0, 1, (bags, t_len))
        omega[1] = [0.1, 0.9, 0.5, 0.7, 0.5, 0.2, 0.3]  # third largest tied at 2 and 4
        z = rng.standard_normal((bags, m, t_len))
        z[1, 5] = 0.0
        counts = kept(omega, kappa, sigma, z)
        assert counts[1, 5] == kappa + 1 and counts.sum() == kappa * bags * m + 1
        sel = check(omega, kappa, m, sigma, z)
        assert np.flatnonzero(sel.selected[1, 5]).tolist() == [1, 2, 3]

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            topk_score(np.zeros(4), 5, 10, 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(num_samples=0, sigma=0.1), "num_samples must be >= 1"),
            (dict(num_samples=4, sigma=-0.1), "sigma must be non-negative"),
            (dict(num_samples=4, sigma=0.1, noise=np.zeros((4, 2))), re.escape("noise must have shape (4, 3), got (4, 2)")),
            (dict(num_samples=4, sigma=0.1), "an rng is required when sigma > 0 and no noise is supplied"),
        ],
        ids=["no-samples", "negative-sigma", "noise-shape", "no-rng"],
    )
    def test_bad_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            topk_score(np.array([0.1, 0.5, 0.3]), 1, **kwargs)

    def test_determinism_same_seed(self):
        omega = np.random.default_rng(1).uniform(0, 1, 12)
        a = topk_score(omega, 5, 200, 0.05, np.random.default_rng(7))
        b = topk_score(omega, 5, 200, 0.05, np.random.default_rng(7))
        assert np.array_equal(a.vhat, b.vhat)

    def test_concentration_against_large_sample_oracle(self):
        """At T=4, kappa=1 the selection concentrates on the top score; the
        implementation at M=1e5 must agree with a 1e7-sample brute-force
        estimate within 3 combined standard errors."""
        omega = np.array([0.1, 0.1, 0.9, 0.1])
        sigma = 0.1
        m_impl = 100_000
        sel = topk_score(omega, 1, m_impl, sigma, np.random.default_rng(3))
        p_impl = sel.vhat[0]

        oracle_n = 10_000_000
        chunk = 1_000_000
        counts = np.zeros(4)
        rng = np.random.default_rng(999)
        for _ in range(oracle_n // chunk):
            pert = omega[None, :] + sigma * rng.standard_normal((chunk, 4))
            counts += np.bincount(np.argmax(pert, axis=1), minlength=4)
        p_oracle = counts / oracle_n

        se = np.sqrt(p_oracle * (1 - p_oracle) * (1 / m_impl + 1 / oracle_n))
        assert np.all(np.abs(p_impl - p_oracle) <= 3 * se + 1e-12)
        # qualitative shape: one dominant weight, small spillover
        assert p_impl[2] > 0.9
        assert np.all(p_impl[[0, 1, 3]] < 0.05)

    def test_monotone_inclusion_in_expectation(self):
        """Raising one score never decreases its inclusion probability."""
        rng = np.random.default_rng(4)
        omega = rng.uniform(0.3, 0.7, 6)
        m = 40_000
        z = rng.standard_normal((m, 6))
        base = topk_score(omega, 3, m, 0.2, noise=z).inclusion
        for bump in (0.05, 0.15, 0.3):
            higher = omega.copy()
            higher[2] += bump
            incl = topk_score(higher, 3, m, 0.2, noise=z).inclusion
            assert incl[2] >= base[2] - 3.0 / np.sqrt(m)


class TestTsaForward:
    """The attention returns each snippet's inclusion as a (rows, 1) tensor;
    the fused features are ``inclusion * features``, which the context
    module forms after its projections."""

    def _scorer(self, d=6, seed=0):
        return scorer_mlp(d, seed, (16, 8))

    def test_identity_at_full_selection(self):
        rng = np.random.default_rng(5)
        feats = Tensor(rng.normal(size=(9, 6)).astype(np.float32))
        cfg = TsaConfig(num_samples=50, ratio=1.0, sigma_noise=0.3, seed=0)
        incl, sel, _ = tsa_forward(feats, self._scorer(), cfg, np.random.default_rng(1))
        assert incl.shape == (9, 1) and incl.data.dtype == np.float32
        assert np.all(incl.data == 1.0) and np.all(sel.inclusion == 1.0)
        # so the fused features are the features, bit for bit
        assert np.array_equal((feats * incl).data, feats.data)

    def test_hard_selection_zeroes_unselected_rows(self):
        rng = np.random.default_rng(6)
        feats = Tensor(rng.normal(size=(8, 6)).astype(np.float32))
        omega = Tensor(np.linspace(0.9, 0.1, 8).reshape(8, 1))
        cfg = TsaConfig(num_samples=10, ratio=0.5, sigma_noise=0.05, seed=0)
        sel = topk_score(omega.data[:, 0], 4, 10, 0.0)
        incl, _ = tsa_fuse(omega, cfg, noise=np.zeros((1, 10, 8)))
        assert np.array_equal(incl.data, sel.inclusion[:, None].astype(np.float32))
        assert incl.data[:4].tolist() == [[1.0]] * 4 and incl.data[4:].tolist() == [[0.0]] * 4
        fused = (feats * incl).data
        assert np.all(fused[4:] == 0.0)
        np.testing.assert_array_equal(fused[:4], feats.data[:4])

    def test_clone_multiply_sum_route_matches_column_scaling(self):
        """Explicitly cloning the selection over channels, multiplying, and
        summing over ranks must equal the inclusion-scaled features."""
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(6, 3)).astype(np.float32)
        omega = rng.uniform(0, 1, 6)
        sel = topk_score(omega, 3, 500, 0.1, np.random.default_rng(2))
        v_tilde = np.repeat(sel.vhat[:, :, None], 3, axis=2)  # (kappa, T, d)
        f_tilde = np.repeat(feats[None, :, :], 3, axis=0)  # (kappa, T, d)
        fused_route = (v_tilde * f_tilde).sum(axis=0)
        scaled_route = sel.inclusion[:, None] * feats
        np.testing.assert_allclose(fused_route, scaled_route, atol=1e-6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(7, 5)).astype(np.float32)
        omega = rng.uniform(0, 1, 7)
        z = rng.standard_normal((200, 7))
        perm = rng.permutation(7)

        base = topk_score(omega, 3, 200, 0.2, noise=z)
        permuted = topk_score(omega[perm], 3, 200, 0.2, noise=z[:, perm])
        np.testing.assert_allclose(base.inclusion[perm], permuted.inclusion, atol=1e-12)

        scaled = base.inclusion[:, None] * feats
        scaled_perm = permuted.inclusion[:, None] * feats[perm]
        np.testing.assert_allclose(scaled[perm], scaled_perm, atol=1e-12)

    def test_scorer_outputs_in_unit_interval(self):
        rng = np.random.default_rng(9)
        feats = Tensor(rng.normal(size=(20, 6)).astype(np.float32))
        _, _, omega = tsa_forward(
            feats, self._scorer(), TsaConfig(num_samples=20, ratio=0.5), np.random.default_rng(0)
        )
        assert np.all(omega.data > 0.0) and np.all(omega.data < 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TsaConfig(num_samples=0)
        with pytest.raises(ValueError):
            TsaConfig(ratio=0.0)
        with pytest.raises(ValueError):
            TsaConfig(sigma_noise=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_sigma_noise_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="sigma_noise"):
            TsaConfig(sigma_noise=value)


class TestSelectionGradient:
    def test_full_selection_gradient_exactly_zero(self):
        rng = np.random.default_rng(10)
        grad_incl = rng.normal(size=(6, 1))
        cfg = TsaConfig(num_samples=100, ratio=1.0, sigma_noise=0.2)
        with ag.using_dtype(np.float64):
            omega = Tensor(rng.uniform(0, 1, (6, 1)), requires_grad=True)
            incl, _ = tsa_fuse(omega, cfg, rng)
            ag.backward((incl * Tensor(grad_incl)).sum())
        assert np.all(omega.grad == 0.0)

    def test_grad_scores_is_jacobian_transpose_product(self):
        rng = np.random.default_rng(15)
        for t_len, kappa in [(6, 3), (9, 1), (16, 11)]:
            sel = topk_score(rng.uniform(0, 1, t_len), kappa, 300, 0.2, rng)
            g = rng.normal(size=t_len)
            expect = sel.inclusion_jacobian().T @ g
            assert max_rel_err(sel.grad_scores(g), expect, abs_floor=1e-300) < 1e-12

    def test_unperturbed_selection_has_no_gradient(self):
        sel = topk_score(np.array([0.9, 0.1, 0.7, 0.3]), 2, 10, 0.0)
        with pytest.raises(ValueError, match="unperturbed"):
            sel.grad_scores(np.ones(4))
        with pytest.raises(ValueError, match="inclusion_jacobian undefined for unperturbed selection"):
            sel.inclusion_jacobian()

    def test_jacobian_matches_fd_of_expectation(self):
        """Estimator vs central differences of the sampled inclusion under
        common random numbers, within 3 standard errors per entry."""
        t_len, kappa, sigma, m = 6, 3, 0.2, 100_000
        rng = np.random.default_rng(11)
        omega = rng.uniform(0.2, 0.8, t_len)
        z = rng.standard_normal((m, t_len))
        sel = topk_score(omega, kappa, m, sigma, noise=z)

        v = sel.sample_inclusion()  # (M, T)
        h = 0.02
        for s in range(t_len):
            plus = omega.copy()
            plus[s] += h
            minus = omega.copy()
            minus[s] -= h
            v_plus = topk_score(plus, kappa, m, sigma, noise=z).sample_inclusion()
            v_minus = topk_score(minus, kappa, m, sigma, noise=z).sample_inclusion()

            est_terms = v * z[:, s : s + 1] / sigma  # (M, T)
            fd_terms = (v_plus - v_minus) / (2 * h)
            diff = est_terms - fd_terms
            mean_diff = diff.mean(axis=0)
            se = diff.std(axis=0, ddof=1) / np.sqrt(m)
            assert np.all(np.abs(mean_diff) <= 3 * se + 1e-9), f"column {s}"

    def test_symmetric_scores_give_symmetric_jacobian(self):
        t_len, kappa, sigma, m = 5, 2, 0.3, 200_000
        omega = np.full(t_len, 0.5)
        sel = topk_score(omega, kappa, m, sigma, np.random.default_rng(12))
        jac = sel.inclusion_jacobian()
        diag = np.diag(jac)
        off = jac[~np.eye(t_len, dtype=bool)]
        tol = 4.0 / (sigma * np.sqrt(m))
        assert np.ptp(diag) < 3 * tol
        assert np.ptp(off) < 3 * tol

    def test_gradient_flows_into_scorer_and_features(self):
        """Through the inclusion into the scorer, and into features that
        require grad through the fusion ``features * inclusion`` and the
        scorer."""
        rng = np.random.default_rng(13)
        feats = Tensor(rng.normal(size=(10, 6)).astype(np.float32), requires_grad=True)
        scorer = scorer_mlp(6, 3, (12, 6))
        cfg = TsaConfig(num_samples=64, ratio=0.5, sigma_noise=0.2, seed=0)
        incl, _, _ = tsa_forward(feats, scorer, cfg, np.random.default_rng(21))
        ag.backward(ag.l2_norm(feats * incl))
        assert feats.grad is not None and np.any(feats.grad != 0)
        assert all(w.grad is not None and np.any(w.grad != 0) for w in scorer.weights)

    def test_constant_features_get_no_gradient_computed(self):
        """The selection takes only the scores: they are its one parent, and
        its one gradient is theirs."""
        rng = np.random.default_rng(13)
        omega = Tensor(rng.uniform(size=(10, 1)), requires_grad=True)
        cfg = TsaConfig(num_samples=8, ratio=0.5, sigma_noise=0.2, seed=0)
        incl, _ = tsa_fuse(omega, cfg, np.random.default_rng(21))
        assert incl._rec.op == "tsa_select" and incl._rec.parents == (omega,)
        (grad_omega,) = incl._rec.vjp(np.ones(incl.shape, np.float32))
        assert grad_omega.shape == omega.shape

    def test_engine_gradcheck_at_full_selection(self):
        """Deterministic end-to-end check through the attention node: at
        kappa=T the selection is the constant identity, so every analytic
        gradient must match finite differences of the engine's own float64
        forward (the scorer's, exactly zero on both routes)."""
        rng = np.random.default_rng(14)
        feats64 = rng.normal(size=(6, 4))
        w64 = rng.normal(size=(4, 1))
        cfg = TsaConfig(num_samples=4, ratio=1.0, sigma_noise=1.0)
        zeros = np.zeros((1, 4, 6))

        def loss_value(f_arr, w_arr):
            with ag.using_dtype(np.float64), ag.no_grad():
                feats = Tensor(f_arr)
                omega = ag.matmul(feats, Tensor(w_arr)).sigmoid()
                incl, _ = tsa_fuse(omega, cfg, noise=zeros)
                return float(ag.l2_norm(feats * incl).data)

        with ag.using_dtype(np.float64):
            feats = Tensor(feats64, requires_grad=True)
            w = Tensor(w64, requires_grad=True)
            omega = ag.matmul(feats, w).sigmoid()
            incl, _ = tsa_fuse(omega, cfg, noise=zeros)
            ag.backward(ag.l2_norm(feats * incl))
            analytic_f = feats.grad.copy()
            analytic_w = w.grad if w.grad is not None else np.zeros_like(w64)

        h = 1e-5
        fd_f = np.zeros_like(feats64)
        for i in range(feats64.size):
            fp = feats64.copy()
            fp.flat[i] += h
            fm = feats64.copy()
            fm.flat[i] -= h
            fd_f.flat[i] = (loss_value(fp, w64) - loss_value(fm, w64)) / (2 * h)
        fd_w = np.zeros_like(w64)
        for i in range(w64.size):
            wp = w64.copy()
            wp.flat[i] += h
            wm = w64.copy()
            wm.flat[i] -= h
            fd_w.flat[i] = (loss_value(feats64, wp) - loss_value(feats64, wm)) / (2 * h)

        assert max_rel_err(analytic_f, fd_f) < 1e-3
        assert max_rel_err(analytic_w, fd_w) < 1e-3  # both exactly zero


class TestBatchedSelection:
    """``tsa_fuse(..., bags=n)`` over stacked bags against n one-bag calls
    drawing from the same random stream."""

    def _bags(self, n=3, t_len=7, d=5, seed=16):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, t_len, d)), rng.uniform(0, 1, (n, t_len, 1)), rng.normal(size=(n, t_len, d))

    def test_stacked_matches_per_bag(self):
        feats, omega, upstream = self._bags()
        n, t_len, d = feats.shape
        cfg = TsaConfig(num_samples=40, ratio=0.5, sigma_noise=0.2)
        with ag.using_dtype(np.float64):
            x = Tensor(feats.reshape(n * t_len, d))
            w = Tensor(omega.reshape(n * t_len, 1), requires_grad=True)
            incl, sel = tsa_fuse(w, cfg, np.random.default_rng(5), bags=n)
            ag.backward((x * incl * Tensor(upstream.reshape(n * t_len, d))).sum())

            rng = np.random.default_rng(5)
            for i in range(n):
                xi = Tensor(feats[i])
                wi = Tensor(omega[i], requires_grad=True)
                incl_i, si = tsa_fuse(wi, cfg, rng)
                ag.backward((xi * incl_i * Tensor(upstream[i])).sum())
                rows = slice(i * t_len, (i + 1) * t_len)
                assert np.array_equal(sel.inclusion[i], si.inclusion[0])
                assert np.array_equal(sel.indices[i], si.indices[0])
                assert np.array_equal(incl.data[rows], incl_i.data)
                assert max_rel_err(w.grad[rows], wi.grad) < 1e-6

    def test_selection_arrays_carry_the_bag_axis(self):
        feats, omega, _ = self._bags(n=2, t_len=6)
        cfg = TsaConfig(num_samples=16, ratio=0.5, sigma_noise=0.1)
        _, sel = tsa_fuse(Tensor(omega.reshape(12, 1)), cfg, np.random.default_rng(0), bags=2)
        assert sel.inclusion.shape == (2, 6)
        assert sel.indices.shape == (2, 16, 3)
        assert sel.noise.shape == (2, 16, 6)
        assert sel.vhat.shape == (2, 3, 6)
        assert sel.sample_inclusion().shape == (2, 16, 6)
        assert sel.inclusion_jacobian().shape == (2, 6, 6)
        assert (sel.num_samples, sel.kappa, sel.t_len) == (16, 3, 6)
        for i in range(2):
            one = topk_score(omega[i, :, 0], 3, 16, 0.1, noise=sel.noise[i])
            assert np.array_equal(sel.vhat[i], one.vhat)
            g = np.random.default_rng(i).normal(size=6)
            assert max_rel_err(sel.grad_scores(np.stack([g, g]))[i], one.grad_scores(g), abs_floor=1e-300) < 1e-12

    def test_one_bag_batch_equals_unbatched_call(self):
        feats, omega, _ = self._bags(n=1)
        cfg = TsaConfig(num_samples=20, ratio=0.7, sigma_noise=0.1)
        incl, s1 = tsa_fuse(Tensor(omega[0]), cfg, np.random.default_rng(3))
        s0 = topk_score(omega[0, :, 0], 4, 20, 0.1, np.random.default_rng(3))
        assert np.array_equal(incl.data, s0.inclusion[:, None].astype(np.float32))
        assert np.array_equal(s1.inclusion[0], s0.inclusion)
        assert (s1.inclusion.shape, s0.inclusion.shape) == ((1, 7), (7,))

    @pytest.mark.parametrize("omega", [np.float64(0.5), np.zeros(0), np.zeros((2, 0))])
    def test_scores_need_a_non_empty_last_axis(self, omega):
        with pytest.raises(ValueError, match="non-empty last axis"):
            topk_score(omega, 1, 4, 0.1, np.random.default_rng(0))

    def test_rows_must_split_into_bags(self):
        cfg = TsaConfig(num_samples=4)
        for bags in (0, 2):
            with pytest.raises(ag.ShapeError, match="equal bags"):
                tsa_fuse(Tensor(np.ones((7, 1))), cfg, np.random.default_rng(0), bags=bags)
        for shape in ((6,), (6, 2)):
            with pytest.raises(ag.ShapeError, match=re.escape(f"one score per snippet, (rows, 1), got {shape}")):
                tsa_fuse(Tensor(np.ones(shape)), cfg, np.random.default_rng(0), bags=2)

    def test_one_generator_per_bag_selects_as_one_bag_calls(self):
        """A list of generators, one per bag, draws each bag's noise from its
        own: the selection is exactly that of one-bag calls with each."""
        _, omega, _ = self._bags(n=3, t_len=9)
        scores = omega[..., 0]
        got = topk_score(scores, 4, 30, 0.2, [np.random.default_rng(s) for s in (7, 8, 9)])
        for i, s in enumerate((7, 8, 9)):
            one = topk_score(scores[i], 4, 30, 0.2, np.random.default_rng(s))
            assert np.array_equal(got.noise[i], one.noise)
            assert np.array_equal(got.selected[i], one.selected)
            assert np.array_equal(got.inclusion[i], one.inclusion)

    def test_one_generator_serves_every_bag_in_turn(self):
        """One generator and a list naming it once per bag draw the same
        noise, the stream of one (bags, M, T) draw, and leave it in the same
        state."""
        scores = np.random.default_rng(17).uniform(size=(16, 32))
        g, g2, g3 = (np.random.default_rng(21) for _ in range(3))
        one = topk_score(scores, 22, 100, 0.05, g)
        listed = topk_score(scores, 22, 100, 0.05, [g2] * 16)
        assert np.array_equal(one.noise, listed.noise)
        assert np.array_equal(one.noise, g3.standard_normal((16, 100, 32)))
        assert np.array_equal(one.selected, listed.selected)
        assert g.bit_generator.state == g2.bit_generator.state == g3.bit_generator.state

    @pytest.mark.parametrize("count", [0, 2, 4])
    def test_generator_list_needs_one_per_bag(self, count):
        scores = np.zeros((3, 5))
        with pytest.raises(ValueError, match=rf"one generator per bag \(3\), got {count}"):
            topk_score(scores, 2, 4, 0.1, [np.random.default_rng(i) for i in range(count)])
