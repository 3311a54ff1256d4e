"""Model assembly and checkpoint round-trips."""

import hashlib
import json
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from wsvad import autograd as ag
from wsvad.attention import TsaConfig
from wsvad.autograd import Tensor, no_grad
from wsvad.features import FormatError
from wsvad.model import init_model, load_checkpoint, param_shapes, save_checkpoint, score_bag


def small_model(seed=0, **tsa_kw):
    return init_model(
        8, TsaConfig(seed=seed, **tsa_kw), np.random.SeedSequence(seed), scorer_hidden=(12, 6)
    )


def read_header(path) -> dict:
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + header_len])


def rewrite_header(path, edit):
    """Apply ``edit`` to the checkpoint's decoded JSON header and write it back."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    new = json.dumps(edit(read_header(path))).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len :])


def save_with_tensor(tmp_path, name, shape):
    """A small model's checkpoint with tensor ``name`` saved at ``shape``."""
    model = small_model()
    model.named_params()[name].data = np.zeros(shape, np.float32)
    path = tmp_path / "model.vadc"
    save_checkpoint(model, path)
    return path


def edited(doc, *keys, value=None):
    """A copy of ``doc`` with the entry at key path ``keys`` set to ``value``,
    or removed when ``value`` is None."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    if value is None:
        del inner[keys[-1]]
    else:
        inner[keys[-1]] = value
    return doc


class TestCheckpoint:
    def test_round_trip_parameters_and_config(self, tmp_path):
        model = small_model(seed=3, ratio=0.6, num_samples=37)
        path = tmp_path / "model.vadc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.d == model.d
        assert loaded.tsa == model.tsa
        assert loaded.tsa_enabled == model.tsa_enabled
        a, b = model.named_params(), loaded.named_params()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_round_trip_preserves_inference(self, tmp_path):
        model = small_model(seed=4)
        path = tmp_path / "model.vadc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        feats = Tensor(np.random.default_rng(0).normal(size=(9, 8)).astype(np.float32))
        with no_grad():
            u1, _, _ = score_bag(model, feats, tsa_rng=np.random.default_rng(1))
            u2, _, _ = score_bag(loaded, feats, tsa_rng=np.random.default_rng(1))
        assert np.array_equal(u1.data, u2.data)

    def test_save_is_deterministic(self, tmp_path):
        model = small_model(seed=5)
        p1, p2 = tmp_path / "a.vadc", tmp_path / "b.vadc"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.vadc"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.vadc"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_other_version_rejected(self, tmp_path):
        """No version 1 reader is kept: its header carried fields that no
        forward pass reads."""
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(FormatError, match="model.vadc: unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_other_classifier_layout_rejected(self, tmp_path):
        """The classifier widths are not in the header; the tensor table's
        shape check names the first tensor laid out for other widths."""
        path = save_with_tensor(tmp_path, "classifier.0.w", (8, 64))
        message = "model.vadc: tensor 'classifier.0.w' has shape (8, 64), expected (8, 128)"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_other_conv_kernel_rejected(self, tmp_path):
        path = save_with_tensor(tmp_path, "conv.conv0.w", (5, 8, 2))
        message = "model.vadc: tensor 'conv.conv0.w' has shape (5, 8, 2), expected (3, 8, 2)"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_missing_last_tensor_rejected(self, tmp_path):
        """A table one tensor short that ends at that tensor's boundary has no
        trailing bytes; the missing parameter is what is named."""
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        count_at = 12 + header_len
        (count,) = struct.unpack_from("<I", blob, count_at)
        off = count_at + 4
        for _ in range(count - 1):  # walk past every tensor but the last
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4 + name_len
            (ndim,) = struct.unpack_from("<I", blob, off)
            shape = struct.unpack_from(f"<{ndim}I", blob, off + 4)
            off += 4 + 4 * ndim + 4 * int(np.prod(shape))
        (name_len,) = struct.unpack_from("<I", blob, off)
        last = blob[off + 4 : off + 4 + name_len].decode("utf-8")
        path.write_bytes(blob[:count_at] + struct.pack("<I", count - 1) + blob[count_at + 4 : off])
        with pytest.raises(FormatError, match=re.escape(f"model.vadc: parameter set mismatch, missing ['{last}']")):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        model = small_model()
        model.named_params()["conv.conv1.w"].data[0, 0, 0] = bad
        path = tmp_path / "model.vadc"
        save_checkpoint(model, path)
        with pytest.raises(FormatError, match="NaN or Inf"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: edited(h, "d"), "checkpoint header has fields ['scorer_hidden', 'tsa', 'tsa_enabled']"),
            (lambda h: edited(h, "tsa"), "checkpoint header has fields ['d', 'scorer_hidden', 'tsa_enabled']"),
            (lambda h: edited(h, "tsa", "ratio"),
             "header field 'tsa' has fields ['num_samples', 'seed', 'sigma_noise']"),
            (lambda h: edited(h, "tsa_enabled"), "checkpoint header has fields ['d', 'scorer_hidden', 'tsa']"),
            (lambda h: edited(h, "tsa", "bogus", value=1), "header field 'tsa' has fields ['bogus', 'num_samples',"),
            (lambda h: edited(h, "d", value="wide"), "header field 'd' must be an integer, got 'wide'"),
            (lambda h: edited(h, "scorer_hidden", value=5), "header field 'scorer_hidden' must be a list"),
            (lambda h: edited(h, "tsa", value=[1, 2]), "header field 'tsa' must be a JSON object, got list"),
            (lambda h: edited(h, "tsa", "num_samples", value="many"),
             "header field 'tsa.num_samples' must be an integer"),
            (lambda h: edited(h, "tsa", "sigma_noise", value=-0.5),
             "header field out of range: sigma_noise must be positive"),
            (lambda h: [h], "checkpoint header must be a JSON object, got list"),
            (lambda h: edited(h, "tsa", value=[[k, v] for k, v in h["tsa"].items()]),
             "header field 'tsa' must be a JSON object, got list"),
            (lambda h: edited(h, "bogus", value=1), "checkpoint header has fields ['bogus', 'd',"),
        ],
        ids=[
            "no-d", "no-tsa", "no-tsa.ratio", "no-tsa_enabled", "extra-tsa-field", "d-not-int",
            "scorer_hidden-not-list", "tsa-not-object", "num_samples-not-int", "negative-sigma",
            "header-not-object", "tsa-list-of-pairs", "extra-field",
        ],
    )
    def test_missing_or_malformed_header_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError, match=re.escape(f"model.vadc: {message}")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("tsa", "num_samples"), 1.5),
            (("tsa", "num_samples"), True),
            (("tsa", "seed"), "a"),
            (("tsa", "ratio"), True),
            (("tsa", "sigma_noise"), float("inf")),
            (("tsa", "sigma_noise"), 10**400),
            (("tsa_enabled",), "no"),
            (("tsa_enabled",), 1),
            (("d",), 8.0),
        ],
        ids=[
            "num_samples-float", "num_samples-bool", "seed-string", "ratio-bool", "sigma-inf",
            "sigma-past-float-range", "tsa_enabled-string", "tsa_enabled-int", "d-float",
        ],
    )
    def test_header_field_of_wrong_json_type_named(self, tmp_path, keys, value):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, lambda h: edited(h, *keys, value=value))
        with pytest.raises(FormatError, match=rf"model\.vadc: header field '{'.'.join(keys)}' must be"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [5, [12, -6], [12.0, 6]], ids=["int", "negative", "float"])
    @pytest.mark.parametrize("key", ["scorer_hidden"])
    def test_layout_field_not_a_positive_int_list_named(self, tmp_path, key, value):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, lambda h: edited(h, key, value=value))
        message = f"model.vadc: header field '{key}' must be a list of positive integers, got {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    def test_integer_header_values_load_as_numbers(self, tmp_path):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, lambda h: edited(edited(h, "tsa", "sigma_noise", value=2), "tsa", "ratio", value=1))
        loaded = load_checkpoint(path)
        assert (loaded.tsa.ratio, loaded.tsa.sigma_noise) == (1, 2)

    def test_header_estimator_is_fixed(self, tmp_path):
        """There is one selection gradient, so the header names none: a
        ``tsa.estimator`` key is an extra attention field."""
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, lambda h: edited(h, "tsa", "estimator", value="perturbed"))
        with pytest.raises(FormatError, match=re.escape("model.vadc: header field 'tsa' has fields ['estimator',")):
            load_checkpoint(path)

    def test_header_holds_only_what_a_load_builds_from(self, tmp_path):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        header = read_header(path)
        assert set(header) == {"d", "scorer_hidden", "tsa", "tsa_enabled"}
        assert set(header["tsa"]) == {f.name for f in fields(TsaConfig)}

    @pytest.mark.parametrize("d,hidden", [(8, (12, 6)), (16, (5,)), (4, ())])
    def test_param_shapes_match_init_model(self, d, hidden):
        model = init_model(d, TsaConfig(), np.random.SeedSequence(0), scorer_hidden=hidden)
        want = {name: p.data.shape for name, p in model.named_params().items()}
        assert param_shapes(d, hidden) == want

    def test_init_stream_is_pinned(self):
        """Every seeded output starts from these bits; a change to how
        ``init_model`` draws its weights must change this digest on purpose."""
        model = init_model(32, TsaConfig(), np.random.SeedSequence(0))
        digest = hashlib.sha256()
        for name, p in sorted(model.named_params().items()):
            digest.update(name.encode())
            digest.update(p.data.tobytes())
        assert digest.hexdigest() == "b9b39c42f57c0fb4d90d794f4c2787c3a7d1bc504c0174aa65b3c1e90dfbfa4b"

    def test_named_params_is_a_copy_of_the_table(self):
        model = small_model()
        table = model.named_params()
        assert list(table) == list(param_shapes(8, (12, 6)))
        table.clear()
        assert model.named_params()["conv.attn.g"] is model.conv.w_g

    def test_load_makes_no_random_draw(self, tmp_path, monkeypatch):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(seed=6), path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr(np.random, "SeedSequence", no_draw)
        load_checkpoint(path)

    def test_load_peak_memory_is_bounded_by_file_size(self, tmp_path):
        """The file's bytes plus the model built from them, and nothing more."""
        path = tmp_path / "model.vadc"
        save_checkpoint(init_model(32, TsaConfig(), np.random.SeedSequence(0)), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size, peak / size

    def test_header_claiming_a_large_width_allocates_nothing_first(self, tmp_path):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, lambda h: edited(h, "d", value=1024))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="shape"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a d=1024 model would take 15 MB; the file itself is a few kB
        assert peak < 256 * 1024, peak

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: edited(h, "d", value=6),
            lambda h: edited(h, "d", value=0),
            lambda h: edited(h, "scorer_hidden", value=[12, -6]),
        ],
        ids=["d-not-multiple-of-4", "d-zero", "negative-hidden"],
    )
    def test_header_layout_rejected(self, tmp_path, edit):
        path = tmp_path / "model.vadc"
        save_checkpoint(small_model(), path)
        rewrite_header(path, edit)
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestScoreBag:
    def test_tsa_disabled_skips_attention(self):
        model = small_model()
        model.tsa_enabled = False
        feats = Tensor(np.random.default_rng(2).normal(size=(6, 8)).astype(np.float32))
        with no_grad():
            scores, ctx, selection = score_bag(model, feats)
        assert selection is None
        assert scores.shape == (6, 1)
        assert ctx.shape == (6, 8)

    def test_scores_in_unit_interval(self):
        model = small_model()
        feats = Tensor(np.random.default_rng(3).normal(size=(10, 8)).astype(np.float32))
        with no_grad():
            scores, _, sel = score_bag(model, feats, tsa_rng=np.random.default_rng(0))
        assert np.all((scores.data > 0) & (scores.data < 1))
        assert sel is not None and sel.vhat.shape[::2] == (1, 10)

    @pytest.mark.parametrize("tsa_enabled", [True, False])
    def test_stacked_bags_match_one_bag_calls(self, tsa_enabled):
        """The no-grad forward over n stacked bags gives the bits of n one-bag
        calls drawing from the same rng stream in order."""
        model = small_model(num_samples=16)
        model.tsa_enabled = tsa_enabled
        n, t_len = 3, 7
        x = np.random.default_rng(4).normal(size=(n * t_len, 8)).astype(np.float32)
        with no_grad():
            scores, ctx, sel = score_bag(model, Tensor(x), bags=n, tsa_rng=np.random.default_rng(9))
            rng = np.random.default_rng(9)
            singles = [score_bag(model, Tensor(bag), tsa_rng=rng) for bag in x.reshape(n, t_len, 8)]
        assert np.array_equal(scores.data, np.concatenate([s.data for s, _, _ in singles]))
        assert np.array_equal(ctx.data, np.concatenate([c.data for _, c, _ in singles]))
        if tsa_enabled:
            assert sel.inclusion.shape == (n, t_len)
            assert np.array_equal(sel.inclusion, np.concatenate([s.inclusion for _, _, s in singles]))
        else:
            assert sel is None and all(s is None for _, _, s in singles)

    @pytest.mark.parametrize("tsa_enabled", [True, False])
    def test_eval_cost_per_video_is_pinned(self, tsa_enabled, monkeypatch):
        """A no-grad forward, as eval scores a batch of videos: one op per
        MLP and per context branch, and one check per layer, where the
        attention branch checks its logits and its output, for one (T, d)
        bag and for three stacked bags alike, so batching adds no op per
        video. A change that adds ops or checks to eval's path must change
        these on purpose."""
        model = small_model()
        model.tsa_enabled = tsa_enabled
        feats = np.random.default_rng(5).normal(size=(60, 8)).astype(np.float32)
        one, three = Tensor(feats[:20]), Tensor(feats)
        counts = dict(ops=0, checks=0)
        from_op, ensure_finite = ag._from_op, ag._ensure_finite

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(ag, "_from_op", counting("ops", from_op))
        monkeypatch.setattr(ag, "_ensure_finite", counting("checks", ensure_finite))
        with no_grad():
            score_bag(model, one, tsa_rng=np.random.default_rng(0))
            one_bag = dict(counts)
            counts.update(ops=0, checks=0)
            score_bag(model, three, 3, tsa_rng=[np.random.default_rng(i) for i in range(3)])
        # attention on only: scorer 1 op (its 3 layers, 3 checks) +
        # tsa_select 1 + the residual's row scale 1; context module 3 convs
        # + nonlocal_attention (2 checks) + concat (unchecked) + residual
        # add; classifier 1 op (its 3 layers, no dropout masks, 3 checks)
        ops, checks = (3, 5) if tsa_enabled else (0, 0)
        assert one_bag == counts == dict(ops=ops + 6 + 1, checks=checks + 6 + 3)
