"""The benchmark's tracer wraps module-level library names by their string
names; a refactor that drops or renames one, or that changes what the traced
benchmark checks count, must fail here, not only under
``benchmarks/run.py --trace 1``."""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from wsvad import cli, trainer
from wsvad.attention import TsaConfig
from wsvad.model import init_model, save_checkpoint
from wsvad.synthetic import SyntheticConfig, generate_synthetic

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCHMARKS / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_library_name(spans):
    tracer = spans.Tracer()
    with tracer:
        assert tracer._originals
    assert tracer.restored()


def test_traced_epoch_counts_match_the_shapes(spans, tmp_path):
    d, t_len, b = 8, 4, 2
    manifest, _ = generate_synthetic(
        SyntheticConfig(n_normal=3, n_abnormal=3, d=d, snippet_len=4, frame_range=(40, 80), seed=3), tmp_path
    )
    cfg = trainer.TrainConfig(t_len=t_len, batch_bags=b, epochs=1, tsa=TsaConfig(num_samples=8), seed=1)
    with spans.Tracer() as tracer:
        trainer.train(manifest, tmp_path / "train", cfg)
    assert tracer.restored()
    # the benchmark's exact check: 2B bags of T rows through 3 branches,
    # kernel 3, d -> d/4
    assert tracer.counts[("train", "autograd.conv1d_flop")] == 2 * b * t_len * 3 * 2 * 3 * d * (d // 4)
    calls = spans.call_counts(tracer.spans, "train")
    assert calls["nn.conv_module"] == 1
    # the traced benchmark's per-layer times read these spans; a forward
    # routed around every wrapped name would leave them missing
    for name in ("attention.tsa_fuse", "attention.scorer", "nn.classifier"):
        assert calls[name] == 1, name
    assert calls["autograd.conv1d_dilated"] == 3
    # one graph over the stacked batch: scorer 3 nodes (one linear per
    # layer), attention 1, context module 6 (3 convs with bias,
    # nonlocal_attention, concat, residual add), classifier 5 (3 linear,
    # 2 dropout), loss 20
    assert tracer.epoch_nodes == [35]


def test_traced_eval_counts_match_the_manifest(spans, tmp_path):
    _, test_m = generate_synthetic(
        SyntheticConfig(n_normal=3, n_abnormal=3, d=8, snippet_len=4, frame_range=(40, 80), seed=3), tmp_path
    )
    checkpoint = tmp_path / "checkpoint.vadc"
    save_checkpoint(init_model(8, TsaConfig(num_samples=8), np.random.SeedSequence(0)), checkpoint)
    test_dir = tmp_path / "test"
    argv = ["eval", "--manifest", str(test_dir / "manifest.json"), "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "ev")]
    with spans.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        tracer.phase = "eval"
        assert cli.main(argv) == 0
    assert tracer.restored()
    # the benchmark's exact eval checks, and the bytes it reports as read
    assert tracer.counts[("eval", "evaluate.videos")] == len(test_m.videos)
    assert tracer.counts[("eval", "evaluate.frames")] == sum(v.frame_count for v in test_m.videos)
    assert tracer.counts[("eval", "features.bytes_read")] == sum((test_dir / v.path).stat().st_size for v in test_m.videos)
