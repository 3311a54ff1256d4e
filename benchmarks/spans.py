"""Outside-in tracing: spans around calls into the library's public functions.

The tracer replaces module-level names that the library looks up at call
time (``trainer.build_batch``, ``autograd.backward``, ``optim.Adam.step``,
...) with timing wrappers, and puts every original back on exit. Nothing in
the library changes; spans are kept in memory and written out at the end.

A span is ``(name, start, end, parent, phase, tag)``: ``parent`` is the
index of the enclosing span (None at top level), ``phase`` is "train" or
"eval", and ``tag`` is the epoch number during training and the video id
during eval.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from wsvad import attention, autograd, cli, evaluate, model, optim, trainer
from wsvad.model import CLASSIFIER_HIDDEN

NAME, START, END, PARENT, PHASE, TAG = range(6)

# feature file header: 4-byte magic, then version, snippet count and width as u32
FEATURE_HEADER_BYTES = 16


def _mlp_role(args, kwargs) -> str:
    """The scorer and the classifier share ``mlp_forward``; tell them apart
    by the hidden layout of the MLP passed in."""
    mlp = args[0] if args else kwargs["mlp"]
    return "nn.classifier" if tuple(mlp.dims[1:-1]) == CLASSIFIER_HIDDEN else "attention.scorer"


def count_graph_nodes(loss) -> int:
    """Op records reachable from ``loss``: the nodes ``backward`` will visit."""
    seen: set[int] = set()
    stack = [loss]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        rec = t._rec
        if rec is not None:
            nodes += 1
            stack.extend(rec.parents)
    return nodes


class Tracer:
    """Context manager that wraps the library's call sites while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.epoch_nodes: list[int] = []
        self.phase = "train"
        self.tag = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def open_span(self, name: str) -> list:
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.phase, self.tag]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.phase, name)] += amount

    def _wrap(self, owner, attr: str, name: str, *, role=None, before=None, after=None, tag=None) -> None:
        original = owner.__dict__[attr]

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            prev_tag = self.tag
            if tag is not None:
                self.tag = tag(args, kwargs)
            span = self.open_span(role(args, kwargs) if role else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close_span(span)
                self.tag = prev_tag
            if after is not None:
                after(args, kwargs, result)
            return result

        self._saved.append((owner, attr, original))
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- counters --------------------------------------------------------------

    def _before_backward(self, args, kwargs) -> None:
        span = self.open_span("bench.graph_walk")
        try:
            self.epoch_nodes.append(count_graph_nodes(args[0]))
        finally:
            self.close_span(span)

    def _after_conv(self, args, kwargs, out) -> None:
        x, w = args[0], args[1]
        k, c_in, c_out = w.shape
        self.count("autograd.conv1d_flop", 2.0 * x.shape[0] * k * c_in * c_out)

    def _after_load_records(self, args, kwargs, records) -> None:
        self.count("features.bytes_read", sum(FEATURE_HEADER_BYTES + r.features.nbytes for r in records))

    def _after_infer_video(self, args, kwargs, timeline) -> None:
        self.count("evaluate.videos", 1)
        self.count("evaluate.frames", int(timeline.frame_scores.size))

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        video_tag = lambda args, kwargs: args[0].video_id
        # loading happens before epoch 1, so it carries no epoch tag
        load = dict(after=self._after_load_records, tag=lambda args, kwargs: None)
        for owner, attr, name, extra in [
            (trainer, "load_records", "features.load_records", load),
            (trainer, "build_batch", "trainer.build_batch", {}),
            (trainer, "tsa_fuse", "attention.tsa_fuse", {}),
            (trainer, "conv_module_forward", "nn.conv_module", {}),
            (trainer, "mlp_forward", None, dict(role=_mlp_role)),
            (trainer, "dmt_loss", "trainer.dmt_loss", {}),
            (autograd, "backward", "autograd.backward", dict(before=self._before_backward)),
            (autograd, "conv1d_dilated", "autograd.conv1d_dilated", dict(after=self._after_conv)),
            (optim.Adam, "step", "optim.adam_step", {}),
            (attention, "topk_score", "attention.topk_score", {}),
            (attention, "tsa_fuse", "attention.tsa_fuse", {}),
            (attention, "mlp_forward", None, dict(role=_mlp_role)),
            (model, "tsa_forward", "attention.tsa_forward", {}),
            (model, "conv_module_forward", "nn.conv_module", {}),
            (model, "mlp_forward", None, dict(role=_mlp_role)),
            (evaluate, "load_records", "features.load_records", load),
            (evaluate, "infer_video", "evaluate.infer_video", dict(tag=video_tag, after=self._after_infer_video)),
            (evaluate, "score_bag", "model.score_bag", {}),
            (evaluate, "unfold_scores", "evaluate.unfold", {}),
            (evaluate, "auc_roc", "metrics.auc_roc", {}),
            (evaluate, "auc_pr", "metrics.auc_pr", {}),
            (cli, "load_checkpoint", "model.load_checkpoint", {}),
            (cli, "write_frame_csv", "evaluate.write_frame_csv", {}),
        ]:
            self._wrap(owner, attr, name, **extra)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether every wrapped name is back to its original object."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self._originals)


# -- derived per-layer numbers ---------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span never overlap: the program is single-threaded)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans: list[list], phase: str) -> dict[str, float]:
    """Total inclusive seconds per span name within one phase."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[PHASE] == phase:
            out[s[NAME]] += s[END] - s[START]
    return out


def call_counts(spans: list[list], phase: str) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if s[PHASE] == phase:
            out[s[NAME]] += 1
    return out


def epoch_self_seconds(spans: list[list], epoch_ends: list[float]) -> list[float]:
    """Per-epoch time that no top-level span covers.

    Epoch k runs from the start of its first span to the ``val_fn`` call
    that closes it (``epoch_ends[k-1]``); what its top-level spans leave
    uncovered is the trainer's own bookkeeping: the gather/concat around the
    per-bag forward, ``zero_grad`` and the Python loop.
    """
    first: dict[int, float] = {}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[PHASE] != "train" or s[PARENT] is not None or s[TAG] is None:
            continue
        first.setdefault(s[TAG], s[START])
        covered[s[TAG]] += s[END] - s[START]
    return [epoch_ends[k - 1] - first[k] - covered[k] for k in sorted(first)]


def infer_video_ms(spans: list[list]) -> np.ndarray:
    return np.array([(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "evaluate.infer_video"])


def spans_as_records(spans: list[list]) -> list[dict]:
    own = _self_times(spans)
    return [
        {"name": s[NAME], "start": s[START], "end": s[END], "self": own[i], "parent": s[PARENT], "phase": s[PHASE], "tag": s[TAG]}
        for i, s in enumerate(spans)
    ]
