"""Full detector: scorer + temporal context module + snippet classifier.

`context_features` runs the first two stages, the scorer with its attention
and the context module, and `score_bag` adds the classifier over every row,
as eval scores a video. Training runs the classifier on the rows its loss
reads alone (`trainer.forward_loss`).

`param_shapes` is the one table of the detector's parameter names and shapes.
`init_model` fills it with fan-based uniform weights and zero biases,
`load_checkpoint` with a file's checked arrays, and both build the model from
it through `_assemble`.

Checkpoints are a versioned binary: magic ``VADC`` | version u32 |
header-length u32 | JSON header | tensor count u32 | per tensor: name length
u32, name bytes, ndim u32, dims u32 each, float32 payload. Same little-endian
number layout as the feature files. The version 2 header holds what a load
builds the model from: ``d``, ``scorer_hidden``, the ``tsa`` block
(``TsaConfig``'s fields) and ``tsa_enabled``. Of these, ``tsa.seed`` is read
by nothing; it stays while callers still set ``TsaConfig.seed``. The
classifier widths and the conv kernel are constants of ``param_shapes``, so
the tensor table's shape checks reject a file laid out with any other.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import Rngs, SoftSelection, TsaConfig, tsa_forward
from .autograd import Tensor, all_finite
from .features import FormatError
from .nn import MLP, ConvModule, conv_module_forward, mlp_forward

CHECKPOINT_MAGIC = b"VADC"
CHECKPOINT_VERSION = 2

SCORER_HIDDEN = (512, 256)
CLASSIFIER_HIDDEN = (128, 32)
CONV_KERNEL = 3


@dataclass
class Model:
    d: int
    scorer: MLP
    conv: ConvModule
    classifier: MLP
    tsa: TsaConfig
    tsa_enabled: bool = True
    _params: dict[str, Tensor] = field(kw_only=True, repr=False, compare=False)

    def named_params(self) -> dict[str, Tensor]:
        """A copy of the parameter table the model was built from."""
        return dict(self._params)


def param_shapes(d: int, scorer_hidden: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    """The detector's parameter table: every parameter's name and shape, in
    the order ``init_model`` draws each block's weights; the 1-D entries are
    biases. The context module splits the width into four branches, so ``d``
    must be a positive multiple of 4."""
    if d < 4 or d % 4 != 0:
        raise ValueError(f"feature width d must be a positive multiple of 4, got {d!r}")
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix, dims in (("scorer", (d, *scorer_hidden, 1)), ("classifier", (d, *CLASSIFIER_HIDDEN, 1))):
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes[f"{prefix}.{i}.w"] = (fan_in, fan_out)
            shapes[f"{prefix}.{i}.b"] = (fan_out,)
    c = d // 4
    for i in range(3):
        shapes[f"conv.conv{i}.w"] = (CONV_KERNEL, d, c)
        shapes[f"conv.conv{i}.b"] = (c,)
    for name in ("theta", "phi", "g"):
        shapes[f"conv.attn.{name}"] = (d, c)
    return shapes


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot-uniform float32 weights for a (..., fan_in, fan_out) kernel.
    Every leading axis counts as receptive field, so a (k, c_in, c_out) conv
    kernel has fan-in k * c_in and fan-out k * c_out."""
    receptive = math.prod(shape[:-2])
    bound = float(np.sqrt(6.0 / (receptive * shape[-2] + receptive * shape[-1])))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def _assemble(d: int, arrays: dict[str, np.ndarray], tsa: TsaConfig, tsa_enabled: bool) -> Model:
    """Build a model from one array per ``param_shapes`` entry."""
    p = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}

    def mlp(prefix: str) -> MLP:
        layers = range(sum(name.startswith(f"{prefix}.") for name in p) // 2)
        return MLP([p[f"{prefix}.{i}.w"] for i in layers], [p[f"{prefix}.{i}.b"] for i in layers])

    conv = ConvModule(
        [p[f"conv.conv{i}.w"] for i in range(3)], [p[f"conv.conv{i}.b"] for i in range(3)],
        *(p[f"conv.attn.{name}"] for name in ("theta", "phi", "g")),
    )
    return Model(d, mlp("scorer"), conv, mlp("classifier"), tsa, tsa_enabled, _params=p)


def init_model(
    d: int,
    tsa: TsaConfig,
    seed_seq: np.random.SeedSequence,
    tsa_enabled: bool = True,
    scorer_hidden: tuple[int, ...] = SCORER_HIDDEN,
) -> Model:
    """A fresh detector. The scorer, the context module and the classifier
    each draw their weights in table order from their own spawned stream."""
    rngs = dict(zip(("scorer", "conv", "classifier"), map(np.random.default_rng, seed_seq.spawn(3))))
    arrays = {
        name: np.zeros(shape, np.float32) if len(shape) == 1 else xavier_uniform(rngs[name.split(".")[0]], shape)
        for name, shape in param_shapes(d, scorer_hidden).items()
    }
    return _assemble(d, arrays, tsa, tsa_enabled)


def context_features(
    model: Model, features: Tensor, bags: int = 1, *, tsa_rng: Rngs | None = None
) -> tuple[Tensor, SoftSelection | None]:
    """The detector's context stage: the scorer and the attention (when
    enabled) and the context module, over ``bags`` bags of T snippets
    stacked along the rows. Returns (context features (rows, d), soft
    selection or None when attention is disabled)."""
    incl = selection = None
    if model.tsa_enabled:
        incl, selection, _ = tsa_forward(features, model.scorer, model.tsa, tsa_rng, bags=bags)
    return conv_module_forward(model.conv, features, bags, scale=incl), selection


def score_bag(model: Model, features: Tensor, bags: int = 1, *, tsa_rng: Rngs | None = None):
    """The detector's forward pass over every row, as eval runs it: the
    context stage, then the classifier without dropout.

    ``features`` holds ``bags`` bags of T snippets stacked along the rows;
    every stage keeps them apart. Returns (snippet scores (rows, 1), context
    features (rows, d), soft selection or None when attention is disabled).
    Training runs the same two stages, with the classifier on the rows its
    loss reads (``trainer.forward_loss``).
    """
    ctx, selection = context_features(model, features, bags, tsa_rng=tsa_rng)
    return mlp_forward(model.classifier, ctx, bags=bags), ctx, selection


def save_checkpoint(model: Model, path) -> None:
    header = {
        "d": model.d,
        "scorer_hidden": list(model.scorer.dims[1:-1]),
        "tsa": {f.name: getattr(model.tsa, f.name) for f in fields(TsaConfig)},
        "tsa_enabled": model.tsa_enabled,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    params = model.named_params()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            data = np.ascontiguousarray(params[name].data, dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def _int_list(fields_: dict, key: str, path) -> tuple[int, ...]:
    """``fields_[key]`` as a tuple if it is a JSON list of positive integers."""
    value = fields_[key]
    if not isinstance(value, list) or not all(type(v) is int and v > 0 for v in value):
        raise FormatError(f"{path}: header field '{key}' must be a list of positive integers, got {value!r}")
    return tuple(value)


_JSON_KINDS = {int: "an integer", bool: "a boolean", float: "a finite number"}


def _typed(fields_: dict, key: str, kind: type, path, where: str = ""):
    """``fields_[key]`` if it has JSON type ``kind``: an int for int, a bool
    for bool, and an int or float (never a bool) within float range for
    float."""
    value = fields_[key]
    ok = type(value) in (int, float) and abs(value) <= sys.float_info.max if kind is float else type(value) is kind
    if not ok:
        raise FormatError(f"{path}: header field '{where}{key}' must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _object(doc, names: list[str], path, what: str) -> dict:
    """``doc`` if it is a JSON object whose fields are exactly ``names``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} must be a JSON object, got {type(doc).__name__}")
    if sorted(doc) != sorted(names):
        raise FormatError(f"{path}: {what} has fields {sorted(doc)}, expected {sorted(names)}")
    return doc


def _init_args(header, path) -> dict:
    """Validate a checkpoint header; returns ``_assemble``'s arguments other
    than the arrays, plus ``scorer_hidden``."""
    _object(header, ["d", "scorer_hidden", "tsa", "tsa_enabled"], path, "checkpoint header")
    tsa_fields = _object(header["tsa"], [f.name for f in fields(TsaConfig)], path, "header field 'tsa'")
    for f in fields(TsaConfig):
        _typed(tsa_fields, f.name, type(f.default), path, "tsa.")
    return dict(
        d=_typed(header, "d", int, path),
        tsa=TsaConfig(**tsa_fields),
        tsa_enabled=_typed(header, "tsa_enabled", bool, path),
        scorer_hidden=_int_list(header, "scorer_hidden", path),
    )


def _read_tensors(view: memoryview, off: int, shapes: dict[str, tuple[int, ...]], path) -> dict[str, np.ndarray]:
    """Read the tensor table at ``off``; each tensor's name and shape are
    checked against ``shapes`` before its payload is copied. Returns the
    arrays in table order."""
    (count,) = struct.unpack_from("<I", view, off)
    off += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", view, off)
        off += 4
        name = bytes(view[off : off + name_len]).decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<I", view, off)
        off += 4
        shape = struct.unpack_from(f"<{ndim}I", view, off)
        off += 4 * ndim
        if name not in shapes or name in tensors:
            raise FormatError(f"{path}: unexpected or repeated tensor '{name}'")
        if shape != shapes[name]:
            raise FormatError(f"{path}: tensor '{name}' has shape {shape}, expected {shapes[name]}")
        size = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(view, dtype="<f4", count=size, offset=off).reshape(shape).astype(np.float32)
        if not all_finite(arr):
            raise FormatError(f"{path}: tensor '{name}' holds NaN or Inf")
        tensors[name] = arr
        off += 4 * size
    if off != len(view):
        raise FormatError(f"{path}: {len(view) - off} trailing bytes after the last tensor")
    missing = sorted(set(shapes) - set(tensors))
    if missing:
        raise FormatError(f"{path}: parameter set mismatch, missing {missing[:4]}")
    return {name: tensors[name] for name in shapes}


def load_checkpoint(path) -> Model:
    """Read a checkpoint. The header fixes every tensor's shape, and each
    tensor is checked against it before the model is built from the file's
    arrays, so a file can only cost memory in proportion to its own size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    if len(view) < 12 or bytes(view[:4]) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version, header_len = struct.unpack_from("<II", view, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(bytes(view[12 : 12 + header_len]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint header ({exc})") from exc
    try:
        args = _init_args(header, path)
        shapes = param_shapes(args["d"], args.pop("scorer_hidden"))
    except FormatError:
        raise
    except ValueError as exc:  # a range check of TsaConfig or param_shapes
        raise FormatError(f"{path}: header field out of range: {exc}") from exc
    try:
        arrays = _read_tensors(view, 12 + header_len, shapes, path)
    except FormatError:
        raise
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    return _assemble(arrays=arrays, **args)
