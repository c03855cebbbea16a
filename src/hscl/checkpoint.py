"""Checkpoints: the binary format, its metadata table and network restore.

A checkpoint hands a run's weights and metadata from pre-training to
fine-tuning and on to evaluation. Checkpoints are a little-endian binary
format: magic ``GCCK``, u32 version, length-prefixed JSON metadata, then
name-sorted tensors (u32 name length, name, u32 rank, u32 dims, float64
payload) and a trailing CRC32. Every metadata key a writer emits is declared
once, in ``CHECKPOINT_META``, and every restore reads it through
``meta_value``.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .data import LABEL_MODES, check_fractions
from .errors import CheckpointIntegrityError, CheckpointVersionError, ConfigError, ShapeError
from .model import ACTIVATIONS, MLP, ClassifierHead, EncoderParams

CHECKPOINT_MAGIC = b"GCCK"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """A run's named weight tensors and its JSON metadata, as saved and loaded."""

    tensors: dict[str, np.ndarray]
    meta: dict


def checkpoint_bytes(ck: Checkpoint) -> bytes:
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    meta = json.dumps(ck.meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf += struct.pack("<I", len(meta))
    buf += meta
    names = sorted(ck.tensors)
    buf += struct.pack("<I", len(names))
    for name in names:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(ck.tensors[name], dtype="<f8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += arr.tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    return bytes(buf)


def save_checkpoint(ck: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(ck))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointIntegrityError(f"{path}: truncated checkpoint ({len(blob)} bytes)")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointIntegrityError(f"{path}: bad magic, not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: checkpoint version {version}, this build reads version {CHECKPOINT_VERSION}"
        )
    body = blob[:-4]
    (crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointIntegrityError(f"{path}: checksum mismatch")

    offset = 8

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(body):
            raise CheckpointIntegrityError(f"{path}: truncated checkpoint body")
        piece = body[offset : offset + n]
        offset += n
        return piece

    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIntegrityError(f"{path}: corrupt metadata block: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointIntegrityError(
            f"{path}: corrupt metadata block: expected a JSON object, got {type(meta).__name__}"
        )
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointIntegrityError(f"{path}: corrupt tensor name: {exc}") from None
        if name in tensors:
            raise CheckpointIntegrityError(f"{path}: tensor {name!r} given twice")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        size = math.prod(dims)  # exact: an int64 product of large dims can wrap to a size that fits
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(dims)
        tensors[name] = np.array(data, dtype=np.float64)
    if offset != len(body):
        raise CheckpointIntegrityError(f"{path}: trailing data after tensor block")
    return Checkpoint(tensors, meta)


# -- checkpoint metadata ---------------------------------------------------------


def fits_type(value, kind: type) -> bool:
    """Whether a JSON or config-file ``value`` may stand for a ``kind``.

    A bool fits only a bool, an integer fits an int or a float, a float fits
    only a float, and a string only a string.
    """
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _one_of(choices: tuple) -> tuple:
    return (lambda v: fits_type(v, str) and v in choices), f"one of {choices}"


def _fractions(v) -> bool:
    if not (isinstance(v, list) and all(fits_type(f, float) for f in v)):
        return False
    try:
        check_fractions(v, "fractions")
    except ConfigError:
        return False
    return True


_COUNT = (lambda v: fits_type(v, int) and v >= 0), "an integer >= 0"
_FINITE = (lambda v: fits_type(v, float) and math.isfinite(v)), "a finite number"
_OBJECT = (lambda v: isinstance(v, dict)), "an object"
_WIDTHS = (
    (lambda v: isinstance(v, list) and len(v) > 1 and all(fits_type(w, int) and w > 0 for w in v)),
    "a list of 2 or more positive integers",
)

# Every key the writers emit (``training._Runs.snapshot`` and
# ``pipeline.prepare``'s data block): (check, what a valid value is).
# ``train`` and ``pretrain_train`` echo a ``TrainConfig`` that no restore reads.
CHECKPOINT_META = {
    "stage": _one_of(("pretrain", "finetune")),
    "epoch": _COUNT,
    "adam_step": _COUNT,
    "model.widths": _WIDTHS,
    "model.activation": _one_of(ACTIVATIONS),
    "model.cls_widths": _WIDTHS,
    "model.cls_activation": _one_of(ACTIVATIONS),
    "train": _OBJECT,
    "pretrain_train": _OBJECT,
    "data.fractions": (_fractions, "a list of 3 non-negative numbers summing to 1"),
    "data.label_mode": _one_of(LABEL_MODES),
    "data.tau": ((lambda v: _FINITE[0](v) and v >= 0), "a finite number >= 0"),
    "data.higher_is_better": ((lambda v: fits_type(v, bool)), "true or false"),
    "data.split_seed": _COUNT,
    "data.hs_min": _FINITE,
    "data.hs_max": _FINITE,
}
# the keys only a finetune checkpoint carries
FINETUNE_META = ("model.cls_widths", "model.cls_activation", "pretrain_train")


def meta_value(meta: dict, key: str):
    """The metadata value at the dotted ``key``, checked against ``CHECKPOINT_META``.

    A key that is missing raises ``CheckpointIntegrityError`` naming it down
    to the first missing level ("has no data" when ``data`` is absent); a
    value of the wrong type or range raises naming the key, what it must be
    and what it is. A key that only prefixes declared ones (``data``,
    ``model``) must hold an object.
    """
    value, path = meta, ""
    for part in key.split("."):
        if not isinstance(value, dict):
            raise CheckpointIntegrityError(f"checkpoint metadata {path}: expected an object, got {value!r}")
        path = f"{path}.{part}" if path else part
        if part not in value:
            raise CheckpointIntegrityError(f"checkpoint metadata has no {path}")
        value = value[part]
    check, what = CHECKPOINT_META.get(key, _OBJECT)
    if not check(value):
        raise CheckpointIntegrityError(f"checkpoint metadata {key}: expected {what}, got {value!r}")
    return value


def check_meta(meta: dict) -> str:
    """Check every key ``CHECKPOINT_META`` declares for the checkpoint's stage; return the stage."""
    stage = meta_value(meta, "stage")
    for key in CHECKPOINT_META:
        if stage == "finetune" or key not in FINETUNE_META:
            meta_value(meta, key)
    return stage


# -- parameter <-> checkpoint plumbing -------------------------------------------


def _tensor_name(prefix: str, part: str, i: int) -> str:
    """Checkpoint name of layer i's weight (``part`` "w") or bias ("b"): ``{prefix}.{part}{i}``.

    The regression head's one layer is the exception: ``reg.w`` and ``reg.b``.
    """
    return f"{prefix}.{part}" if prefix == "reg" else f"{prefix}.{part}{i}"


def _network_from_checkpoint(ck: Checkpoint, kind: type[MLP], prefix: str, meta_key: str) -> MLP:
    """Shape-checked copies of the ``kind`` of network named ``prefix``, as ``model.{meta_key}*`` describes it."""
    widths = meta_value(ck.meta, f"model.{meta_key}widths")
    activation = meta_value(ck.meta, f"model.{meta_key}activation")
    tensors = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        for part, shape in (("w", (fan_in, fan_out)), ("b", (fan_out,))):
            name = _tensor_name(prefix, part, i)
            if name not in ck.tensors:
                raise CheckpointIntegrityError(f"checkpoint missing tensor {name!r}")
            if ck.tensors[name].shape != shape:
                raise ShapeError(f"checkpoint {name} has shape {ck.tensors[name].shape}, expected {shape}")
            if not np.isfinite(ck.tensors[name]).all():
                raise CheckpointIntegrityError(f"checkpoint tensor {name!r} holds a non-finite value")
            tensors.append(np.array(ck.tensors[name], dtype=np.float64))
    return kind(widths, activation, tensors[0::2], tensors[1::2])


def encoder_from_checkpoint(ck: Checkpoint) -> EncoderParams:
    """The checkpoint's encoder, its weights and biases copies of the checkpoint's arrays."""
    # older version-1 checkpoints also carry a "pooling" key from a sequence
    # path that 2-D input never reached; it is ignored
    return _network_from_checkpoint(ck, EncoderParams, "encoder", "")


def classifier_from_checkpoint(ck: Checkpoint) -> ClassifierHead:
    """The checkpoint's classifier head, its weights and biases copies of the checkpoint's arrays."""
    return _network_from_checkpoint(ck, ClassifierHead, "cls", "cls_")
