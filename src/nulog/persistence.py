"""Single-file binary archives for trained models.

Layout, all integers little-endian u32: magic "NULG" | format version |
nine config scalars (d, heads, ffn_hidden, blocks, frame_length,
vocab_size, epochs, batch_size, seed) | vocab count, then per token a byte
length and UTF-8 bytes, in id order | tensor count, then per tensor a
length-prefixed UTF-8 name, rows, cols, and row-major float32 values.

Format version 2 stores each block's attention projections as the three
(d, d) tensors block{b}.wq, block{b}.wk and block{b}.wv. Version 1 stored
one (d, w) tensor per head and kind; it is rejected like any other
version, so a version-1 model has to be retrained.

Floats are written as float32 regardless of platform so a round-trip is
bitwise identical.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ArchiveError, ValidationError
from .model import Model, ModelConfig
from .tokenizer import SPECIAL_TOKENS, Vocabulary

MAGIC = b"NULG"
VERSION = 2

_CONFIG_SCALARS = ("d", "heads", "ffn_hidden", "blocks", "frame_length",
                   "vocab_size", "epochs", "batch_size", "seed")


def save_model(model: Model, path: str | Path) -> None:
    """Write the model's config, vocabulary, and parameters to one file."""
    if model.vocab is None:
        raise ValidationError("model has no vocabulary to archive")
    if len(model.vocab) != model.config.vocab_size:
        raise ValidationError(
            f"vocabulary holds {len(model.vocab)} tokens but config says "
            f"{model.config.vocab_size}")
    chunks: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    for name in _CONFIG_SCALARS:
        value = getattr(model.config, name)
        if not 0 <= value < 2 ** 32:
            raise ValidationError(f"config scalar {name}={value} exceeds u32 range")
        chunks.append(struct.pack("<I", value))
    tokens = model.vocab.tokens()
    chunks.append(struct.pack("<I", len(tokens)))
    for token in tokens:
        raw = token.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
    names = list(model.params)
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        data = model.params[name].data
        if data.ndim != 2:
            raise ValidationError(f"tensor {name} is not rank 2: shape {data.shape}")
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<II", data.shape[0], data.shape[1]))
        chunks.append(np.ascontiguousarray(data, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    """Cursor over the archive bytes; running past the end is a format error."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.blob):
            raise ArchiveError(
                f"{self.path}: truncated archive (needed {count} bytes at "
                f"offset {self.offset}, file has {len(self.blob)})")
        piece = self.blob[self.offset:self.offset + count]
        self.offset += count
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def utf8(self) -> str:
        length = self.u32()
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArchiveError(f"{self.path}: invalid UTF-8 string: {exc}") from exc


def load_model(path: str | Path) -> Model:
    """Rebuild a model from an archive; the result is bitwise faithful.

    The returned model carries its vocabulary and config. The archived head
    width is taken from the stored head tensors, so both vocabulary heads
    and fine-tuned two-way heads reload cleanly.
    """
    reader = _Reader(Path(path).read_bytes(), path)
    magic = reader.take(4)
    if magic != MAGIC:
        raise ArchiveError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u32()
    if version != VERSION:
        raise ArchiveError(
            f"{path}: archive version {version} is not the supported {VERSION}")
    scalars = {name: reader.u32() for name in _CONFIG_SCALARS}
    config = ModelConfig(**scalars)
    vocab_count = reader.u32()
    if vocab_count != config.vocab_size:
        raise ValidationError(
            f"{path}: archive stores {vocab_count} tokens but config says "
            f"{config.vocab_size}")
    tokens = [reader.utf8() for _ in range(vocab_count)]
    if tuple(tokens[:4]) != SPECIAL_TOKENS:
        raise ValidationError(
            f"{path}: vocabulary does not start with the special tokens")
    vocab = Vocabulary()
    for token in tokens[4:]:
        vocab.add(token)
    tensor_count = reader.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(tensor_count):
        name = reader.utf8()
        rows, cols = reader.u32(), reader.u32()
        raw = reader.take(rows * cols * 4)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(rows, cols).copy()
    if "head.w" not in tensors:
        raise ValidationError(f"{path}: archive has no output head")
    head_out = tensors["head.w"].shape[1]
    expected = Model.parameter_shapes(config, head_out=head_out)
    if set(expected) != set(tensors):
        missing = sorted(set(expected) - set(tensors))
        extra = sorted(set(tensors) - set(expected))
        raise ValidationError(
            f"{path}: tensor names do not match the config "
            f"(missing {missing}, unexpected {extra})")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ValidationError(
                f"{path}: tensor {name} has shape {tensors[name].shape}, "
                f"config implies {shape}")
    return Model(config, vocab=vocab, params=tensors, head_out=head_out)
