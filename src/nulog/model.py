"""The encoder: embeddings, positional encoding, multi-head self-attention,
feed-forward blocks, and the CLS prediction head, plus the training loop.

All learnable tensors live in one dict, params, so the optimizer, the
gradient checker, and the archive writer see one flat namespace;
parameter_shapes is the one list of their names and shapes, in the dict's
order. Each block's attention projections wq, wk and wv are one (d, d)
matrix apiece, head h in columns h*w:(h+1)*w for head width w. Every
forward pass reads (B, frame_length) ids. forward_logits is the one
forward pass behind training, fine-tuning, parsing and classification;
because the head reads the CLS row alone, its last block computes that
row alone. Attention scores its query rows against the rows of x
themselves, as (q·wk^T)·x^T, and takes (p·x)·wv for the output, so for
that one row no block forms the keys and values of every row.
predict_proba is the one softmax over head logits, and train_epoch the
one optimisation pass, shared by masked-token pretraining and supervised
fine-tuning.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import masking, numerics
from .errors import ShapeError, ValidationError
from .masking import MaskedSample
from .numerics import OptimizerState, Tensor
from .tokenizer import TokenSequence, Vocabulary

log = logging.getLogger(__name__)


@dataclass
class ModelConfig:
    """Encoder dimensions and training knobs."""

    vocab_size: int
    frame_length: int
    d: int = 256
    heads: int = 4
    ffn_hidden: int = 512
    blocks: int = 1
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 7

    def __post_init__(self) -> None:
        for name in ("vocab_size", "frame_length", "d", "heads", "ffn_hidden",
                     "blocks", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.d % self.heads != 0:
            raise ValidationError(
                f"embedding dimension {self.d} is not divisible by {self.heads} heads")

    @property
    def head_width(self) -> int:
        return self.d // self.heads


def positional_encoding(frame_length: int, d: int, dtype=np.float32) -> np.ndarray:
    """Sine/cosine position rows, one per frame slot.

    Element i of row j is sin(j / 10000^(i/d)) for even i and
    cos(j / 10000^(i/d)) for odd i; each element keeps its own exponent.
    """
    positions = np.arange(frame_length, dtype=np.float64)[:, None]
    exponents = np.arange(d, dtype=np.float64)[None, :] / d
    angles = positions / np.power(10000.0, exponents)
    enc = np.where(np.arange(d) % 2 == 0, np.sin(angles), np.cos(angles))
    return enc.astype(dtype)


class Model:
    """Encoder weights plus the vocabulary they were trained against.

    A trained instance is immutable by convention: inference methods run
    under no_grad and never touch parameter values.
    """

    def __init__(self, config: ModelConfig, vocab: Vocabulary | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float32,
                 params: Mapping[str, np.ndarray] | None = None,
                 head_out: int | None = None):
        """params, when given, maps each parameter_shapes name to its array,
        taken as is; otherwise the weights are drawn from rng (seeded with
        config.seed by default) in parameter order."""
        self.config = config
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        self.positional = positional_encoding(config.frame_length, config.d, self.dtype)
        self.head_out = config.vocab_size if head_out is None else head_out
        self.training_losses: list[float] = []
        if params is None and rng is None:
            rng = np.random.default_rng(config.seed)
        self.params: dict[str, Tensor] = {}
        for name, shape in self.parameter_shapes(config, self.head_out).items():
            if params is not None:
                values = params[name]
            elif name.endswith((".wq", ".wk", ".wv")):
                # existing seeds must keep their weights: at a block's wq,
                # draw its projections as one (d, w) matrix per head and
                # kind, head 0 wq, wk, wv, then head 1, ..., and put head h
                # of each kind in columns h*w:(h+1)*w
                if name.endswith(".wq"):
                    d, H, w = config.d, config.heads, config.head_width
                    per_head = rng.uniform(-0.1, 0.1, size=(H, 3, d, w)).astype(self.dtype)
                    projections = per_head.transpose(1, 2, 0, 3).reshape(3, d, d)
                values = projections[("wq", "wk", "wv").index(name[-2:])]
            elif "_norm." in name:
                # norm layers start as identity; random gains would crush the signal
                fill = 1.0 if name.endswith(".gain") else 0.0
                values = np.full(shape, fill, dtype=self.dtype)
            else:
                values = rng.uniform(-0.1, 0.1, size=shape).astype(self.dtype)
            self.params[name] = Tensor(values, requires_grad=True, name=name)

    @classmethod
    def parameter_shapes(cls, config: ModelConfig,
                         head_out: int | None = None) -> dict[str, tuple[int, int]]:
        """Expected name -> (rows, cols) map, in parameter order."""
        d = config.d
        out = head_out if head_out is not None else config.vocab_size
        shapes: dict[str, tuple[int, int]] = {"tok_emb": (config.vocab_size, d)}
        for b in range(config.blocks):
            shapes[f"block{b}.wq"] = (d, d)
            shapes[f"block{b}.wk"] = (d, d)
            shapes[f"block{b}.wv"] = (d, d)
            shapes[f"block{b}.attn_norm.gain"] = (1, d)
            shapes[f"block{b}.attn_norm.bias"] = (1, d)
            shapes[f"block{b}.ffn.w1"] = (d, config.ffn_hidden)
            shapes[f"block{b}.ffn.b1"] = (1, config.ffn_hidden)
            shapes[f"block{b}.ffn.w2"] = (config.ffn_hidden, d)
            shapes[f"block{b}.ffn.b2"] = (1, d)
            shapes[f"block{b}.ffn_norm.gain"] = (1, d)
            shapes[f"block{b}.ffn_norm.bias"] = (1, d)
        shapes["head.w"] = (d, out)
        shapes["head.b"] = (1, out)
        return shapes

    # ---- forward passes ----

    def embed(self, framed_ids) -> Tensor:
        """Token embeddings plus positional rows: (B, T) ids -> (B, T, d),
        T the configured frame length."""
        ids = np.asarray(framed_ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != self.config.frame_length:
            raise ShapeError(f"expected (B, {self.config.frame_length}) frame ids, "
                             f"got shape {ids.shape}")
        emb = numerics.embedding(self.params["tok_emb"], ids)
        return numerics.add(emb, Tensor(self.positional))

    def attention(self, x: Tensor, block: int, collect: list | None = None,
                  query: Tensor | None = None) -> Tensor:
        """Multi-head self-attention; head outputs are concatenated, no extra
        output projection.

        Every row of x is attended to; queries come from the rows of query,
        x itself by default. The output has one row per query row.

        Per head, with q = query·wq, the scores q·(x·wk)^T equal
        (q·wk^T)·x^T and the output p·(x·wv) equals (p·x)·wv. Both are
        computed in the second order, all heads in one batched product, so
        the keys and values of every row are never formed: for the one CLS
        query row of the last block that costs O(T·d) per head instead of
        O(T·d·w). Heads move between the batch axis and the row axis with
        rearrange; collect receives one (B, H*Tq, T) weight array per call,
        its rows head-major (row h*Tq + t is head h, query row t).
        """
        cfg = self.config
        H, w, d = cfg.heads, cfg.head_width, cfg.d
        query = x if query is None else query
        B, Tq = query.shape[0], query.rows
        wq, wk, wv = (self.params[f"block{block}.{kind}"] for kind in ("wq", "wk", "wv"))
        # per-head queries q_h, with the heads in the batch axis: (H, B*Tq, w)
        q = numerics.rearrange(numerics.matmul(query, wq), (B, Tq, H, w), (2, 0, 1, 3),
                               (H, B * Tq, w))
        # q_h·wk_h^T, one row per head and query row: (B, H*Tq, d)
        u = numerics.matmul(q, numerics.rearrange(wk, (d, H, w), (1, 2, 0), (H, w, d)))
        u = numerics.rearrange(u, (H, B, Tq, d), (1, 0, 2, 3), (B, H * Tq, d))
        scores = numerics.scale(numerics.matmul(u, numerics.transpose(x)),
                                1.0 / math.sqrt(w))
        weights = numerics.softmax_rows(scores)
        if collect is not None:
            collect.append(weights.data)
        # p_h·x, back with the heads in the batch axis: (H, B*Tq, d)
        ctx = numerics.rearrange(numerics.matmul(weights, x), (B, H, Tq, d), (1, 0, 2, 3),
                                 (H, B * Tq, d))
        # (p_h·x)·wv_h, the heads side by side again: (B, Tq, H*w)
        out = numerics.matmul(ctx, numerics.rearrange(wv, (d, H, w), (1, 0, 2), (H, d, w)))
        return numerics.rearrange(out, (H, B, Tq, w), (1, 2, 0, 3), (B, Tq, d))

    def encoder_forward(self, x: Tensor, collect_attention: list | None = None,
                        cls_only: bool = False) -> Tensor:
        """Attention and feed-forward stages with residuals and norms.

        Output shape equals input shape regardless of the block count,
        unless cls_only: then the last block works out the CLS row alone,
        (B, T, d) -> (B, 1, d). It still attends over every row, but its
        query, residual, norms and feed-forward stage skip the other rows.
        """
        last = self.config.blocks - 1
        for b in range(self.config.blocks):
            query = numerics.first_row(x, keep_rows=True) if cls_only and b == last else x
            attended = self.attention(x, b, collect_attention, query)
            x = numerics.layer_norm_rows(numerics.add(query, attended),
                                         self.params[f"block{b}.attn_norm.gain"],
                                         self.params[f"block{b}.attn_norm.bias"])
            hidden = numerics.relu(numerics.add(
                numerics.matmul(x, self.params[f"block{b}.ffn.w1"]),
                self.params[f"block{b}.ffn.b1"]))
            ffn = numerics.add(numerics.matmul(hidden, self.params[f"block{b}.ffn.w2"]),
                               self.params[f"block{b}.ffn.b2"])
            x = numerics.layer_norm_rows(numerics.add(x, ffn),
                                         self.params[f"block{b}.ffn_norm.gain"],
                                         self.params[f"block{b}.ffn_norm.bias"])
        return x

    def forward_logits(self, framed_ids) -> Tensor:
        """Head logits from the CLS row: (B, T) ids -> (B, head_out)."""
        encoded = self.encoder_forward(self.embed(framed_ids), cls_only=True)
        cls = numerics.first_row(encoded)
        return numerics.add(numerics.matmul(cls, self.params["head.w"]), self.params["head.b"])

    def predict_proba(self, framed_ids) -> np.ndarray:
        """Softmax of the head logits under no_grad: (B, T) ids -> (B, head_out)."""
        with numerics.no_grad():
            logits = self.forward_logits(framed_ids).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def predict_masked_batch(self, samples: list[MaskedSample]) -> np.ndarray:
        """Vocabulary distributions for masked samples: (N, vocab)."""
        return self.predict_proba(np.stack([s.input_ids for s in samples]))


def train_epoch(model: Model, opt: OptimizerState, ids: np.ndarray,
                targets: np.ndarray) -> float:
    """One optimisation pass over the rows of ids, in order, in batches of
    the model's batch size. Returns the mean loss per row."""
    size = model.config.batch_size
    total = 0.0
    for start in range(0, len(ids), size):
        batch = ids[start:start + size]
        loss = numerics.cross_entropy(model.forward_logits(batch),
                                      targets[start:start + size])
        loss.backward()
        numerics.optimizer_step(model.params, opt)
        total += float(loss.data) * len(batch)
    return total / len(ids)


def train(corpus: list[TokenSequence], config: ModelConfig,
          vocab: Vocabulary | None = None) -> Model:
    """Train by masked-token prediction: one random mask per message per epoch.

    Sample order is reshuffled every epoch from the same seeded generator
    that drew the initial weights, so a seed pins down the whole run.
    """
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    rng = np.random.default_rng(config.seed)
    model = Model(config, vocab=vocab, rng=rng)
    if config.epochs == 0:
        return model
    opt = OptimizerState(model.params, learning_rate=config.learning_rate)
    for epoch in range(config.epochs):
        order = rng.permutation(len(corpus))
        samples = []
        for i in order:
            sample = masking.sample_random_mask(corpus[i], rng)
            if sample is not None:
                samples.append(sample)
        if not samples:
            raise ValidationError("no maskable messages in the corpus")
        mean_loss = train_epoch(model, opt, np.stack([s.input_ids for s in samples]),
                                np.array([s.target_id for s in samples], dtype=np.int64))
        model.training_losses.append(mean_loss)
        log.info("epoch %d/%d: mean loss %.4f over %d samples",
                 epoch + 1, config.epochs, mean_loss, len(samples))
    return model
