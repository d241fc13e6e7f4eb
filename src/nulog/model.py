"""The encoder: embeddings, positional encoding, multi-head self-attention,
feed-forward blocks, and the CLS prediction head, plus the training loop.

All learnable tensors live in a ParameterSet so the optimizer, the gradient
checker, and the archive writer see one flat namespace; parameter_shapes is
the one list of their names and shapes. predict_proba is the one softmax
over head logits, and train_epoch the one optimisation pass, shared by
masked-token pretraining and supervised fine-tuning.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import masking, numerics
from .errors import ValidationError
from .masking import MaskedSample
from .numerics import OptimizerState, ParameterSet, Tensor
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
                 init: str = "uniform", head_out: int | None = None):
        self.config = config
        self.vocab = vocab
        self.dtype = np.dtype(dtype)
        self.positional = positional_encoding(config.frame_length, config.d, self.dtype)
        self.head_out = config.vocab_size if head_out is None else head_out
        self.training_losses: list[float] = []
        self.params = ParameterSet()
        if init == "uniform":
            if rng is None:
                rng = np.random.default_rng(config.seed)
            self._init_params(lambda shape: rng.uniform(-0.1, 0.1, size=shape).astype(self.dtype))
        elif init == "zeros":
            self._init_params(lambda shape: np.zeros(shape, dtype=self.dtype))
        else:
            raise ValidationError(f"unknown init mode {init!r}")

    def _init_params(self, make) -> None:
        for name, shape in self.parameter_shapes(self.config, self.head_out).items():
            if "_norm." in name:
                # norm layers start as identity; random gains would crush the signal
                fill = 1.0 if name.endswith(".gain") else 0.0
                self.params.add(name, np.full(shape, fill, dtype=self.dtype))
            else:
                self.params.add(name, make(shape))

    @classmethod
    def parameter_shapes(cls, config: ModelConfig,
                         head_out: int | None = None) -> dict[str, tuple[int, int]]:
        """Expected name -> (rows, cols) map, in parameter order."""
        d, w = config.d, config.head_width
        out = head_out if head_out is not None else config.vocab_size
        shapes: dict[str, tuple[int, int]] = {"tok_emb": (config.vocab_size, d)}
        for b in range(config.blocks):
            for h in range(config.heads):
                shapes[f"block{b}.head{h}.wq"] = (d, w)
                shapes[f"block{b}.head{h}.wk"] = (d, w)
                shapes[f"block{b}.head{h}.wv"] = (d, w)
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
        """Token embeddings plus positional rows: (B, T) ids -> (B, T, d)."""
        ids = np.asarray(framed_ids, dtype=np.int64)
        emb = numerics.embedding(self.params["tok_emb"], ids)
        return numerics.add(emb, Tensor(self.positional))

    def attention(self, x: Tensor, block: int, collect: list | None = None) -> Tensor:
        """Multi-head self-attention; head outputs are concatenated, no extra
        output projection."""
        cfg = self.config
        inv_temp = 1.0 / math.sqrt(cfg.head_width)
        heads = []
        for h in range(cfg.heads):
            q = numerics.matmul(x, self.params[f"block{block}.head{h}.wq"])
            k = numerics.matmul(x, self.params[f"block{block}.head{h}.wk"])
            v = numerics.matmul(x, self.params[f"block{block}.head{h}.wv"])
            scores = numerics.scale(numerics.matmul(q, numerics.transpose(k)), inv_temp)
            weights = numerics.softmax_rows(scores)
            if collect is not None:
                collect.append(weights.data)
            heads.append(numerics.matmul(weights, v))
        return numerics.concat_cols(heads)

    def encoder_forward(self, x: Tensor, collect_attention: list | None = None) -> Tensor:
        """Attention and feed-forward stages with residuals and norms.

        Output shape equals input shape regardless of the block count.
        """
        for b in range(self.config.blocks):
            attended = self.attention(x, b, collect_attention)
            x = numerics.layer_norm_rows(numerics.add(x, attended),
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
        encoded = self.encoder_forward(self.embed(framed_ids))
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
