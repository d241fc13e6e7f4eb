"""Anomaly case studies on labeled logs.

Two routes share one pretrained encoder: an unsupervised verdict from the
fraction of surprising tokens per message, scored for all test messages in
one call of extraction's constant_masks (its complement), and a supervised
verdict from a two-way head fine-tuned on the CLS embedding with the same
train_epoch as pretraining.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .extraction import constant_masks
from .ingest import ANOMALY, NORMAL, LogRecord
from .model import Model, ModelConfig, train, train_epoch
from .numerics import OptimizerState
from .tokenizer import TokenSequence, compile_filter, frame, tokenize

log = logging.getLogger(__name__)

# alert-style system logs split on punctuation as well as spaces
DEFAULT_FILTER = r"([ |:|\(|\)|=|,])|(core.)|(\.{2,})"

DELTA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass
class AnomalyConfig:
    """Study parameters: surprise threshold, split and fine-tuning length,
    plus the model that pretraining fits (3 epochs and the alert-log filter
    by default)."""

    delta: float = 0.5
    train_fraction: float = 0.8
    epochs_finetune: int = 2
    normal_only: bool = False
    model: ModelConfig = field(default_factory=lambda: ModelConfig(
        epochs=3, tokenization_filter=DEFAULT_FILTER))

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta must be in [0, 1], got {self.delta}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.epochs_finetune < 0:
            raise ValidationError(f"epochs_finetune must be >= 0, got {self.epochs_finetune}")

    @property
    def epochs_unsupervised(self) -> int:
        """Pretraining epochs, the model's."""
        return self.model.epochs


@dataclass
class DetectionMetrics:
    """Confusion-matrix scores with anomaly as the positive class."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0


@dataclass
class Verdict:
    """One scored message: its anomaly evidence and the final call."""

    line_id: int
    fraction: float
    verdict: str
    label: str


def token_anomaly_fractions(model: Model, seqs: list[TokenSequence],
                            epsilon: int) -> list[float]:
    """Share of each message's tokens the model finds surprising.

    The surprising tokens are those extraction's constant_masks rejects
    (top-epsilon rank; unknown tokens always count), so they are exactly the
    template's variables. Counting them, rather than taking 1 minus the
    constant share, keeps the value exact: 1 - 7/10 is not 0.3 in floats.
    """
    fractions = []
    for seq, constant in zip(seqs, constant_masks(model, seqs, epsilon)[0]):
        if not constant.size:
            log.warning("message %d has no tokens; scoring it 0.0", seq.message_index)
            fractions.append(0.0)
        else:
            fractions.append(float((~constant).sum()) / constant.size)
    return fractions


def unsupervised_classify(fraction: float, delta: float) -> str:
    """Anomaly only when the surprising-token share strictly exceeds delta."""
    return ANOMALY if fraction > delta else NORMAL


def compute_metrics(verdicts: list[str], labels: list[str]) -> DetectionMetrics:
    """Confusion-matrix scores; every zero-denominator ratio is 0."""
    if len(verdicts) != len(labels):
        raise ValidationError(
            f"got {len(verdicts)} verdicts for {len(labels)} labels")
    if not verdicts:
        raise ValidationError("cannot score an empty verdict list")
    tp = sum(1 for v, l in zip(verdicts, labels) if v == ANOMALY and l == ANOMALY)
    fp = sum(1 for v, l in zip(verdicts, labels) if v == ANOMALY and l == NORMAL)
    tn = sum(1 for v, l in zip(verdicts, labels) if v == NORMAL and l == NORMAL)
    fn = sum(1 for v, l in zip(verdicts, labels) if v == NORMAL and l == ANOMALY)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return DetectionMetrics(accuracy=(tp + tn) / len(verdicts), precision=precision,
                            recall=recall, f1=f1, true_positives=tp,
                            false_positives=fp, true_negatives=tn, false_negatives=fn)


def _split(records: list[LogRecord],
           fraction: float) -> tuple[list[LogRecord], list[LogRecord]]:
    """Positional split: the earliest lines train, the latest lines test."""
    cut = int(len(records) * fraction)
    train_part, test_part = records[:cut], records[cut:]
    if not train_part or not test_part:
        raise ValidationError(
            f"split at {fraction} leaves an empty side for {len(records)} records")
    return train_part, test_part


def _pretrain(train_part: list[LogRecord], train_tokens: list[list[str]],
              config: AnomalyConfig) -> Model:
    keep = None
    if config.normal_only:
        keep = [r.label == NORMAL for r in train_part]
        if not any(keep):
            raise ValidationError("normal-only training requested but no normal lines")
    return train(train_tokens, config.model, keep)


def _prepare(records: list[LogRecord], config: AnomalyConfig):
    """Split and tokenize; pretrain on the training side, then frame both
    sides with the model's vocabulary."""
    pattern = compile_filter(config.model.tokenization_filter)
    train_part, test_part = _split(records, config.train_fraction)
    tokens = [tokenize(r.content, pattern) for r in records]
    cut = len(train_part)
    model = _pretrain(train_part, tokens[:cut], config)
    seqs = [frame(t, model.config.frame_length, model.vocab, message_index=r.line_id)
            for r, t in zip(records, tokens)]
    return model, train_part, test_part, seqs[:cut], seqs[cut:]


def run_unsupervised_study(records: list[LogRecord], config: AnomalyConfig
                           ) -> tuple[DetectionMetrics, list[Verdict], Model]:
    """Self-supervised route: pretrain on the early lines without labels,
    then flag late lines whose surprising-token share exceeds delta.
    Returns the metrics, the verdicts and the pretrained model."""
    model, _, test_part, _, test_seqs = _prepare(records, config)
    fractions = token_anomaly_fractions(model, test_seqs, config.model.epsilon)
    verdicts = [Verdict(line_id=record.line_id, fraction=fraction,
                        verdict=unsupervised_classify(fraction, config.delta),
                        label=record.label)
                for record, fraction in zip(test_part, fractions)]
    metrics = compute_metrics([v.verdict for v in verdicts],
                              [v.label for v in verdicts])
    log.info("unsupervised study: F1 %.4f over %d test messages",
             metrics.f1, len(verdicts))
    return metrics, verdicts, model


def fine_tune_supervised(model: Model, train_seqs: list[TokenSequence],
                         labels: list[str], epochs: int) -> Model:
    """Swap the vocabulary head for a two-way one and train every weight.

    Class 0 is normal, class 1 is anomaly. The input is the unmasked frame;
    the classifier reads the CLS row only. Batch size and learning rate come
    from the pretrained model's config; the head and the shuffles draw from
    its seed + 1.
    """
    if len(train_seqs) != len(labels):
        raise ValidationError(
            f"got {len(train_seqs)} sequences for {len(labels)} labels")
    if not train_seqs:
        raise ValidationError("cannot fine-tune on an empty train set")
    if len(set(labels)) < 2:
        log.warning("fine-tune train set has a single class; proceeding anyway")
    rng = np.random.default_rng(model.config.seed + 1)
    params = {}
    for name, shape in Model.parameter_shapes(model.config, head_out=2).items():
        if name.startswith("head."):
            params[name] = rng.uniform(-0.1, 0.1, size=shape).astype(model.dtype)
        else:
            params[name] = model.params[name].data.copy()
    classifier = Model(model.config, vocab=model.vocab, dtype=model.dtype,
                       params=params, head_out=2)
    if epochs == 0:
        return classifier
    ids = np.stack([s.framed_ids for s in train_seqs])
    targets = np.array([1 if lab == ANOMALY else 0 for lab in labels], dtype=np.int64)
    opt = OptimizerState(classifier.params, learning_rate=model.config.learning_rate)
    for epoch in range(epochs):
        order = rng.permutation(len(train_seqs))
        mean_loss = train_epoch(classifier, opt, ids[order], targets[order])
        log.info("fine-tune epoch %d/%d: mean loss %.4f", epoch + 1, epochs, mean_loss)
    return classifier


def classify_supervised(classifier: Model,
                        seqs: list[TokenSequence]) -> tuple[list[str], list[float]]:
    """Argmax verdicts plus the anomaly-class probability for each message."""
    size = classifier.config.batch_size
    scores: list[float] = []
    for start in range(0, len(seqs), size):
        ids = np.stack([s.framed_ids for s in seqs[start:start + size]])
        scores.extend(float(p) for p in classifier.predict_proba(ids)[:, 1])
    return [ANOMALY if p > 0.5 else NORMAL for p in scores], scores


def run_supervised_study(records: list[LogRecord], config: AnomalyConfig
                         ) -> tuple[DetectionMetrics, list[Verdict], Model]:
    """Pretrain without labels, fine-tune a two-way head on the train labels,
    then classify the held-out tail. Returns the metrics, the verdicts and
    the fine-tuned classifier."""
    pretrained, train_part, test_part, train_seqs, test_seqs = _prepare(records, config)
    classifier = fine_tune_supervised(pretrained, train_seqs,
                                      [r.label for r in train_part],
                                      config.epochs_finetune)
    calls, scores = classify_supervised(classifier, test_seqs)
    verdicts = [Verdict(line_id=r.line_id, fraction=score, verdict=call, label=r.label)
                for r, call, score in zip(test_part, calls, scores)]
    metrics = compute_metrics(calls, [r.label for r in test_part])
    log.info("supervised study: F1 %.4f over %d test messages",
             metrics.f1, len(verdicts))
    return metrics, verdicts, classifier


def sweep_deltas(fractions: list[float], labels: list[str],
                 deltas: tuple[float, ...] = DELTA_GRID) -> list[tuple[float, DetectionMetrics]]:
    """Metrics at each candidate threshold, from already-computed fractions."""
    out = []
    for delta in deltas:
        calls = [unsupervised_classify(f, delta) for f in fractions]
        out.append((delta, compute_metrics(calls, labels)))
    return out
