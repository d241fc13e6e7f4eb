"""Template extraction: mask each token in turn and keep it as a constant
only when the model ranks the true token inside the top epsilon candidates.

constant_masks applies that rule to many messages at once, for parsing here
and, as its complement, for anomaly scoring. The rule reads only a masked
input and its true token, so each distinct masked input is scored once,
in chunks of MASK_CHUNK distinct inputs, one forward pass per chunk,
whichever messages the input came from; constant_mask is its one-message
case. A message's result does not depend on which other messages share its
chunks or its masked inputs. Tokens the rule rejects become the placeholder
and their original text is reported as that message's variable list, in
token order.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import masking
from .errors import ValidationError
from .model import Model
from .tokenizer import UNK_ID, TokenSequence

log = logging.getLogger(__name__)

PLACEHOLDER = "⟨*⟩"  # angle-bracketed star

# masked samples per forward pass: large enough to fill a GEMM, small enough
# that the activations of one pass stay a few megabytes
MASK_CHUNK = 256


@dataclass
class ParsedMessage:
    """One message's parse: which template it matched and what varied."""

    message_index: int
    template_id: int
    template: str
    variables: list[str]


def _ranks(probabilities: np.ndarray, true_ids: np.ndarray) -> np.ndarray:
    """Competition rank of each true token in its predicted distribution.

    Rank counts strictly-higher-probability tokens, with exact ties broken
    toward the smaller token id. Rank 0 means the true token wins outright.
    """
    rows = np.arange(len(true_ids))
    p_true = probabilities[rows, true_ids]
    higher = (probabilities > p_true[:, None]).sum(axis=1)
    tied_before = ((probabilities == p_true[:, None])
                   & (np.arange(probabilities.shape[1]) < true_ids[:, None])).sum(axis=1)
    return higher + tied_before


def is_constant(probabilities: np.ndarray, true_id: int, epsilon: int) -> bool:
    """Top-epsilon rule for a single slot.

    Growing epsilon only ever turns variables into constants, never the
    reverse, because the rank of the true token does not depend on epsilon.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 1:
        raise ValidationError(
            f"expected a 1-d probability vector, got shape {probabilities.shape}")
    rank = _ranks(probabilities[None, :], np.array([true_id]))[0]
    return bool(rank < epsilon)


def _score(model: Model, seqs: list[TokenSequence],
           epsilon: int) -> tuple[list[np.ndarray], int]:
    """constant_masks, plus how many distinct masked inputs were scored."""
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    index: dict[bytes, int] = {}
    inputs: list[masking.MaskedSample] = []
    input_of: list[int] = []
    targets: list[int] = []
    for seq in seqs:
        for sample in masking.enumerate_masks(seq):
            key = sample.input_ids.tobytes()
            row = index.get(key)
            if row is None:
                row = index[key] = len(inputs)
                inputs.append(sample)
            input_of.append(row)
            targets.append(sample.target_id)
    rows = np.array(input_of, dtype=np.int64)
    true_ids = np.array(targets, dtype=np.int64)
    flat = true_ids != UNK_ID
    # samples sorted by input: the samples of one chunk of inputs are one
    # run of this order
    order = np.argsort(rows, kind="stable")
    starts = range(0, len(inputs), MASK_CHUNK)
    bounds = np.searchsorted(rows[order], [*starts, len(inputs)])
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        probabilities = model.predict_masked_batch(inputs[start:start + MASK_CHUNK])
        # rank MASK_CHUNK samples at a time, so a popular input held by
        # many samples never gathers more than MASK_CHUNK rows
        for first in range(lo, hi, MASK_CHUNK):
            part = order[first:min(first + MASK_CHUNK, hi)]
            ranks = _ranks(probabilities[rows[part] - start], true_ids[part])
            flat[part] &= ranks < epsilon
    ends = np.cumsum([len(seq.tokens) for seq in seqs], dtype=np.int64)
    masks = [flat[end - len(seq.tokens):end] for seq, end in zip(seqs, ends)]
    return masks, len(inputs)


def constant_masks(model: Model, seqs: list[TokenSequence],
                   epsilon: int) -> list[np.ndarray]:
    """The constancy rule for each token of each message, in token order.

    A token is constant when, masked, its true id ranks inside the top
    epsilon candidates; an unknown token is never constant. Each distinct
    masked input goes to the model once and every sample that shares it is
    ranked on its probability row, so a message's result does not depend on
    which other messages share its chunks or its masked inputs.
    """
    return _score(model, seqs, epsilon)[0]


def constant_mask(model: Model, seq: TokenSequence, epsilon: int) -> np.ndarray:
    """constant_masks for one message."""
    return constant_masks(model, [seq], epsilon)[0]


def _template(seq: TokenSequence, constant: np.ndarray) -> tuple[str, list[str]]:
    parts = [tok if keep else PLACEHOLDER
             for tok, keep in zip(seq.tokens, constant)]
    variables = [tok for tok, keep in zip(seq.tokens, constant) if not keep]
    return " ".join(parts), variables


def extract_template(model: Model, seq: TokenSequence,
                     epsilon: int) -> tuple[str, list[str]]:
    """Classify each token of one message and build its template string."""
    return _template(seq, constant_mask(model, seq, epsilon))


def parse_corpus(model: Model, corpus: list[TokenSequence], epsilon: int
                 ) -> tuple[list[ParsedMessage], list[str], int]:
    """Parse every message, scoring each distinct masked input once.

    Returns the parsed messages, the templates indexed by template id, and
    the number of distinct masked inputs the model scored; template ids are
    dense and follow first appearance. Identical token lists share every
    masked input, so they always parse identically.
    """
    masks, scored = _score(model, corpus, epsilon)
    template_ids: dict[str, int] = {}
    parsed: list[ParsedMessage] = []
    for seq, mask in zip(corpus, masks):
        template, variables = _template(seq, mask)
        parsed.append(ParsedMessage(message_index=seq.message_index,
                                    template_id=template_ids.setdefault(
                                        template, len(template_ids)),
                                    template=template,
                                    variables=variables))
    log.info("scored %d messages: %d masked samples as %d distinct inputs "
             "in %d forward calls", len(corpus), sum(m.size for m in masks),
             scored, math.ceil(scored / MASK_CHUNK))
    return parsed, list(template_ids), scored
