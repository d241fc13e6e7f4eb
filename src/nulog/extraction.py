"""Template extraction: mask each token in turn and keep it as a constant
only when the model ranks the true token inside the top epsilon candidates.

constant_masks applies that rule to many messages at once, for parsing here
and, as its complement, for anomaly scoring. It scores their masked samples
in chunks of MASK_CHUNK, one forward pass per chunk, whichever message each
sample came from; constant_mask is its one-message case. Tokens the rule
rejects become the placeholder and their original text is reported as that
message's variable list, in token order.
"""
from __future__ import annotations

import itertools
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


def constant_masks(model: Model, seqs: list[TokenSequence],
                   epsilon: int) -> list[np.ndarray]:
    """The constancy rule for each token of each message, in token order.

    A token is constant when, masked, its true id ranks inside the top
    epsilon candidates; an unknown token is never constant. A message's
    result does not depend on which other messages share its chunks.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    samples = (s for seq in seqs for s in masking.enumerate_masks(seq))
    flags = [np.zeros(0, dtype=bool)]
    while chunk := list(itertools.islice(samples, MASK_CHUNK)):
        true_ids = np.array([s.target_id for s in chunk])
        ranks = _ranks(model.predict_masked_batch(chunk), true_ids)
        flags.append((ranks < epsilon) & (true_ids != UNK_ID))
    flat = np.concatenate(flags)
    ends = np.cumsum([len(seq.tokens) for seq in seqs], dtype=np.int64)
    return [flat[end - len(seq.tokens):end] for seq, end in zip(seqs, ends)]


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


def parse_corpus(model: Model, corpus: list[TokenSequence],
                 epsilon: int) -> tuple[list[ParsedMessage], list[str]]:
    """Parse every message, scoring each distinct token sequence once.

    Returns the parsed messages and the templates, indexed by template id;
    ids are dense and follow first appearance. Identical token lists always
    parse identically, so scoring one of them changes nothing but the
    running time.
    """
    distinct: dict[tuple[str, ...], TokenSequence] = {}
    for seq in corpus:
        distinct.setdefault(tuple(seq.tokens), seq)
    masks = constant_masks(model, list(distinct.values()), epsilon)
    results = {key: _template(seq, mask)
               for (key, seq), mask in zip(distinct.items(), masks)}
    template_ids: dict[str, int] = {}
    parsed: list[ParsedMessage] = []
    for seq in corpus:
        template, variables = results[tuple(seq.tokens)]
        parsed.append(ParsedMessage(message_index=seq.message_index,
                                    template_id=template_ids.setdefault(
                                        template, len(template_ids)),
                                    template=template,
                                    variables=list(variables)))
    samples = sum(len(seq.tokens) for seq in distinct.values())
    log.info("scored %d messages as %d distinct sequences: %d masked samples "
             "in %d forward calls", len(corpus), len(distinct), samples,
             math.ceil(samples / MASK_CHUNK))
    return parsed, list(template_ids)
