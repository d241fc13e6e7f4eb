"""Template extraction: mask each token in turn and keep it as a constant
only when the model ranks the true token inside the top epsilon candidates.

constant_masks is the one place that applies that rule, to many messages at
once, for parsing here and, as its complement, for anomaly scoring. The
rule reads only a masked input and its true token, so each distinct masked
input is scored once, whichever messages the input came from, in chunks of
chunk_rows(model) distinct inputs, one forward pass per chunk. A chunk's
verdicts depend on nothing outside it, so the chunks are numerics tasks
that the calling thread and the worker thread take in turn. A message's
result does not depend on which other messages share its chunks or its
masked inputs, nor on which thread scored them. Tokens the rule rejects
become the placeholder and their original text is reported as that
message's variable list, in token order.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import masking, numerics
from .errors import ValidationError
from .model import Model
from .tokenizer import UNK_ID, TokenSequence

log = logging.getLogger(__name__)

PLACEHOLDER = "⟨*⟩"  # angle-bracketed star

# elements of one chunk's widest array, 1.3 MB at float32: chunk_rows
# divides it by the widest per-row width, so a chunk's memory does not grow
# with the frame or the vocabulary. Each of the two threads holds one
# chunk's arrays at a time, a few arrays of that size in a one-block encoder
CHUNK_ELEMS = 327_680


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


def chunk_rows(model: Model) -> int:
    """Masked inputs per forward pass: CHUNK_ELEMS over the widest per-row
    array, the (frame_length, d) embedding of a row or its head_out
    probabilities; at least one."""
    width = max(model.config.frame_length * model.config.d, model.head_out)
    return max(1, CHUNK_ELEMS // width)


def constant_masks(model: Model, seqs: list[TokenSequence],
                   epsilon: int) -> tuple[list[np.ndarray], int]:
    """The constancy rule for each token of each message, in token order,
    and the number of distinct masked inputs the model scored.

    A token is constant when, masked, its true id ranks inside the top
    epsilon candidates; an unknown token is never constant. The rank does
    not depend on epsilon, so growing epsilon only ever turns variables
    into constants. Each distinct masked input goes to the model once and
    every sample that shares it is ranked on its probability row, so a
    message's result does not depend on which other messages share its
    chunks or its masked inputs.
    """
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
    # run of this order, so no two chunks write the same element of flat
    order = np.argsort(rows, kind="stable")
    size = chunk_rows(model)
    starts = range(0, len(inputs), size)
    bounds = np.searchsorted(rows[order], [*starts, len(inputs)])

    def score_chunk(start: int, samples: np.ndarray, lane: int) -> None:
        """Score inputs[start:start + size] in one forward pass and apply
        the rule to their samples; writes flat[samples] alone."""
        probabilities = model.predict_masked_batch(inputs[start:start + size])
        # rank size samples at a time, so a popular input held by many
        # samples never gathers more rows than a chunk has
        for first in range(0, len(samples), size):
            part = samples[first:first + size]
            ranks = _ranks(probabilities[rows[part] - start], true_ids[part])
            flat[part] &= ranks < epsilon

    numerics.run_tasks(partial(score_chunk, start, order[lo:hi])
                       for start, lo, hi in zip(starts, bounds, bounds[1:]))
    ends = np.cumsum([len(seq.tokens) for seq in seqs], dtype=np.int64)
    masks = [flat[end - len(seq.tokens):end] for seq, end in zip(seqs, ends)]
    return masks, len(inputs)


def _template(seq: TokenSequence, constant: np.ndarray) -> tuple[str, list[str]]:
    parts = [tok if keep else PLACEHOLDER
             for tok, keep in zip(seq.tokens, constant)]
    variables = [tok for tok, keep in zip(seq.tokens, constant) if not keep]
    return " ".join(parts), variables


def parse_corpus(model: Model, corpus: list[TokenSequence], epsilon: int
                 ) -> tuple[list[ParsedMessage], list[str], int]:
    """Parse every message, scoring each distinct masked input once.

    Returns the parsed messages, the templates indexed by template id, and
    the number of distinct masked inputs the model scored; template ids are
    dense and follow first appearance. Identical token lists share every
    masked input, so they always parse identically.
    """
    masks, scored = constant_masks(model, corpus, epsilon)
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
             scored, math.ceil(scored / chunk_rows(model)))
    return parsed, list(template_ids), scored
