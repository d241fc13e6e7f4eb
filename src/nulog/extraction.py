"""Template extraction: mask each token in turn and keep it as a constant
only when the model ranks the true token inside the top epsilon candidates.

constant_masks is the one place that applies that rule, to many messages at
once, for parsing here and, as its complement, for anomaly scoring. The
rule reads only a masked input and its true token, and a message's masked
inputs follow from its encoded frame alone. So messages are first merged
by frame, in order of first appearance; masking.enumerate_masks builds the
masked inputs of the distinct frames only, and each distinct input is
scored once, unless it hides only unknown tokens, in chunks of
chunk_rows(model) inputs, one forward pass per chunk, one chunk after
another on the calling thread. A message's result does not depend on
which other messages share its chunks, its masked inputs or its frame.
Tokens the rule rejects, and tokens past the frame, become the placeholder
and their original text is reported as that message's variable list, in
token order; parse renders each template once per distinct frame and
count of cut tokens.
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

# elements of one chunk's widest array, 2.0 MB at float32: chunk_rows
# divides it by the widest per-row width, so a chunk's memory does not grow
# with the frame or the vocabulary. Scoring holds one chunk's arrays at a
# time, a few arrays of that size in a one-block encoder
CHUNK_ELEMS = 491_520


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
    p_true = probabilities[np.arange(len(true_ids)), true_ids][:, None]
    ranks = np.count_nonzero(probabilities > p_true, axis=1)
    # the id pass runs only on rows where another token ties the true one
    tied = np.flatnonzero(np.count_nonzero(probabilities == p_true, axis=1) > 1)
    before = np.arange(probabilities.shape[1]) < true_ids[tied, None]
    ranks[tied] += np.count_nonzero((probabilities[tied] == p_true[tied]) & before, axis=1)
    return ranks


def chunk_rows(model: Model) -> int:
    """Masked inputs per forward pass: CHUNK_ELEMS over the widest per-row
    array, the (frame_length, d) embedding of a row or its head_out
    probabilities; at least one."""
    width = max(model.config.frame_length * model.config.d, model.head_out)
    return max(1, CHUNK_ELEMS // width)


def _frame_masks(model: Model, seqs: list[TokenSequence], epsilon: int
                 ) -> tuple[list[np.ndarray], list[int], int, int]:
    """constant_masks on the distinct frames of seqs: one read-only mask
    per distinct frame, in order of first appearance, each message's
    number in that list, and the numbers of masked inputs built and
    scored."""
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not seqs:
        return [], [], 0, 0
    # a frame fixes its message's token count and every token slot's id,
    # so messages that share a frame share every masked input
    leaders, frame_of = masking.distinct_rows(masking.stack_frames(seqs))
    distinct = [seqs[i] for i in leaders]
    masked = masking.enumerate_masks(distinct)
    flat = masked.targets != UNK_ID
    # rank the samples of known tokens only, on only the inputs they read
    known = np.flatnonzero(flat)
    scored, rows = np.unique(masked.input_of[known], return_inverse=True)
    inputs = masked.inputs[scored]
    order = np.argsort(rows, kind="stable")
    known, rows = known[order], rows[order]
    # each input's first sample, in input order, and the others, by input,
    # so a chunk's others are one run of them
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    heads, others, other_rows = known[first], known[~first], rows[~first]
    size = chunk_rows(model)
    starts = range(0, len(inputs), size)
    bounds = np.searchsorted(other_rows, [*starts, len(inputs)])
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        # score inputs[start:start + size] in one forward pass; rank their
        # heads on its rows in place and others[lo:hi] on gathered rows, size
        # at a time, so a popular input never gathers more than a chunk has
        probabilities = model.predict_masked_batch(inputs[start:start + size])
        samples = heads[start:start + size]
        flat[samples] = _ranks(probabilities, masked.targets[samples]) < epsilon
        for part in range(lo, hi, size):
            end = min(part + size, hi)
            samples = others[part:end]
            own = probabilities[other_rows[part:end] - start]
            flat[samples] = _ranks(own, masked.targets[samples]) < epsilon
    # messages that share a frame share its mask, so none may write to it
    flat.flags.writeable = False
    ends = np.cumsum([len(seq.tokens) for seq in distinct], dtype=np.int64)
    masks = [flat[end - len(seq.tokens):end] for seq, end in zip(distinct, ends)]
    return masks, frame_of.tolist(), len(masked.inputs), len(inputs)


def constant_masks(model: Model, seqs: list[TokenSequence],
                   epsilon: int) -> tuple[list[np.ndarray], int, int]:
    """The constancy rule for each token of each message, in token order,
    the number of distinct masked inputs built and the number scored.

    A token is constant when, masked, its true id ranks inside the top
    epsilon candidates; an unknown token is never constant, so an input
    whose every sample hides an unknown token is not scored. The rank does
    not depend on epsilon, so growing epsilon only ever turns variables
    into constants. Each distinct frame is masked once and each scored
    input goes to the model once, and every sample that shares it is
    ranked on its probability row, so a message's result does not depend
    on which other messages share its chunks, its masked inputs or its
    frame. Messages with one frame share one read-only mask.
    """
    masks, frame_of, built, scored = _frame_masks(model, seqs, epsilon)
    return [masks[f] for f in frame_of], built, scored


def _template(seq: TokenSequence, constant: np.ndarray) -> str:
    """The template of a message; each token its frame cut off is a
    variable, unscored, as the model never saw it."""
    return " ".join([tok if keep else PLACEHOLDER for tok, keep in zip(seq.tokens, constant)]
                    + [PLACEHOLDER] * len(seq.cut))


def parse_corpus(model: Model, corpus: list[TokenSequence], epsilon: int
                 ) -> tuple[list[ParsedMessage], list[str], int, int]:
    """Parse every message, scoring each distinct masked input once.

    Returns the parsed messages, the templates indexed by template id, and
    the numbers of distinct masked inputs built and scored; template ids
    are dense and follow first appearance. Messages that share a frame
    share its mask: a constant slot holds the same known token in each, so
    the template is rendered once per frame and count of cut tokens, and
    each message's variables are its own tokens at the frame's variable
    slots, then its cut tokens.
    """
    masks, frame_of, built, scored = _frame_masks(model, corpus, epsilon)
    variable_slots = [np.flatnonzero(~mask).tolist() for mask in masks]
    rendered: dict[tuple[int, int], tuple[int, str]] = {}
    template_ids: dict[str, int] = {}
    parsed: list[ParsedMessage] = []
    for seq, f in zip(corpus, frame_of):
        key = (f, len(seq.cut))
        found = rendered.get(key)
        if found is None:
            template = _template(seq, masks[f])
            found = rendered[key] = (template_ids.setdefault(template, len(template_ids)),
                                     template)
        tokens = seq.tokens
        parsed.append(ParsedMessage(seq.message_index, *found,
                                    [tokens[i] for i in variable_slots[f]] + seq.cut))
    log.info("scored %d messages: %d masked samples as %d distinct inputs, "
             "%d of them scored in %d forward calls", len(corpus),
             sum(len(seq.tokens) for seq in corpus), built, scored,
             math.ceil(scored / chunk_rows(model)))
    return parsed, list(template_ids), built, scored
