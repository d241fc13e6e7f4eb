"""Template extraction: mask each token in turn and keep it as a constant
only when the model ranks the true token inside the top epsilon candidates.

constant_mask applies that rule to a whole message, for parsing here and,
as its complement, for anomaly scoring. Tokens the rule rejects become the
placeholder and their original text is reported as that message's variable
list, in token order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import masking
from .errors import ValidationError
from .model import Model
from .tokenizer import UNK_ID, TokenSequence

log = logging.getLogger(__name__)

PLACEHOLDER = "⟨*⟩"  # angle-bracketed star


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


def constant_mask(model: Model, seq: TokenSequence, epsilon: int) -> np.ndarray:
    """The constancy rule for each token of one message, in token order.

    A token is constant when, masked, its true id ranks inside the top
    epsilon candidates; an unknown token is never constant.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    samples = masking.enumerate_masks(seq)
    if not samples:
        return np.zeros(0, dtype=bool)
    true_ids = np.array([s.target_id for s in samples])
    ranks = _ranks(model.predict_masked_batch(samples), true_ids)
    return (ranks < epsilon) & (true_ids != UNK_ID)


def extract_template(model: Model, seq: TokenSequence,
                     epsilon: int) -> tuple[str, list[str]]:
    """Classify each token of one message and build its template string."""
    constant = constant_mask(model, seq, epsilon)
    parts = [tok if keep else PLACEHOLDER
             for tok, keep in zip(seq.tokens, constant)]
    variables = [tok for tok, keep in zip(seq.tokens, constant) if not keep]
    return " ".join(parts), variables


def parse_corpus(model: Model, corpus: list[TokenSequence],
                 epsilon: int) -> tuple[list[ParsedMessage], list[str]]:
    """Parse every message, reusing results for repeated token sequences.

    Returns the parsed messages and the templates, indexed by template id;
    ids are dense and follow first appearance. Identical token lists always
    parse identically, so the cache changes nothing but the running time.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    template_ids: dict[str, int] = {}
    parsed: list[ParsedMessage] = []
    cache: dict[tuple[str, ...], tuple[str, list[str]]] = {}
    for n, seq in enumerate(corpus):
        key = tuple(seq.tokens)
        if key in cache:
            template, variables = cache[key]
        else:
            template, variables = extract_template(model, seq, epsilon)
            cache[key] = (template, variables)
        parsed.append(ParsedMessage(message_index=seq.message_index,
                                    template_id=template_ids.setdefault(
                                        template, len(template_ids)),
                                    template=template,
                                    variables=list(variables)))
        if (n + 1) % 500 == 0:
            log.info("parsed %d/%d messages (%d templates, %d distinct shapes)",
                     n + 1, len(corpus), len(template_ids), len(cache))
    return parsed, list(template_ids)
