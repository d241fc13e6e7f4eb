"""Filter-based tokenization, vocabulary construction, and frame assembly.

A log message is split into tokens at every match of a dataset-specific
regular expression; the matched delimiters are discarded, never rewritten.
Frames are the fixed-length model inputs: a CLS id, the encoded tokens,
and at least one trailing PAD id.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError

log = logging.getLogger(__name__)

CLS_ID = 0
MASK_ID = 1
PAD_ID = 2
UNK_ID = 3
SPECIAL_TOKENS = ("<CLS>", "<MASK>", "<PAD>", "<UNK>")

WHITESPACE_FILTER = r"([ ])"


def compile_filter(pattern: str | re.Pattern) -> re.Pattern:
    """Compile a tokenization filter, mapping bad patterns to ConfigError."""
    if isinstance(pattern, re.Pattern):
        return pattern
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ConfigError(f"invalid tokenization filter {pattern!r}: {exc}") from exc


def tokenize(content: str, pattern: str | re.Pattern) -> list[str]:
    """Split content at every filter match.

    Matched substrings are discarded and empty fragments dropped, so
    consecutive delimiters do not produce empty tokens. Case is preserved
    and no parameter rewriting of any kind takes place.
    """
    rx = compile_filter(pattern)
    tokens: list[str] = []
    last = 0
    for m in rx.finditer(content):
        if m.start() > last:
            tokens.append(content[last:m.start()])
        last = max(last, m.end())
    if last < len(content):
        tokens.append(content[last:])
    return tokens


class Vocabulary:
    """Bijective token <-> id mapping with four fixed special ids.

    Ids 0..3 are CLS, MASK, PAD, UNK; corpus tokens receive ids from 4
    upward in first-appearance order, which keeps vocabularies reproducible
    across runs on the same corpus.
    """

    def __init__(self) -> None:
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(SPECIAL_TOKENS)}
        self._id_to_token: list[str] = list(SPECIAL_TOKENS)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def add(self, token: str) -> int:
        """Insert a token if new; return its id either way."""
        existing = self._token_to_id.get(token)
        if existing is not None:
            return existing
        token_id = len(self._id_to_token)
        self._token_to_id[token] = token_id
        self._id_to_token.append(token)
        return token_id

    def encode(self, token: str) -> int:
        """Id of a token, UNK_ID when out of vocabulary."""
        return self._token_to_id.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def tokens(self) -> list[str]:
        """All tokens in id order, specials first."""
        return list(self._id_to_token)


def build_vocabulary(corpus: list[list[str]]) -> Vocabulary:
    """Vocabulary over a tokenized corpus, ids assigned in first-appearance order."""
    if not corpus:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    vocab = Vocabulary()
    for tokens in corpus:
        for token in tokens:
            vocab.add(token)
    return vocab


def compute_frame_length(corpus: list[list[str]]) -> int:
    """Frame length: the longest message plus two, the width ModelConfig takes.

    One slot holds CLS and one extra slot guarantees every framed message
    ends with at least one PAD.
    """
    if not corpus:
        raise ValidationError("cannot compute a frame length over an empty corpus")
    return max(len(tokens) for tokens in corpus) + 2


@dataclass
class TokenSequence:
    """A tokenized message together with its framed id vector."""

    message_index: int
    tokens: list[str]
    framed_ids: np.ndarray = field(repr=False)


def frame(tokens: list[str], frame_length: int, vocab: Vocabulary,
          message_index: int = 0) -> TokenSequence:
    """Frame tokens as [CLS] + ids + PAD padding, frame_length ids in all.

    Messages longer than frame_length - 2 are truncated with a warning so
    that unseen long messages survive online parsing.
    """
    if frame_length < 2:
        raise ValidationError(f"frame length must be at least 2, got {frame_length}")
    if len(tokens) > frame_length - 2:
        log.warning("message %d truncated from %d to %d tokens",
                    message_index, len(tokens), frame_length - 2)
        tokens = tokens[: frame_length - 2]
    ids = np.full(frame_length, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    for slot, token in enumerate(tokens, start=1):
        ids[slot] = vocab.encode(token)
    return TokenSequence(message_index=message_index, tokens=list(tokens), framed_ids=ids)
