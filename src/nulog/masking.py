"""Masked-sample construction: random masks for training, and for parsing
the index of every masked input of a batch of messages, built as arrays."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokenizer import MASK_ID, TokenSequence


@dataclass
class MaskedSample:
    """A framed message with one real token hidden behind MASK.

    position is the frame slot of the hidden token (1-based within the
    frame, so CLS at slot 0 and the trailing PADs are never masked).
    """

    input_ids: np.ndarray
    target_id: int
    position: int


def sample_random_mask(seq: TokenSequence, rng: np.random.Generator) -> MaskedSample | None:
    """One uniformly chosen masked variant, or None when nothing is maskable.

    A None return is the skip signal: a message that tokenized to nothing
    contributes no training sample for the epoch.
    """
    n = len(seq.tokens)
    if n == 0:
        return None
    position = int(rng.integers(1, n + 1))
    ids = seq.framed_ids.copy()
    target = int(ids[position])
    ids[position] = MASK_ID
    return MaskedSample(input_ids=ids, target_id=target, position=position)


@dataclass
class MaskedInputs:
    """One sample per token of each message, in order: sample i is row
    input_of[i] of the distinct masked frames inputs, (D, frame_length) in
    order of first appearance, and hides true id targets[i]."""

    inputs: np.ndarray
    input_of: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def enumerate_masks(seqs: list[TokenSequence]) -> MaskedInputs:
    """The masked-input index of seqs, whose frames share one length: each
    frame repeated once per token, MASK at that token's slot, and identical
    rows, from one message or from several, merged into one input."""
    frames = np.stack([s.framed_ids for s in seqs]) if seqs else np.empty((0, 0), np.int64)
    lengths = np.array([len(s.tokens) for s in seqs], dtype=np.int64)
    owner = np.repeat(np.arange(len(seqs)), lengths)
    samples = np.arange(len(owner))
    positions = samples - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
    rows = frames[owner]
    targets = rows[samples, positions]
    rows[samples, positions] = MASK_ID
    # one opaque key per row: sorting the keys groups equal rows
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the sorted groups renumbered by first appearance
    appearance = np.argsort(first)
    return MaskedInputs(inputs=rows[first[appearance]],
                        input_of=np.argsort(appearance)[inverse.ravel()], targets=targets)
