"""Masked-input construction, built as arrays: one random mask per message
for a training epoch, and for parsing the index of every masked input of a
batch of messages. Both hide tokens behind MASK through _mask."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokenizer import MASK_ID, TokenSequence


def stack_frames(seqs: list[TokenSequence]) -> np.ndarray:
    """The frames of seqs, which share one length, as one (N, T) array."""
    if not seqs:
        return np.empty((0, 0), np.int64)
    # np.array stacks 1-D rows several times faster than np.stack, and it
    # too rejects rows of unequal length
    return np.array([s.framed_ids for s in seqs])


def _mask(seqs: list[TokenSequence], rows: np.ndarray,
          slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample i is frame rows[i] of seqs, whose frames share one length,
    with MASK at slot slots[i]: the masked frames, one row per sample, and
    the ids they hid."""
    masked = stack_frames(seqs)[rows]
    samples = np.arange(len(rows))
    targets = masked[samples, slots]
    masked[samples, slots] = MASK_ID
    return masked, targets


def random_masks(seqs: list[TokenSequence],
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One epoch's training samples: the messages in the order of
    rng.permutation, each with MASK at a uniformly drawn token slot, and a
    message with no token skipped. Returns the masked frames and the ids
    they hid.

    rng draws the permutation, then the slots in one call; its array bound
    gives the same slots, and leaves rng in the same state, as one scalar
    rng.integers(1, n + 1) per message in turn.
    """
    order = rng.permutation(len(seqs))
    lengths = np.array([len(s.tokens) for s in seqs], dtype=np.int64)[order]
    return _mask(seqs, order[lengths > 0], rng.integers(1, lengths[lengths > 0] + 1))


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
    lengths = np.array([len(s.tokens) for s in seqs], dtype=np.int64)
    owner = np.repeat(np.arange(len(seqs)), lengths)
    # each sample's token slot, counted from 1 within its message
    slots = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths) + 1
    rows, targets = _mask(seqs, owner, slots)
    first, input_of = distinct_rows(rows)
    return MaskedInputs(inputs=rows[first], input_of=input_of, targets=targets)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a C-contiguous 2-D array, in order of first
    appearance: the index of each one's first row, and for every row the
    number of its distinct row."""
    # one opaque key per row: sorting the keys groups equal rows
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # the sorted groups renumbered by first appearance
    appearance = np.argsort(first)
    return first[appearance], np.argsort(appearance)[inverse.ravel()]
