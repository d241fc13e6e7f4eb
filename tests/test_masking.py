"""Random and exhaustive masking behavior."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nulog.masking import enumerate_masks, random_masks
from nulog.tokenizer import (CLS_ID, MASK_ID, PAD_ID, build_vocabulary, frame)


def make_seq(tokens, frame_length=None):
    vocab = build_vocabulary([tokens] if tokens else [["a"]], min_count=1)
    if frame_length is None:
        frame_length = max(len(tokens) + 2, 3)
    return frame(tokens, frame_length, vocab), vocab


def random_slots(ids):
    """The slot of each row's one MASK."""
    rows, slots = np.nonzero(ids == MASK_ID)
    assert rows.tolist() == list(range(len(ids)))
    return slots


class TestSampleRandomMask:
    """masking.random_masks: one random mask per message, for a training epoch."""

    def test_single_token_always_position_one(self):
        seq, _ = make_seq(["only"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids, _ = random_masks([seq], rng)
            assert random_slots(ids).tolist() == [1]

    def test_fixed_seed_reproduces_positions(self):
        seqs = [make_seq(["a", "b", "c", "d"])[0]] * 8
        ids1, targets1 = random_masks(seqs, np.random.default_rng(5))
        ids2, targets2 = random_masks(seqs, np.random.default_rng(5))
        assert np.array_equal(ids1, ids2)
        assert np.array_equal(targets1, targets2)

    def test_positions_roughly_uniform(self):
        seq, _ = make_seq(["a", "b", "c", "d"])
        n = 10_000
        ids, _ = random_masks([seq] * n, np.random.default_rng(123))
        counts = np.bincount(random_slots(ids), minlength=5)
        assert counts[0] == 0
        for position in range(1, 5):
            assert abs(counts[position] / n - 0.25) < 0.02

    def test_empty_message_gives_skip_signal(self):
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        seqs = [frame(tokens, 4, vocab) for tokens in ([], ["a"], [], ["a", "b"], [])]
        ids, targets = random_masks(seqs, np.random.default_rng(0))
        assert ids.shape == (2, 4) and targets.shape == (2,)
        ids, targets = random_masks(seqs[::2], np.random.default_rng(0))
        assert ids.shape == (0, 4) and targets.shape == (0,)
        ids, targets = random_masks([], np.random.default_rng(0))
        assert len(ids) == len(targets) == 0

    def test_mask_replaces_only_chosen_slot(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        seqs = [frame(tokens, 5, vocab) for tokens in (["a", "b", "c"], ["c", "a"], ["b"])]
        ids, targets = random_masks(seqs, np.random.default_rng(9))
        order = np.random.default_rng(9).permutation(len(seqs))
        for row, target, slot, i in zip(ids, targets, random_slots(ids), order):
            framed = seqs[i].framed_ids
            assert np.flatnonzero(row != framed).tolist() == [slot]
            assert target == framed[slot]

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "<PAD>"]), max_size=40),
                    max_size=12),
           st.integers(min_value=0, max_value=2 ** 63 - 1))
    def test_matches_one_scalar_draw_per_message(self, token_lists, seed):
        vocab = build_vocabulary([["a", "b", "c", "<PAD>"]], min_count=1)
        seqs = [frame(tokens, 42, vocab) for tokens in token_lists]
        rng = np.random.default_rng(seed)
        ids, targets = random_masks(seqs, rng)
        # the oracle: the permutation, then one scalar slot draw per message
        oracle = np.random.default_rng(seed)
        want_ids, want_targets = [], []
        for i in oracle.permutation(len(seqs)):
            if seqs[i].tokens:
                slot = int(oracle.integers(1, len(seqs[i].tokens) + 1))
                row = seqs[i].framed_ids.copy()
                want_targets.append(int(row[slot]))
                row[slot] = MASK_ID
                want_ids.append(row.tolist())
        assert ids.tolist() == want_ids
        assert targets.tolist() == want_targets
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.integers(1, 7, size=4).tolist() == oracle.integers(1, 7, size=4).tolist()

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8), max_size=5),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_specials_never_masked_and_frames_restore(self, token_lists, seed):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        seqs = [frame(tokens, 11, vocab) for tokens in token_lists]
        ids, targets = random_masks(seqs, np.random.default_rng(seed))
        order = [i for i in np.random.default_rng(seed).permutation(len(seqs))
                 if seqs[i].tokens]
        assert len(ids) == len(order)
        for row, target, slot, i in zip(ids, targets, random_slots(ids), order):
            assert 1 <= slot <= len(seqs[i].tokens)
            assert target not in (CLS_ID, MASK_ID, PAD_ID)
            row = row.copy()
            row[slot] = target
            assert np.array_equal(row, seqs[i].framed_ids)


def sample_frames(masked):
    """Each sample's masked frame, read through its input row."""
    return masked.inputs[masked.input_of]


class TestEnumerateMasks:
    def test_three_tokens_three_samples_in_order(self):
        seq, _ = make_seq(["x", "y", "z"])
        masked = enumerate_masks([seq])
        assert len(masked) == 3
        assert masked.input_of.tolist() == [0, 1, 2]
        assert [np.flatnonzero(row == MASK_ID).tolist() for row in masked.inputs] == \
            [[1], [2], [3]]

    def test_empty_message_empty_list(self):
        seq, _ = make_seq([])
        masked = enumerate_masks([seq])
        assert len(masked) == 0
        assert masked.inputs.shape == (0, seq.framed_ids.size)
        assert len(enumerate_masks([])) == 0

    def test_targets_reconstruct_token_ids(self):
        seq, vocab = make_seq(["x", "y", "z"])
        masked = enumerate_masks([seq])
        assert masked.targets.tolist() == [vocab.encode(t) for t in seq.tokens]

    def test_shared_inputs_are_one_row_in_first_appearance_order(self):
        vocab = build_vocabulary([["a", "b", "c", "d"]], min_count=1)
        seqs = [frame(tokens, 5, vocab) for tokens in
                (["a", "b", "c"], ["a", "b", "d"], [], ["a", "b", "c"])]
        masked = enumerate_masks(seqs)
        # "a b <M>" holds two targets; the fourth message repeats the first
        assert len(masked) == 9
        assert masked.input_of.tolist() == [0, 1, 2, 3, 4, 2, 0, 1, 2]
        assert masked.targets.tolist() == [vocab.encode(t) for t in "abcabdabc"]
        assert len(masked.inputs) == 5
        assert len({row.tobytes() for row in masked.inputs}) == 5

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8), max_size=5))
    def test_specials_never_masked_and_frames_restore(self, token_lists):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        seqs = [frame(tokens, 11, vocab) for tokens in token_lists]
        masked = enumerate_masks(seqs)
        frames = sample_frames(masked)
        assert len(masked) == len(frames) == sum(len(t) for t in token_lists)
        sample = 0
        for seq in seqs:
            for position in range(1, len(seq.tokens) + 1):
                row = frames[sample].copy()
                assert np.flatnonzero(row == MASK_ID).tolist() == [position]
                assert seq.framed_ids[position] not in (CLS_ID, PAD_ID)
                assert row[0] == CLS_ID
                row[position] = masked.targets[sample]
                assert np.array_equal(row, seq.framed_ids)
                sample += 1
