"""Random and exhaustive masking behavior."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nulog.masking import enumerate_masks, sample_random_mask
from nulog.tokenizer import (CLS_ID, MASK_ID, PAD_ID, build_vocabulary, frame)


def make_seq(tokens, frame_length=None):
    vocab = build_vocabulary([tokens] if tokens else [["a"]])
    if frame_length is None:
        frame_length = max(len(tokens) + 2, 3)
    return frame(tokens, frame_length, vocab), vocab


class TestSampleRandomMask:
    def test_single_token_always_position_one(self):
        seq, _ = make_seq(["only"])
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_random_mask(seq, rng).position == 1

    def test_fixed_seed_reproduces_positions(self):
        seq, _ = make_seq(["a", "b", "c", "d"])
        draws1 = [sample_random_mask(seq, np.random.default_rng(5)).position
                  for _ in range(1)]
        draws2 = [sample_random_mask(seq, np.random.default_rng(5)).position
                  for _ in range(1)]
        assert draws1 == draws2

    def test_positions_roughly_uniform(self):
        seq, _ = make_seq(["a", "b", "c", "d"])
        rng = np.random.default_rng(123)
        counts = {1: 0, 2: 0, 3: 0, 4: 0}
        n = 10_000
        for _ in range(n):
            counts[sample_random_mask(seq, rng).position] += 1
        for position in counts:
            assert abs(counts[position] / n - 0.25) < 0.02

    def test_empty_message_gives_skip_signal(self):
        seq, _ = make_seq([])
        assert sample_random_mask(seq, np.random.default_rng(0)) is None

    def test_mask_replaces_only_chosen_slot(self):
        seq, _ = make_seq(["a", "b", "c"])
        sample = sample_random_mask(seq, np.random.default_rng(9))
        diff = np.flatnonzero(sample.input_ids != seq.framed_ids)
        assert diff.tolist() == [sample.position]
        assert sample.input_ids[sample.position] == MASK_ID
        assert sample.target_id == seq.framed_ids[sample.position]


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
        vocab = build_vocabulary([["a", "b", "c", "d"]])
        seqs = [frame(tokens, 5, vocab) for tokens in
                (["a", "b", "c"], ["a", "b", "d"], [], ["a", "b", "c"])]
        masked = enumerate_masks(seqs)
        # "a b <M>" holds two targets; the fourth message repeats the first
        assert len(masked) == 9
        assert masked.input_of.tolist() == [0, 1, 2, 3, 4, 2, 0, 1, 2]
        assert masked.targets.tolist() == [vocab.encode(t) for t in "abcabdabc"]
        assert len(masked.inputs) == 5
        assert len({row.tobytes() for row in masked.inputs}) == 5

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8), max_size=5),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_specials_never_masked_and_frames_restore(self, token_lists, seed):
        vocab = build_vocabulary([["a", "b", "c"]])
        seqs = [frame(tokens, 11, vocab) for tokens in token_lists]
        masked = enumerate_masks(seqs)
        frames = sample_frames(masked)
        assert len(masked) == len(frames) == sum(len(t) for t in token_lists)
        sample = 0
        for seq in seqs:
            random_sample = sample_random_mask(seq, np.random.default_rng(seed))
            if seq.tokens:
                restored = random_sample.input_ids.copy()
                restored[random_sample.position] = random_sample.target_id
                assert np.array_equal(restored, seq.framed_ids)
            else:
                assert random_sample is None
            for position in range(1, len(seq.tokens) + 1):
                row = frames[sample].copy()
                assert np.flatnonzero(row == MASK_ID).tolist() == [position]
                assert seq.framed_ids[position] not in (CLS_ID, PAD_ID)
                assert row[0] == CLS_ID
                row[position] = masked.targets[sample]
                assert np.array_equal(row, seq.framed_ids)
                sample += 1
