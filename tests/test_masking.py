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


class TestEnumerateMasks:
    def test_three_tokens_three_samples_in_order(self):
        seq, _ = make_seq(["x", "y", "z"])
        samples = enumerate_masks(seq)
        assert [s.position for s in samples] == [1, 2, 3]

    def test_empty_message_empty_list(self):
        seq, _ = make_seq([])
        assert enumerate_masks(seq) == []

    def test_targets_reconstruct_token_ids(self):
        seq, vocab = make_seq(["x", "y", "z"])
        samples = enumerate_masks(seq)
        assert [s.target_id for s in samples] == [vocab.encode(t)
                                                  for t in seq.tokens]

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_specials_never_masked_and_frames_restore(self, tokens, seed):
        seq, _ = make_seq(tokens, frame_length=11)
        samples = enumerate_masks(seq)
        random_sample = sample_random_mask(seq, np.random.default_rng(seed))
        if tokens:
            samples = samples + [random_sample]
        else:
            assert random_sample is None
        for sample in samples:
            assert 1 <= sample.position <= len(seq.tokens)
            assert seq.framed_ids[sample.position] not in (CLS_ID, PAD_ID)
            restored = sample.input_ids.copy()
            restored[sample.position] = sample.target_id
            assert np.array_equal(restored, seq.framed_ids)
            assert sample.input_ids[0] == CLS_ID
