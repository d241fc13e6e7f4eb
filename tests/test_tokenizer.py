"""Splitting, vocabulary, and framing behavior."""
import logging
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nulog.errors import ConfigError, ValidationError
from nulog.tokenizer import (CLS_ID, MASK_ID, PAD_ID, UNK_ID, SPECIAL_TOKENS,
                             WHITESPACE_FILTER, Vocabulary, build_vocabulary,
                             compile_filter, compute_frame_length, frame,
                             tokenize)


class TestCompileFilter:
    def test_valid_pattern(self):
        assert isinstance(compile_filter(r"([ ])"), re.Pattern)

    def test_invalid_pattern_is_config_error(self):
        with pytest.raises(ConfigError):
            compile_filter(r"([ ")

    def test_pattern_object_passes_through(self):
        pat = re.compile(r"x")
        assert compile_filter(pat) is pat


class TestTokenize:
    def test_whitespace_split(self):
        content = "Deleting instance /var/lib/nova/instances/4b2ab87e23b4de"
        assert tokenize(content, WHITESPACE_FILTER) == [
            "Deleting", "instance", "/var/lib/nova/instances/4b2ab87e23b4de"]

    def test_empty_string(self):
        assert tokenize("", WHITESPACE_FILTER) == []

    def test_multi_separator_filter(self):
        assert tokenize("a=b,c", r"([ |=|,])") == ["a", "b", "c"]

    def test_empty_fragments_dropped(self):
        assert tokenize("a  b", WHITESPACE_FILTER) == ["a", "b"]
        assert tokenize("  ", WHITESPACE_FILTER) == []

    def test_case_preserved(self):
        assert tokenize("INFO Info info", WHITESPACE_FILTER) == [
            "INFO", "Info", "info"]

    def test_block_id_prefix_consumed_by_filter(self):
        # the separator group swallows " blk_", leaving the bare id
        toks = tokenize("Deleting block blk_123 file x", r"(\s+blk_)|(:)|(\s)")
        assert toks == ["Deleting", "block", "123", "file", "x"]

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                   max_size=80))
    def test_tokens_are_nonempty_substrings(self, content):
        for token in tokenize(content, WHITESPACE_FILTER):
            assert token
            assert token in content

    @given(st.lists(st.text(alphabet="abcXYZ/._-", min_size=1, max_size=8),
                    min_size=0, max_size=10))
    def test_single_space_join_round_trips(self, words):
        content = " ".join(words)
        assert tokenize(content, WHITESPACE_FILTER) == [w for w in words if w]


class TestVocabulary:
    def test_special_ids_fixed(self):
        vocab = Vocabulary()
        assert (CLS_ID, MASK_ID, PAD_ID, UNK_ID) == (0, 1, 2, 3)
        assert vocab.tokens() == list(SPECIAL_TOKENS)
        assert len(vocab) == 4

    def test_first_appearance_order(self):
        vocab = build_vocabulary([["b", "a"], ["a", "c"]])
        assert vocab.encode("b") == 4
        assert vocab.encode("a") == 5
        assert vocab.encode("c") == 6

    def test_size_counts_specials(self):
        assert len(build_vocabulary([["a", "b"], ["a"]])) == 6

    def test_oov_encodes_to_unk(self):
        vocab = build_vocabulary([["a"]])
        assert vocab.encode("zzz") == UNK_ID

    def test_decode_encode_identity(self):
        vocab = build_vocabulary([["alpha", "beta", "gamma"]])
        for token in ("alpha", "beta", "gamma"):
            assert vocab.decode(vocab.encode(token)) == token

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("x")
        assert vocab.add("x") == first
        assert len(vocab) == 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocabulary([])

    @given(st.lists(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                             max_size=6), min_size=1, max_size=20))
    def test_bijection_over_random_corpora(self, corpus):
        vocab = build_vocabulary(corpus)
        distinct = {t for msg in corpus for t in msg}
        assert len(vocab) == 4 + len(distinct)
        ids = [vocab.encode(t) for t in distinct]
        assert len(set(ids)) == len(ids)
        for t in distinct:
            assert vocab.decode(vocab.encode(t)) == t


class TestFrameLength:
    def test_max_plus_one(self):
        # CLS, then the longest message plus one PAD
        corpus = [["a"] * 9, ["b"] * 3]
        assert compute_frame_length(corpus) == 11

    def test_all_single_token(self):
        assert compute_frame_length([["a"], ["b"]]) == 3

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            compute_frame_length([])


class TestFrame:
    def test_direct_construction(self):
        vocab = build_vocabulary([["a", "b"]])
        seq = frame(["a", "b"], 5, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, vocab.encode("a"),
                                           vocab.encode("b"), PAD_ID, PAD_ID]

    def test_oov_token_becomes_unk(self):
        vocab = build_vocabulary([["a"]])
        seq = frame(["zzz"], 4, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, UNK_ID, PAD_ID, PAD_ID]

    def test_full_payload_keeps_one_pad(self):
        vocab = build_vocabulary([["a", "b", "c"]])
        seq = frame(["a", "b", "c"], 5, vocab)
        assert len(seq.framed_ids) == 5
        assert seq.framed_ids.tolist().count(PAD_ID) == 1

    def test_overlong_message_truncated_with_warning(self, caplog):
        vocab = build_vocabulary([["a"]])
        with caplog.at_level(logging.WARNING):
            seq = frame(["a"] * 10, 5, vocab)
        assert len(seq.tokens) == 3
        assert len(seq.framed_ids) == 5
        assert any("truncat" in rec.message for rec in caplog.records)

    def test_payload_below_one_rejected(self):
        vocab = build_vocabulary([["a"]])
        with pytest.raises(ValidationError):
            frame(["a"], 1, vocab)

    def test_minimal_payload_is_cls_plus_pad(self):
        # an all-empty corpus yields frame length 2: frames are [CLS, PAD]
        vocab = build_vocabulary([["a"]])
        assert compute_frame_length([[], []]) == 2
        seq = frame([], 2, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, PAD_ID]

    def test_empty_message_is_cls_plus_padding(self):
        vocab = build_vocabulary([["a"]])
        seq = frame([], 4, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, PAD_ID, PAD_ID, PAD_ID]

    @given(st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=12),
           st.integers(min_value=3, max_value=9))
    def test_frame_invariants(self, tokens, frame_length):
        vocab = build_vocabulary([["a", "b", "c"]])
        seq = frame(tokens, frame_length, vocab)
        ids = seq.framed_ids
        assert len(ids) == frame_length
        assert ids[0] == CLS_ID
        assert ids.tolist().count(PAD_ID) >= 1
        real = [i for i in ids.tolist()[1:] if i != PAD_ID]
        assert len(real) == len(seq.tokens)
        assert np.issubdtype(ids.dtype, np.integer)
