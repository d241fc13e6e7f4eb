"""Splitting, vocabulary, and framing behavior."""
import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import tokenize_loop
from nulog.anomaly import DEFAULT_FILTER
from nulog.errors import ConfigError, ValidationError
from nulog.tokenizer import (CLS_ID, MASK_ID, PAD_ID, UNK_ID, SPECIAL_TOKENS,
                             WHITESPACE_FILTER, Vocabulary, build_vocabulary,
                             compile_filter, compute_frame_length, frame,
                             tokenize)
from nulog.ingest import load_config

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.conf"))
# every shipped filter, the detect default (three groups, not all of which
# take part in a match) and a pattern that matches the empty string
ORACLE_FILTERS = {**{path.stem: load_config(path).tokenization_filter for path in CONFIGS},
                  "whitespace": WHITESPACE_FILTER, "detect": DEFAULT_FILTER,
                  "word-boundary": r"\b"}
# pieces the filters above split on or keep, so that random text hits them
FRAGMENTS = [" ", "  ", "\t", "\n", "a", "Zq", "17", "blk_", "core.", "core", ".",
             "..", "...", ":", "=", ",", "(", ")", "|", '"', "{", "}", "@", "$",
             "[", "]", ";", "-", "_", " B", " KB", "10.0.0.1", "x.y-z.w", "é"]


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


class TestTokenizeOracle:
    """tokenize against tokenize_loop, a loop over the filter's matches."""

    @pytest.mark.parametrize("name", sorted(ORACLE_FILTERS))
    @given(content=st.one_of(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
                             st.text(max_size=40)))
    @example(content="")
    @example(content=" lead")
    @example(content="trail ")
    @example(content="a  b,,c==d  ")
    @example(content=" ,:(|)= ")
    def test_matches_the_match_loop(self, name, content):
        rx = re.compile(ORACLE_FILTERS[name])
        assert tokenize(content, rx) == tokenize_loop(content, rx)

    def test_oracle_filters_include_every_config_and_the_detect_default(self):
        assert len(CONFIGS) == 10
        assert re.compile(DEFAULT_FILTER).groups == 3
        assert re.compile(ORACLE_FILTERS["word-boundary"]).search("a").group() == ""


class TestVocabulary:
    def test_special_ids_fixed(self):
        vocab = Vocabulary()
        assert (CLS_ID, MASK_ID, PAD_ID, UNK_ID) == (0, 1, 2, 3)
        assert vocab.tokens() == list(SPECIAL_TOKENS)
        assert len(vocab) == 4

    def test_first_appearance_order(self):
        vocab = build_vocabulary([["b", "a"], ["a", "c"]], min_count=1)
        assert vocab.encode("b") == 4
        assert vocab.encode("a") == 5
        assert vocab.encode("c") == 6

    def test_size_counts_specials(self):
        assert len(build_vocabulary([["a", "b"], ["a"]], min_count=1)) == 6

    def test_oov_encodes_to_unk(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        assert vocab.encode("zzz") == UNK_ID

    def test_decode_encode_identity(self):
        vocab = build_vocabulary([["alpha", "beta", "gamma"]], min_count=1)
        for token in ("alpha", "beta", "gamma"):
            assert vocab.decode(vocab.encode(token)) == token

    def test_special_spellings_are_corpus_tokens(self):
        tokens = ["<PAD>", "x", "<CLS>", "<MASK>", "<UNK>"]
        vocab = build_vocabulary([tokens], min_count=1)
        assert [vocab.encode(t) for t in tokens] == [4, 5, 6, 7, 8]
        assert [vocab.decode(i) for i in range(9)] == list(SPECIAL_TOKENS) + tokens
        assert Vocabulary().encode("<PAD>") == UNK_ID
        assert frame(tokens, 8, vocab).framed_ids.tolist() == \
            [CLS_ID, 4, 5, 6, 7, 8, PAD_ID, PAD_ID]

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("x")
        assert vocab.add("x") == first
        assert len(vocab) == 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocabulary([], min_count=1)

    @given(st.lists(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                             max_size=6), min_size=1, max_size=20))
    def test_bijection_over_random_corpora(self, corpus):
        vocab = build_vocabulary(corpus, min_count=1)
        distinct = {t for msg in corpus for t in msg}
        assert len(vocab) == 4 + len(distinct)
        ids = [vocab.encode(t) for t in distinct]
        assert len(set(ids)) == len(ids)
        for t in distinct:
            assert vocab.decode(vocab.encode(t)) == t


class TestMinCount:
    """build_vocabulary keeps the tokens seen at least min_count times."""

    CORPUS = [["b", "a", "x"], ["a", "c", "b"], ["y", "c", "a"]]

    def test_one_keeps_every_token_in_first_appearance_order(self):
        vocab = build_vocabulary(self.CORPUS, min_count=1)
        assert vocab.tokens()[4:] == ["b", "a", "x", "c", "y"]

    def test_rarer_tokens_encode_to_unk(self):
        vocab = build_vocabulary(self.CORPUS, min_count=2)
        assert [vocab.encode(t) for t in ("x", "y")] == [UNK_ID, UNK_ID]
        assert build_vocabulary(self.CORPUS, min_count=3).tokens()[4:] == ["a"]
        assert build_vocabulary(self.CORPUS, min_count=4).tokens() == list(SPECIAL_TOKENS)

    def test_kept_ids_follow_first_appearance(self):
        # "c" first appears after "x", which is dropped, so it takes id 6
        vocab = build_vocabulary(self.CORPUS, min_count=2)
        assert vocab.tokens()[4:] == ["b", "a", "c"]
        assert [vocab.encode(t) for t in ("b", "a", "c")] == [4, 5, 6]

    def test_counts_are_occurrences_not_lines(self):
        vocab = build_vocabulary([["a", "a"], ["b"]], min_count=2)
        assert vocab.tokens()[4:] == ["a"]

    @given(st.lists(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=3),
                             max_size=6), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=5))
    def test_matches_a_counting_loop(self, corpus, min_count):
        # k = 1: one add per token in corpus order; any k: the same order
        # with the rarer tokens left out
        counts: dict[str, int] = {}
        for tokens in corpus:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
        expected = Vocabulary()
        for tokens in corpus:
            for token in tokens:
                if counts[token] >= min_count:
                    expected.add(token)
        assert build_vocabulary(corpus, min_count).tokens() == expected.tokens()


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
        vocab = build_vocabulary([["a", "b"]], min_count=1)
        seq = frame(["a", "b"], 5, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, vocab.encode("a"),
                                           vocab.encode("b"), PAD_ID, PAD_ID]

    def test_oov_token_becomes_unk(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        seq = frame(["zzz"], 4, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, UNK_ID, PAD_ID, PAD_ID]

    def test_full_payload_keeps_one_pad(self):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        seq = frame(["a", "b", "c"], 5, vocab)
        assert len(seq.framed_ids) == 5
        assert seq.framed_ids.tolist().count(PAD_ID) == 1

    def test_overlong_message_truncated_with_warning(self, caplog):
        vocab = build_vocabulary([["a"]], min_count=1)
        with caplog.at_level(logging.WARNING):
            seq = frame(["a"] * 10, 5, vocab)
        assert len(seq.tokens) == 3
        assert len(seq.framed_ids) == 5
        assert any("truncat" in rec.message for rec in caplog.records)

    def test_tokens_past_the_frame_are_kept_as_cut(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        seq = frame(["a", "b", "c", "d", "e"], 5, vocab)
        assert (seq.tokens, seq.cut) == (["a", "b", "c"], ["d", "e"])
        assert frame(["a", "b"], 5, vocab).cut == []

    def test_payload_below_one_rejected(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        with pytest.raises(ValidationError):
            frame(["a"], 1, vocab)

    def test_minimal_payload_is_cls_plus_pad(self):
        # an all-empty corpus yields frame length 2: frames are [CLS, PAD]
        vocab = build_vocabulary([["a"]], min_count=1)
        assert compute_frame_length([[], []]) == 2
        seq = frame([], 2, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, PAD_ID]

    def test_empty_message_is_cls_plus_padding(self):
        vocab = build_vocabulary([["a"]], min_count=1)
        seq = frame([], 4, vocab)
        assert seq.framed_ids.tolist() == [CLS_ID, PAD_ID, PAD_ID, PAD_ID]

    @given(st.lists(st.sampled_from(["a", "b", "c", "zzz"]), max_size=12),
           st.integers(min_value=3, max_value=9))
    def test_frame_invariants(self, tokens, frame_length):
        vocab = build_vocabulary([["a", "b", "c"]], min_count=1)
        seq = frame(tokens, frame_length, vocab)
        ids = seq.framed_ids
        assert len(ids) == frame_length
        assert ids[0] == CLS_ID
        assert ids.tolist().count(PAD_ID) >= 1
        real = [i for i in ids.tolist()[1:] if i != PAD_ID]
        assert len(real) == len(seq.tokens)
        assert np.issubdtype(ids.dtype, np.integer)

    @given(st.lists(st.sampled_from(["a", "zzz", *SPECIAL_TOKENS]), max_size=8),
           st.lists(st.sampled_from(["a", *SPECIAL_TOKENS]), min_size=1, max_size=5))
    def test_no_token_slot_holds_a_special_id(self, tokens, corpus):
        vocab = build_vocabulary([corpus], min_count=1)
        ids = frame(tokens, 10, vocab).framed_ids[1:len(tokens) + 1]
        assert ids.tolist() == [UNK_ID if t not in corpus else vocab.encode(t)
                                for t in tokens]
        assert not np.isin(ids, [CLS_ID, MASK_ID, PAD_ID]).any()
