"""Top-epsilon constancy rule, template assembly, and corpus grouping."""
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nulog.errors import ValidationError
from nulog import masking
from nulog.extraction import MASK_CHUNK, PLACEHOLDER, constant_masks, parse_corpus
from nulog.model import ModelConfig, train
from nulog.tokenizer import (CLS_ID, PAD_ID, UNK_ID, WHITESPACE_FILTER,
                             TokenSequence, build_vocabulary,
                             compute_frame_length, frame, tokenize)


class StubModel:
    """Answers mask queries from a fixed per-target probability recipe."""

    def __init__(self, vocab_size, constant_ids):
        self.vocab_size = vocab_size
        self.constant_ids = set(constant_ids)

    def predict_masked_batch(self, samples):
        rows = []
        for sample in samples:
            probs = np.full(self.vocab_size, 1.0 / self.vocab_size)
            if sample.target_id in self.constant_ids:
                probs[:] = 0.001
                probs[sample.target_id] = 1.0 - 0.001 * (self.vocab_size - 1)
            else:
                probs[sample.target_id] = 0.0
                probs[list(self.constant_ids)] = 0.5 / max(len(self.constant_ids), 1)
                remaining = 0.5 / (self.vocab_size - len(self.constant_ids) - 1)
                for i in range(self.vocab_size):
                    if i != sample.target_id and i not in self.constant_ids:
                        probs[i] = remaining
            rows.append(probs / probs.sum())
        return np.stack(rows)


def framed_corpus(messages):
    token_lists = [tokenize(m, WHITESPACE_FILTER) for m in messages]
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    return seqs, vocab


class FixedRowStub:
    """Answers every masked input with the same probability row."""

    def __init__(self, row):
        self.row = np.asarray(row)

    def predict_masked_batch(self, samples):
        return np.tile(self.row, (len(samples), 1))


def rule(probs, true_ids, epsilon):
    """constant_masks' verdicts for one message whose every masked slot gets
    the distribution probs; true_ids index probs.

    Word i of probs is vocabulary id UNK_ID + 1 + i. The special ids before
    it get probability 0, so they rank below every word of nonzero
    probability and no word is the unknown token.
    """
    row = np.concatenate([np.zeros(UNK_ID + 1), probs])
    ids = [CLS_ID, *(UNK_ID + 1 + t for t in true_ids), PAD_ID]
    seq = TokenSequence(message_index=0, tokens=[f"w{t}" for t in true_ids],
                        framed_ids=np.array(ids, dtype=np.int64))
    masks, _ = constant_masks(FixedRowStub(row), [seq], epsilon)
    return masks[0].tolist()


def loop_rank(probs, true_id):
    """Tokens ahead of true_id: more probable, or as probable with a smaller id."""
    return sum(1 for i, p in enumerate(probs)
               if p > probs[true_id] or (p == probs[true_id] and i < true_id))


def mask_alone(model, seq, epsilon):
    """constant_masks for one message on its own."""
    return constant_masks(model, [seq], epsilon)[0][0]


class TestIsConstant:
    """The top-epsilon rule for single slots, through constant_masks."""

    def test_epsilon_of_vocab_size_accepts_everything(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        assert rule(probs, range(4), epsilon=4) == [True] * 4

    def test_epsilon_one_accepts_only_argmax(self):
        probs = np.array([0.1, 0.6, 0.3])
        assert rule(probs, [1, 2], epsilon=1) == [True, False]

    def test_third_ranked_token_fails_epsilon_two(self):
        assert rule(np.array([0.5, 0.3, 0.2]), [2], epsilon=2) == [False]

    def test_ties_break_toward_smaller_id(self):
        probs = np.array([0.4, 0.3, 0.3])
        assert rule(probs, [1, 2], epsilon=2) == [True, False]

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            rule(np.array([1.0]), [0], epsilon=0)

    @given(st.integers(min_value=2, max_value=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=100)
    def test_monotone_in_epsilon(self, size, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(size))
        true_id = int(rng.integers(0, size))
        verdicts = [rule(probs, [true_id], eps)[0]
                    for eps in range(1, size + 1)]
        # once constant, constant for every larger epsilon
        assert verdicts == sorted(verdicts)
        assert verdicts[-1] is True


class TestConstantMask:
    def test_agrees_with_is_constant_on_a_trained_model(self):
        seqs, vocab = framed_corpus(
            [f"job j{i} finished with code {i % 3}" for i in range(16)])
        frame_length = len(seqs[0].framed_ids)
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=3,
                             batch_size=8, seed=7)
        model = train(seqs, config, vocab=vocab)
        for seq in seqs[:4]:
            samples = masking.enumerate_masks(seq)
            probs = model.predict_masked_batch(samples)
            for epsilon in (1, 3, len(vocab)):
                mask = mask_alone(model, seq, epsilon)
                expected = [loop_rank(p, s.target_id) < epsilon
                            for p, s in zip(probs, samples)]
                assert mask.tolist() == expected

    def test_unknown_token_is_never_constant(self):
        vocab = build_vocabulary([["alpha", "beta"]])
        seq = frame(["alpha", "zzz", "beta"], 5, vocab, message_index=0)
        model = StubModel(len(vocab), constant_ids=set(range(len(vocab))))
        assert mask_alone(model, seq, epsilon=len(vocab)).tolist() == \
            [True, False, True]


class CountingStub(StubModel):
    """StubModel that records the row count of every forward call."""

    def __init__(self, vocab_size, constant_ids):
        super().__init__(vocab_size, constant_ids)
        self.calls = []

    def predict_masked_batch(self, samples):
        self.calls.append(len(samples))
        return super().predict_masked_batch(samples)


class RecordingModel:
    """A trained model that records every masked input it scores."""

    def __init__(self, model):
        self.model = model
        self.calls = []
        self.inputs = []

    def predict_masked_batch(self, samples):
        self.calls.append(len(samples))
        self.inputs.extend(s.input_ids.tobytes() for s in samples)
        return self.model.predict_masked_batch(samples)


class TestConstantMasks:
    def test_shared_masked_inputs_are_scored_once(self):
        # a one-variable template: masking the variable gives every line the
        # same input, held by more samples than one chunk ranks at a time
        seqs, vocab = framed_corpus(
            [f"session s{i} opened" for i in range(300)] + ["session s7 opened"])
        frame_length = len(seqs[0].framed_ids)
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=2,
                             batch_size=32, seed=7)
        model = train(seqs, config, vocab=vocab)
        samples = [s.input_ids.tobytes()
                   for seq in seqs for s in masking.enumerate_masks(seq)]
        distinct = set(samples)
        assert len(distinct) == 2 * 300 + 1 < len(samples)
        verdicts = set()
        for epsilon in (1, 3, 8):
            recorder = RecordingModel(model)
            batched, scored = constant_masks(recorder, seqs, epsilon)
            assert scored == len(distinct)
            assert sorted(recorder.inputs) == sorted(distinct)
            assert recorder.calls == [MASK_CHUNK, MASK_CHUNK, len(distinct) - 2 * MASK_CHUNK]
            for seq, mask in zip(seqs, batched):
                assert np.array_equal(mask, mask_alone(model, seq, epsilon))
            verdicts.update(np.concatenate(batched).tolist())
        assert verdicts == {True, False}

    def test_batched_equals_per_message_across_chunks(self):
        # more masked samples than one chunk holds, an empty message and
        # tokens the vocabulary has never seen
        train_seqs, vocab = framed_corpus(
            [f"node n{i % 7} sent {i % 5} packets to host h{i % 3}" for i in range(40)])
        frame_length = len(train_seqs[0].framed_ids)
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, blocks=2, epochs=2,
                             batch_size=8, seed=7)
        model = train(train_seqs, config, vocab=vocab)
        seqs = list(train_seqs)
        seqs.insert(5, frame([], frame_length, vocab, message_index=100))
        seqs.insert(11, frame(["node", "n9", "sent", "zzz", "packets"], frame_length,
                              vocab, message_index=101))
        assert sum(len(s.tokens) for s in seqs) > MASK_CHUNK
        assert UNK_ID in seqs[11].framed_ids
        verdicts = set()
        for epsilon in (1, 3, 8):
            batched, _ = constant_masks(model, seqs, epsilon)
            verdicts.update(np.concatenate(batched).tolist())
            assert len(batched) == len(seqs)
            for seq, mask in zip(seqs, batched):
                assert mask.dtype == bool
                assert np.array_equal(mask, mask_alone(model, seq, epsilon))
            assert batched[5].size == 0
            assert not batched[11][3]
        assert verdicts == {True, False}

    def test_one_forward_call_per_chunk(self):
        seqs, vocab = framed_corpus([f"w{i} x{i} y{i}" for i in range(200)])
        model = CountingStub(len(vocab), set())
        constant_masks(model, seqs, epsilon=1)
        samples = 3 * len(seqs)
        assert len(model.calls) == math.ceil(samples / MASK_CHUNK)
        assert sum(model.calls) == samples
        assert max(model.calls) == MASK_CHUNK

    def test_empty_input(self):
        model = CountingStub(8, set())
        assert constant_masks(model, [], epsilon=1) == ([], 0)
        assert model.calls == []
        with pytest.raises(ValidationError):
            constant_masks(model, [], epsilon=0)


def extract(model, seq, epsilon):
    """The template and variables parse_corpus gives one message."""
    parsed, _, _ = parse_corpus(model, [seq], epsilon)
    return parsed[0].template, parsed[0].variables


class TestExtractTemplate:
    def test_claim_message_variables(self):
        message = "Attempting claim: memory 2048 MB, disk 20 GB, vcpus 1 CPU"
        seqs, vocab = framed_corpus([message])
        variable_ids = {vocab.encode(t) for t in ("2048", "20", "1")}
        constant_ids = set(range(4, len(vocab))) - variable_ids
        model = StubModel(len(vocab), constant_ids)
        template, variables = extract(model, seqs[0], epsilon=3)
        assert template == ("Attempting claim: memory " + PLACEHOLDER +
                           " MB, disk " + PLACEHOLDER + " GB, vcpus " +
                           PLACEHOLDER + " CPU")
        assert variables == ["2048", "20", "1"]

    def test_empty_message(self):
        seqs, vocab = framed_corpus([""])
        model = StubModel(len(vocab), set())
        assert extract(model, seqs[0], epsilon=1) == ("", [])

    def test_epsilon_at_vocab_size_keeps_all_known_tokens(self):
        seqs, vocab = framed_corpus(["alpha beta gamma"])
        model = StubModel(len(vocab), set())
        template, variables = extract(model, seqs[0], epsilon=len(vocab))
        assert template == "alpha beta gamma"
        assert variables == []

    def test_unknown_token_is_always_variable(self):
        token_lists = [["alpha", "beta"]]
        vocab = build_vocabulary(token_lists)
        seq = frame(["alpha", "zzz"], 4, vocab, message_index=0)
        assert seq.framed_ids[2] == UNK_ID
        model = StubModel(len(vocab), constant_ids=set(range(len(vocab))))
        template, variables = extract(model, seq, epsilon=len(vocab))
        assert template == "alpha " + PLACEHOLDER
        assert variables == ["zzz"]

    def test_placeholder_count_matches_variables(self):
        message = "a b c d"
        seqs, vocab = framed_corpus([message])
        model = StubModel(len(vocab), {vocab.encode("a"), vocab.encode("c")})
        template, variables = extract(model, seqs[0], epsilon=2)
        assert template.count(PLACEHOLDER) == len(variables) == 2
        assert len(template.split(" ")) == 4


class TestParseCorpus:
    def test_identical_messages_form_one_group(self):
        seqs, vocab = framed_corpus(["same line here"] * 7)
        model = StubModel(len(vocab), set(range(4, len(vocab))))
        parsed, templates, _ = parse_corpus(model, seqs, epsilon=2)
        assert templates == ["same line here"]
        assert [p.message_index for p in parsed] == [s.message_index for s in seqs]
        assert {p.template_id for p in parsed} == {0}

    def test_members_partition_the_corpus(self):
        seqs, vocab = framed_corpus(
            ["on x", "off y", "on z", "off w", "on q"])
        constant = {vocab.encode("on"), vocab.encode("off")}
        model = StubModel(len(vocab), constant)
        parsed, templates, _ = parse_corpus(model, seqs, epsilon=2)
        assert [p.message_index for p in parsed] == [s.message_index for s in seqs]
        assert {p.template_id for p in parsed} == set(range(len(templates)))
        assert all(templates[p.template_id] == p.template for p in parsed)

    def test_two_template_synthetic_grouping(self):
        rng = np.random.default_rng(4)
        messages = []
        truth = []
        for _ in range(40):
            messages.append(f"Started job j{rng.integers(10_000, 99_999)} now")
            truth.append("start")
            messages.append(f"Stopped task t{rng.integers(10_000, 99_999)} fine")
            truth.append("stop")
        token_lists = [tokenize(m, WHITESPACE_FILTER) for m in messages]
        vocab = build_vocabulary(token_lists)
        frame_length = compute_frame_length(token_lists)
        seqs = [frame(t, frame_length, vocab, message_index=i)
                for i, t in enumerate(token_lists)]
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=50,
                             batch_size=16, seed=7)
        model = train(seqs, config, vocab=vocab)
        # trained constants rank <= 1, once-seen variables rank >= 6 here
        parsed, templates, _ = parse_corpus(model, seqs, epsilon=4)
        assert len(templates) == 2
        groups = {}
        for p, label in zip(parsed, truth):
            groups.setdefault(p.template_id, set()).add(label)
        assert all(len(labels) == 1 for labels in groups.values())

    def test_extraction_is_deterministic(self):
        seqs, vocab = framed_corpus(["up a 1", "up b 2", "up c 3"])
        model = StubModel(len(vocab), {vocab.encode("up")})
        first = parse_corpus(model, seqs, epsilon=1)[0]
        second = parse_corpus(model, seqs, epsilon=1)[0]
        assert [(p.template, p.variables) for p in first] == \
            [(p.template, p.variables) for p in second]

    def test_epsilon_validated(self):
        seqs, vocab = framed_corpus(["a"])
        with pytest.raises(ValidationError):
            parse_corpus(StubModel(len(vocab), set()), seqs, epsilon=0)

    def test_empty_corpus_still_checks_epsilon(self):
        with pytest.raises(ValidationError):
            parse_corpus(StubModel(8, set()), [], epsilon=0)

    def test_scores_each_distinct_sequence_once(self, caplog):
        seqs, vocab = framed_corpus(["on x", "off y", "on x", "on x", "off y", "up"])
        model = CountingStub(len(vocab), {vocab.encode("on"), vocab.encode("off")})
        with caplog.at_level(logging.INFO, logger="nulog.extraction"):
            parsed, templates, scored = parse_corpus(model, seqs, epsilon=2)
        assert model.calls == [2 + 2 + 1]
        assert scored == 5
        assert [p.template_id for p in parsed] == [0, 1, 0, 0, 1, 2]
        assert "scored 6 messages: 11 masked samples as 5 distinct inputs " \
            "in 1 forward calls" in caplog.text

    def test_template_ids_follow_first_appearance(self):
        seqs, vocab = framed_corpus(["b 1", "a 2", "b 3", "c 4", "a 5"])
        constant = {vocab.encode(t) for t in ("a", "b", "c")}
        parsed, templates, _ = parse_corpus(StubModel(len(vocab), constant), seqs,
                                         epsilon=3)
        assert templates == [f"b {PLACEHOLDER}", f"a {PLACEHOLDER}",
                             f"c {PLACEHOLDER}"]
        assert [p.template_id for p in parsed] == [0, 1, 0, 2, 1]
