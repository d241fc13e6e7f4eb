"""Top-epsilon constancy rule, template assembly, and corpus grouping."""
import logging
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from stubs import ScoringStub, guesses_missing_constants
from nulog.errors import ShapeError, ValidationError
from nulog.evaluation import parsing_accuracy
from nulog import extraction, masking
from nulog.extraction import (PLACEHOLDER, chunk_rows, constant_masks,
                              parse_corpus)
from nulog.model import Model, ModelConfig, train
from nulog.tokenizer import (CLS_ID, MASK_ID, PAD_ID, UNK_ID, WHITESPACE_FILTER,
                             TokenSequence, build_vocabulary,
                             compute_frame_length, frame, tokenize)


def framed_corpus(messages):
    token_lists = [tokenize(m, WHITESPACE_FILTER) for m in messages]
    vocab = build_vocabulary(token_lists, min_count=1)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    return seqs, vocab


def trained_corpus(messages, **config):
    """A model trained on whitespace-tokenized messages, and the messages
    framed with its vocabulary."""
    token_lists = [tokenize(m, WHITESPACE_FILTER) for m in messages]
    model = train(token_lists, ModelConfig(**config))
    seqs = [frame(toks, model.config.frame_length, model.vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    return seqs, model


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
    masks, _, _ = constant_masks(ScoringStub(row), [seq], epsilon)
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
        seqs, model = trained_corpus(
            [f"job j{i} finished with code {i % 3}" for i in range(16)],
            d=16, heads=2, ffn_hidden=32, epochs=3, batch_size=8, seed=7)
        for seq in seqs[:4]:
            masked = masking.enumerate_masks([seq])
            probs = model.predict_masked_batch(masked.inputs)[masked.input_of]
            for epsilon in (1, 3, len(model.vocab)):
                mask = mask_alone(model, seq, epsilon)
                # an unknown token is never constant
                expected = [target != UNK_ID and loop_rank(p, target) < epsilon
                            for p, target in zip(probs, masked.targets)]
                assert mask.tolist() == expected

    def test_unknown_token_is_never_constant(self):
        vocab = build_vocabulary([["alpha", "beta"]], min_count=1)
        seq = frame(["alpha", "zzz", "beta"], 5, vocab, message_index=0)
        model = guesses_missing_constants(len(vocab), range(len(vocab)))
        assert mask_alone(model, seq, epsilon=len(vocab)).tolist() == \
            [True, False, True]


def masked_frames(seq):
    """Each (masked frame, true id) of a message, built by hand."""
    out = []
    for position in range(1, len(seq.tokens) + 1):
        ids = seq.framed_ids.copy()
        ids[position] = MASK_ID
        out.append((ids, int(seq.framed_ids[position])))
    return out


def set_chunk_rows(monkeypatch, model, rows):
    """Make chunk_rows(model) give rows."""
    width = max(model.config.frame_length * model.config.d, model.head_out)
    monkeypatch.setattr(extraction, "CHUNK_ELEMS", rows * width)
    assert chunk_rows(model) == rows


class TestConstantMasks:
    def test_shared_masked_inputs_are_scored_once(self, monkeypatch):
        # a one-variable template: masking the variable gives every line the
        # same input, held by more samples than one chunk ranks at a time
        seqs, model = trained_corpus(
            [f"session s{i} opened" for i in range(300)] + ["session s7 opened"],
            d=16, heads=2, ffn_hidden=32, epochs=2, batch_size=32, seed=7, min_count=1)
        set_chunk_rows(monkeypatch, model, 256)
        samples = [ids.tobytes() for seq in seqs for ids, _ in masked_frames(seq)]
        distinct = set(samples)
        assert len(distinct) == 2 * 300 + 1 < len(samples)
        verdicts = set()
        for epsilon in (1, 3, 8):
            recorder = ScoringStub(model.predict_masked_batch, like=model)
            batched, built, scored = constant_masks(recorder, seqs, epsilon)
            assert built == scored == len(distinct)
            assert sorted(recorder.inputs) == sorted(distinct)
            assert recorder.rows == [256, 256, len(distinct) - 2 * 256]
            for seq, mask in zip(seqs, batched):
                assert np.array_equal(mask, mask_alone(model, seq, epsilon))
            verdicts.update(np.concatenate(batched).tolist())
        assert verdicts == {True, False}

    @staticmethod
    def batched_as_alone(monkeypatch, model, seqs, rows, epsilon):
        """constant_masks in chunks of rows, one forward call per chunk,
        checked message by message against mask_alone; the masks and the
        number of inputs scored."""
        set_chunk_rows(monkeypatch, model, rows)
        recorder = ScoringStub(model.predict_masked_batch, like=model)
        batched, _, scored = constant_masks(recorder, seqs, epsilon)
        assert len(recorder.calls) == math.ceil(scored / rows)
        assert len(batched) == len(seqs)
        for seq, mask in zip(seqs, batched):
            assert mask.dtype == bool
            assert np.array_equal(mask, mask_alone(model, seq, epsilon))
        return batched, scored

    def test_batched_equals_per_message_across_chunks(self, monkeypatch):
        # more masked samples than one chunk holds, an empty message and
        # tokens the vocabulary has never seen
        train_seqs, model = trained_corpus(
            [f"node n{i % 7} sent {i % 5} packets to host h{i % 3}" for i in range(40)],
            d=16, heads=2, ffn_hidden=32, blocks=2, epochs=2, batch_size=8, seed=7)
        vocab, frame_length = model.vocab, model.config.frame_length
        seqs = list(train_seqs)
        seqs.insert(5, frame([], frame_length, vocab, message_index=100))
        seqs.insert(11, frame(["node", "n9", "sent", "zzz", "packets"], frame_length,
                              vocab, message_index=101))
        assert sum(len(s.tokens) for s in seqs) > 64
        assert UNK_ID in seqs[11].framed_ids
        verdicts = set()
        for epsilon in (1, 3, 8):
            batched, _ = self.batched_as_alone(monkeypatch, model, seqs, 64, epsilon)
            verdicts.update(np.concatenate(batched).tolist())
            assert batched[5].size == 0
            assert not batched[11][3]
        assert verdicts == {True, False}
        # more than 10 chunks of 7 rows, a popular masked input ("session s{i}
        # opened" with its unique value unknown) held by more samples than a
        # chunk ranks at a time, and an unknown token
        messages = ([f"session s{i} opened" for i in range(60)]
                    + [f"node n{i % 7} sent {i % 5} packets to host h{i}" for i in range(30)])
        seqs, model = trained_corpus(messages, d=16, heads=2, ffn_hidden=32, epochs=2,
                                     batch_size=16, seed=3)
        seqs.append(frame(["session", "zzz", "opened"], model.config.frame_length,
                          model.vocab, message_index=len(seqs)))
        for epsilon in (1, 3, 8):
            batched, scored = self.batched_as_alone(monkeypatch, model, seqs, 7, epsilon)
            assert scored > 10 * 7
            assert all(np.array_equal(m, batched[0]) for m in batched[:60])
            assert not batched[-1][1]  # the unknown token

    def test_a_chunk_error_surfaces_with_its_type(self, monkeypatch):
        seqs, vocab = framed_corpus([f"w{i} x{i} y{i}" for i in range(20)])
        healthy = guesses_missing_constants(len(vocab), set())

        def fails_on_the_second_chunk(ids):
            if len(model.calls) == 2:
                raise ShapeError("scored the second chunk")
            return healthy.answer(ids)

        model = ScoringStub(fails_on_the_second_chunk)
        set_chunk_rows(monkeypatch, model, 5)
        with pytest.raises(ShapeError, match="scored the second chunk"):
            constant_masks(model, seqs, epsilon=1)
        assert model.rows == [5, 5]  # no chunk after the failed one is scored
        masks, _, _ = constant_masks(healthy, seqs, epsilon=1)
        assert sum(healthy.rows) == 3 * len(seqs)
        assert all(not m.any() for m in masks)

    def test_one_forward_call_per_chunk(self, monkeypatch):
        seqs, vocab = framed_corpus([f"w{i} x{i} y{i}" for i in range(200)])
        model = guesses_missing_constants(len(vocab), set())
        set_chunk_rows(monkeypatch, model, 256)
        constant_masks(model, seqs, epsilon=1)
        samples = 3 * len(seqs)
        assert len(model.calls) == math.ceil(samples / 256)
        assert sum(model.rows) == samples
        assert max(model.rows) == 256

    def test_inputs_whose_every_sample_is_unknown_are_not_scored(self, monkeypatch):
        # "alpha <M>" is shared by an unknown and a known token; "gamma <M>"
        # hides unknown tokens alone, in two messages
        _, model = trained_corpus(["alpha beta", "gamma delta", "beta gamma"],
                                  d=16, heads=2, ffn_hidden=32, epochs=1, seed=7,
                                  min_count=1)
        seqs = [frame(tokens.split(), model.config.frame_length, model.vocab,
                      message_index=i)
                for i, tokens in enumerate(["alpha zzz", "alpha beta", "gamma zzz",
                                            "gamma yyy", "zzz"])]
        set_chunk_rows(monkeypatch, model, 2)
        known = {ids.tobytes() for seq in seqs for ids, target in masked_frames(seq)
                 if target != UNK_ID}
        unknown_only = {ids.tobytes() for seq in seqs
                        for ids, _ in masked_frames(seq)} - known
        assert len(unknown_only) == 2  # "gamma <M>" and "<M>"
        for epsilon in (1, 3, len(model.vocab)):
            recorder = ScoringStub(model.predict_masked_batch, like=model)
            masks, built, scored = constant_masks(recorder, seqs, epsilon)
            assert sorted(recorder.inputs) == sorted(known)
            assert (built, scored) == (len(known) + 2, len(known))
            for seq, mask in zip(seqs, masks):
                assert np.array_equal(mask, mask_alone(model, seq, epsilon))
                assert not mask[seq.framed_ids[1:len(seq.tokens) + 1] == UNK_ID].any()

    def test_empty_input(self):
        model = guesses_missing_constants(8, set())
        assert constant_masks(model, [], epsilon=1) == ([], 0, 0)
        assert model.calls == []
        with pytest.raises(ValidationError):
            constant_masks(model, [], epsilon=0)


ORACLE_WORDS = ["a", "b", "c", "d", "e"]
ORACLE_VOCAB = build_vocabulary([ORACLE_WORDS], min_count=1)
ORACLE_FRAME = 6  # four tokens fill it
ORACLE_MODEL = Model(ModelConfig(vocab_size=len(ORACLE_VOCAB), frame_length=ORACLE_FRAME,
                                 d=8, heads=2, ffn_hidden=16, seed=5))


def tied_answer(ids):
    """Probabilities in three levels, so every row holds exact ties; which
    ids share a level depends on the masked frame."""
    levels = 1.0 + (ids.sum(axis=1)[:, None] + np.arange(len(ORACLE_VOCAB))) % 3
    return levels / levels.sum(axis=1, keepdims=True)


def oracle_mask(model, seq, epsilon):
    """The rule for one message from first principles: each masked frame
    built by hand and scored alone with predict_proba, the true id ranked by
    sorting the ids on (-probability, id)."""
    verdicts = []
    for ids, target in masked_frames(seq):
        probs = model.predict_proba(ids[None, :])[0]
        ranking = sorted(range(len(probs)), key=lambda j: (-probs[j], j))
        verdicts.append(target != UNK_ID and ranking.index(target) < epsilon)
    return verdicts


class TestOracle:
    """constant_masks against oracle_mask, which shares no code with it."""

    @given(st.lists(st.lists(st.sampled_from(ORACLE_WORDS + ["x", "y"]), max_size=4),
                    max_size=8),
           st.integers(min_value=1, max_value=len(ORACLE_VOCAB)),
           st.integers(min_value=1, max_value=6),
           st.booleans())
    # lines that differ at one slot share a masked input with two targets;
    # an unknown token, an empty message and a message that fills the frame
    @example([["a", "b", "c"], ["a", "b", "d"], ["x", "a", "b", "e"], [], ["a", "y"]],
             3, 2, False)
    @example([["a", "b", "c"], ["a", "b", "d"], ["x", "a", "b", "e"], [], ["a", "y"]],
             3, 2, True)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agrees_with_each_frame_scored_alone(self, messages, epsilon, rows, tied):
        seqs = [frame(tokens, ORACLE_FRAME, ORACLE_VOCAB, message_index=i)
                for i, tokens in enumerate(messages)]
        scorer = ScoringStub(tied_answer if tied else ORACLE_MODEL.predict_proba,
                             like=ORACLE_MODEL)
        width = max(ORACLE_FRAME * ORACLE_MODEL.config.d, ORACLE_MODEL.head_out)
        with mock.patch.object(extraction, "CHUNK_ELEMS", rows * width):
            masks, built, scored = constant_masks(scorer, seqs, epsilon)
        assert [m.tolist() for m in masks] == [oracle_mask(scorer, seq, epsilon)
                                               for seq in seqs]
        assert len(scorer.calls) == math.ceil(scored / rows)
        assert all(n <= rows for n in scorer.rows)
        assert len(set(scorer.inputs)) == scored <= built


class TestChunkRows:
    def test_a_longer_frame_gets_fewer_rows(self):
        short = Model(ModelConfig(vocab_size=100, frame_length=10))
        long = Model(ModelConfig(vocab_size=100, frame_length=47))
        d = short.config.d
        assert chunk_rows(short) == extraction.CHUNK_ELEMS // (10 * d)
        assert chunk_rows(long) == extraction.CHUNK_ELEMS // (47 * d)
        assert chunk_rows(long) < chunk_rows(short)

    def test_a_wide_head_gets_fewer_rows_and_never_none(self):
        config = ModelConfig(vocab_size=100, frame_length=10)
        assert chunk_rows(SimpleNamespace(config=config, head_out=20_000)) == \
            extraction.CHUNK_ELEMS // 20_000
        assert chunk_rows(SimpleNamespace(config=config, head_out=10 ** 9)) == 1


def extract(model, seq, epsilon):
    """The template and variables parse_corpus gives one message."""
    parsed = parse_corpus(model, [seq], epsilon)[0]
    return parsed[0].template, parsed[0].variables


class TestExtractTemplate:
    def test_claim_message_variables(self):
        message = "Attempting claim: memory 2048 MB, disk 20 GB, vcpus 1 CPU"
        seqs, vocab = framed_corpus([message])
        variable_ids = {vocab.encode(t) for t in ("2048", "20", "1")}
        constant_ids = set(range(4, len(vocab))) - variable_ids
        model = guesses_missing_constants(len(vocab), constant_ids)
        template, variables = extract(model, seqs[0], epsilon=3)
        assert template == ("Attempting claim: memory " + PLACEHOLDER +
                           " MB, disk " + PLACEHOLDER + " GB, vcpus " +
                           PLACEHOLDER + " CPU")
        assert variables == ["2048", "20", "1"]

    def test_empty_message(self):
        seqs, vocab = framed_corpus([""])
        model = guesses_missing_constants(len(vocab), set())
        assert extract(model, seqs[0], epsilon=1) == ("", [])

    def test_epsilon_at_vocab_size_keeps_all_known_tokens(self):
        seqs, vocab = framed_corpus(["alpha beta gamma"])
        model = guesses_missing_constants(len(vocab), set())
        template, variables = extract(model, seqs[0], epsilon=len(vocab))
        assert template == "alpha beta gamma"
        assert variables == []

    def test_unknown_token_is_always_variable(self):
        token_lists = [["alpha", "beta"]]
        vocab = build_vocabulary(token_lists, min_count=1)
        seq = frame(["alpha", "zzz"], 4, vocab, message_index=0)
        assert seq.framed_ids[2] == UNK_ID
        model = guesses_missing_constants(len(vocab), range(len(vocab)))
        template, variables = extract(model, seq, epsilon=len(vocab))
        assert template == "alpha " + PLACEHOLDER
        assert variables == ["zzz"]

    def test_placeholder_count_matches_variables(self):
        message = "a b c d"
        seqs, vocab = framed_corpus([message])
        model = guesses_missing_constants(len(vocab), {vocab.encode(t) for t in "ac"})
        template, variables = extract(model, seqs[0], epsilon=2)
        assert template.count(PLACEHOLDER) == len(variables) == 2
        assert len(template.split(" ")) == 4


class TestParseCorpus:
    def test_identical_messages_form_one_group(self):
        seqs, vocab = framed_corpus(["same line here"] * 7)
        model = guesses_missing_constants(len(vocab), set(range(4, len(vocab))))
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=2)
        assert templates == ["same line here"]
        assert [p.message_index for p in parsed] == [s.message_index for s in seqs]
        assert {p.template_id for p in parsed} == {0}

    def test_members_partition_the_corpus(self):
        seqs, vocab = framed_corpus(
            ["on x", "off y", "on z", "off w", "on q"])
        constant = {vocab.encode("on"), vocab.encode("off")}
        model = guesses_missing_constants(len(vocab), constant)
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=2)
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
        seqs, model = trained_corpus(messages, d=16, heads=2, ffn_hidden=32,
                                     epochs=50, batch_size=16, seed=7)
        # trained constants rank <= 1, once-seen variables rank >= 6 here
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=4)
        assert len(templates) == 2
        groups = {}
        for p, label in zip(parsed, truth):
            groups.setdefault(p.template_id, set()).add(label)
        assert all(len(labels) == 1 for labels in groups.values())

    def test_extraction_is_deterministic(self):
        seqs, vocab = framed_corpus(["up a 1", "up b 2", "up c 3"])
        model = guesses_missing_constants(len(vocab), {vocab.encode("up")})
        first = parse_corpus(model, seqs, epsilon=1)[0]
        second = parse_corpus(model, seqs, epsilon=1)[0]
        assert [(p.template, p.variables) for p in first] == \
            [(p.template, p.variables) for p in second]

    def test_epsilon_validated(self):
        seqs, vocab = framed_corpus(["a"])
        with pytest.raises(ValidationError):
            parse_corpus(guesses_missing_constants(len(vocab), set()), seqs, epsilon=0)

    def test_empty_corpus_still_checks_epsilon(self):
        with pytest.raises(ValidationError):
            parse_corpus(guesses_missing_constants(8, set()), [], epsilon=0)

    def test_scores_each_distinct_sequence_once(self, caplog):
        seqs, vocab = framed_corpus(["on x", "off y", "on x", "on x", "off y", "up"])
        model = guesses_missing_constants(len(vocab),
                                          {vocab.encode(t) for t in ("on", "off")})
        with caplog.at_level(logging.INFO, logger="nulog.extraction"):
            parsed, templates, built, scored = parse_corpus(model, seqs, epsilon=2)
        assert model.rows == [2 + 2 + 1]
        assert built == scored == 5
        assert [p.template_id for p in parsed] == [0, 1, 0, 0, 1, 2]
        assert "scored 6 messages: 11 masked samples as 5 distinct inputs, " \
            "5 of them scored in 1 forward calls" in caplog.text

    def test_template_ids_follow_first_appearance(self):
        seqs, vocab = framed_corpus(["b 1", "a 2", "b 3", "c 4", "a 5"])
        constant = {vocab.encode(t) for t in ("a", "b", "c")}
        model = guesses_missing_constants(len(vocab), constant)
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=3)
        assert templates == [f"b {PLACEHOLDER}", f"a {PLACEHOLDER}",
                             f"c {PLACEHOLDER}"]
        assert [p.template_id for p in parsed] == [0, 1, 0, 2, 1]


DISTINCT_VOCAB = build_vocabulary([["alpha", "beta", "gamma"]], min_count=1)
DISTINCT_FRAME = 6  # four tokens fill it; later ones are cut
# alpha and beta are constant, gamma is known but variable
DISTINCT_CONSTANTS = {DISTINCT_VOCAB.encode("alpha"), DISTINCT_VOCAB.encode("beta")}


class TestDistinctFrames:
    """Messages that share a frame are masked and scored once and share
    one mask; each still parses from its own tokens and cut tokens."""

    @staticmethod
    def framed(messages):
        return [frame(tokens, DISTINCT_FRAME, DISTINCT_VOCAB, message_index=i)
                for i, tokens in enumerate(messages)]

    @given(st.lists(st.lists(st.sampled_from(["alpha", "beta", "gamma", "u1", "u2",
                                              "u3"]), max_size=7), max_size=12))
    # one frame, alpha UNK beta UNK, under other unknown text and other cut tails
    @example([["alpha", "u1", "beta", "u2"], ["alpha", "u3", "beta", "u1", "u2"],
              ["alpha", "u2", "beta", "u3", "gamma", "u1"], ["alpha", "u1", "beta", "u2"],
              ["alpha", "u2", "beta", "u2", "u3"]])
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_each_message_parses_as_it_does_alone(self, messages):
        seqs = self.framed(messages)
        model = guesses_missing_constants(len(DISTINCT_VOCAB), DISTINCT_CONSTANTS)
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=2)
        for seq, p in zip(seqs, parsed):
            assert (p.template, p.variables) == extract(model, seq, epsilon=2)
            assert templates[p.template_id] == p.template
        assert [p.template_id for p in parsed] == \
            [templates.index(p.template) for p in parsed]

    def test_one_frame_renders_one_template_per_cut_count(self):
        messages = [["alpha", "u1", "beta", "u2"], ["alpha", "u3", "beta", "u1", "u2"],
                    ["alpha", "u2", "beta", "u3", "gamma", "u1"],
                    ["alpha", "u2", "beta", "u1", "u3"]]
        seqs = self.framed(messages)
        assert len({seq.framed_ids.tobytes() for seq in seqs}) == 1
        model = guesses_missing_constants(len(DISTINCT_VOCAB), DISTINCT_CONSTANTS)
        parsed, templates, _, _ = parse_corpus(model, seqs, epsilon=2)
        base = f"alpha {PLACEHOLDER} beta {PLACEHOLDER}"
        assert templates == [base, f"{base} {PLACEHOLDER}",
                             f"{base} {PLACEHOLDER} {PLACEHOLDER}"]
        assert [p.template_id for p in parsed] == [0, 1, 2, 1]
        assert [p.variables for p in parsed] == [["u1", "u2"], ["u3", "u1", "u2"],
                                                 ["u2", "u3", "gamma", "u1"],
                                                 ["u2", "u1", "u3"]]

    def test_copies_of_a_frame_forward_the_rows_of_one(self):
        # the copies differ in their unknown token's text, not in their frame
        copies = self.framed([["alpha", f"u{i}", "gamma", "beta"] for i in range(50)])
        assert len({seq.framed_ids.tobytes() for seq in copies}) == 1
        alone = guesses_missing_constants(len(DISTINCT_VOCAB), DISTINCT_CONSTANTS)
        together = guesses_missing_constants(len(DISTINCT_VOCAB), DISTINCT_CONSTANTS)
        single, built, scored = constant_masks(alone, copies[:1], epsilon=2)
        masks, *counts = constant_masks(together, copies, epsilon=2)
        assert counts == [built, scored] == [4, 3]
        assert together.rows == alone.rows == [3]
        assert together.inputs == alone.inputs
        assert all(mask.tolist() == single[0].tolist() == [True, False, False, True]
                   for mask in masks)

    def test_a_shared_mask_is_read_only(self):
        seqs = self.framed([["alpha", "u1", "beta"], ["gamma"], ["alpha", "u2", "beta"]])
        model = guesses_missing_constants(len(DISTINCT_VOCAB), DISTINCT_CONSTANTS)
        masks, _, _ = constant_masks(model, seqs, epsilon=2)
        assert np.shares_memory(masks[0], masks[2])
        assert not masks[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            masks[2][0] = False
        assert masks[0].tolist() == [True, False, True]


class TestRareTokens:
    """At the default min_count a value seen once in training is UNK, which
    is never constant, so every line of an event shares its masked inputs."""

    @staticmethod
    def parse(corpus, train_lines):
        """Train at the default settings on the first train_lines lines and
        parse every line."""
        token_lists = [tokenize(c, WHITESPACE_FILTER) for c in corpus.contents]
        model = train(token_lists[:train_lines], ModelConfig())
        seqs = [frame(toks, model.config.frame_length, model.vocab, message_index=i)
                for i, toks in enumerate(token_lists, start=1)]
        return parse_corpus(model, seqs, model.config.epsilon)

    def test_unique_values_recover_the_five_templates(self):
        # 2,000 lines whose every value is unique; with an id for every
        # token (min_count 1) the same parse gives GA 0.2 and 210 templates
        corpus = synth.make_corpus(per_template=400)
        parsed, templates, _, _ = self.parse(corpus, len(corpus.contents))
        assert sorted(templates) == sorted(synth.expected_templates())
        accuracy = parsing_accuracy({i: p.template_id for i, p in enumerate(parsed)},
                                    dict(enumerate(corpus.event_ids)))
        assert accuracy == 1.0

    def test_held_out_lines_get_their_event_s_template(self):
        corpus = synth.make_corpus(per_template=200)
        parsed, _, _, _ = self.parse(corpus, len(corpus.contents) // 2)
        expected = synth.expected_templates()
        assert [p.template for p in parsed] == \
            [expected[int(event[1:]) - 1] for event in corpus.event_ids]

    def test_one_off_events_of_equal_length_share_a_template(self):
        # a known limit: every token of an event seen once is UNK, so the
        # event parses to placeholders alone, whatever the model predicts
        seqs, model = trained_corpus(
            [f"disk d{i} full" for i in range(20)]
            + ["alpha beta gamma", "delta epsilon zeta"],
            d=16, heads=2, ffn_hidden=32, epochs=1, seed=7)
        parsed, _, _, _ = parse_corpus(model, seqs, epsilon=len(model.vocab))
        assert parsed[-2].template == parsed[-1].template == " ".join([PLACEHOLDER] * 3)
        assert parsed[-2].template_id == parsed[-1].template_id
        assert parsed[0].template == f"disk {PLACEHOLDER} full"
