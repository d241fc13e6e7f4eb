"""Tests for token-level surprise scoring and the two detection studies."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulog.anomaly import (DELTA_GRID, AnomalyConfig, DetectionMetrics,
                           Verdict, classify_supervised, compute_metrics,
                           fine_tune_supervised, run_supervised_study,
                           run_unsupervised_study, sweep_deltas,
                           token_anomaly_fractions, unsupervised_classify, _split)
from nulog.errors import ConfigError, ValidationError
from nulog.extraction import parse_corpus
from nulog.ingest import ANOMALY, NORMAL, LogRecord
from nulog.model import Model, ModelConfig, train
from nulog.tokenizer import (build_vocabulary, compile_filter,
                             compute_frame_length, frame, tokenize)

SMALL_DIMS = dict(d=16, heads=2, ffn_hidden=32, batch_size=16)


class IdRankStub:
    """Fake predictor whose probabilities decrease with token id, so the
    rank of every true token equals its id exactly."""

    def __init__(self, vocab_size: int):
        row = np.linspace(1.0, 0.5, vocab_size)
        self.row = row / row.sum()

    def predict_masked_batch(self, samples):
        return np.tile(self.row, (len(samples), 1))


def fraction_alone(model, seq, epsilon):
    """token_anomaly_fractions for one message on its own."""
    return token_anomaly_fractions(model, [seq], epsilon)[0]


def variables_alone(model, seq, epsilon):
    """The variables parse_corpus finds in one message on its own."""
    return parse_corpus(model, [seq], epsilon)[0][0].variables


def make_seq(words, corpus_words=None):
    corpus = [list(corpus_words if corpus_words is not None else words)]
    vocab = build_vocabulary(corpus)
    return frame(list(words), compute_frame_length(corpus), vocab), vocab


class TestAnomalyConfig:
    def test_defaults(self):
        config = AnomalyConfig()
        assert config.epsilon == 50
        assert config.delta == 0.5
        assert config.train_fraction == 0.8
        assert config.epochs_unsupervised == 3
        assert config.epochs_finetune == 2

    @pytest.mark.parametrize("kwargs", [
        dict(epsilon=0),
        dict(delta=-0.1),
        dict(delta=1.5),
        dict(train_fraction=0.0),
        dict(train_fraction=1.0),
        dict(epochs_unsupervised=-1),
        dict(epochs_finetune=-1),
        dict(tokenization_filter="(["),
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises((ValidationError, ConfigError)):
            AnomalyConfig(**kwargs)


class TestTokenAnomalyFraction:
    def test_all_tokens_within_epsilon(self):
        seq, vocab = make_seq(["a", "b", "c", "d"])
        stub = IdRankStub(len(vocab))
        assert fraction_alone(stub, seq, epsilon=len(vocab)) == 0.0

    def test_all_tokens_flagged_at_epsilon_one(self):
        # word ids start at 4, so every rank is at least 4
        seq, vocab = make_seq(["a", "b", "c", "d"])
        stub = IdRankStub(len(vocab))
        assert fraction_alone(stub, seq, epsilon=1) == 1.0

    def test_partial_fraction(self):
        # ids 4..7; epsilon 7 flags only the last token
        seq, vocab = make_seq(["a", "b", "c", "d"])
        stub = IdRankStub(len(vocab))
        assert fraction_alone(stub, seq, epsilon=7) == pytest.approx(0.25)

    def test_unknown_token_always_flagged(self):
        seq, vocab = make_seq(["a", "b", "zzz", "d"],
                              corpus_words=["a", "b", "c", "d"])
        stub = IdRankStub(len(vocab))
        assert fraction_alone(stub, seq, epsilon=100) == pytest.approx(0.25)

    def test_empty_message_scores_zero_with_warning(self, caplog):
        seq, vocab = make_seq([], corpus_words=["a", "b"])
        stub = IdRankStub(len(vocab))
        with caplog.at_level(logging.WARNING):
            assert fraction_alone(stub, seq, epsilon=3) == 0.0
        assert "no tokens" in caplog.text

    def test_batch_equals_one_message_at_a_time(self):
        corpus_words = ["a", "b", "c", "d"]
        seqs = [make_seq(words, corpus_words)[0]
                for words in (["a", "b", "c", "d"], [], ["d", "zzz"], ["a"])]
        stub = IdRankStub(len(make_seq(corpus_words)[1]))
        fractions = token_anomaly_fractions(stub, seqs, epsilon=7)
        assert fractions == [fraction_alone(stub, s, 7) for s in seqs]
        assert fractions == [0.25, 0.0, 1.0, 0.0]
        assert token_anomaly_fractions(stub, [], epsilon=7) == []

    @pytest.mark.parametrize("epsilon", [0, -5])
    def test_nonpositive_epsilon_rejected(self, epsilon):
        seq, vocab = make_seq(["a"])
        with pytest.raises(ValidationError):
            fraction_alone(IdRankStub(len(vocab)), seq, epsilon)

    @pytest.mark.parametrize("epsilon", [1, 2, 4, 5, 6, 7, 8, 20])
    def test_fraction_complements_constant_share(self, epsilon):
        # same rule as extraction: flagged tokens are exactly the variables
        seq, vocab = make_seq(["a", "b", "c", "d"])
        stub = IdRankStub(len(vocab))
        variables = variables_alone(stub, seq, epsilon)
        fraction = fraction_alone(stub, seq, epsilon)
        assert fraction == len(variables) / len(seq.tokens)

    def test_complement_holds_on_a_trained_model(self):
        corpus_text = [f"job {i} finished ok" for i in range(12)]
        pattern = compile_filter(r"([ ])")
        token_lists = [tokenize(t, pattern) for t in corpus_text]
        vocab = build_vocabulary(token_lists)
        frame_length = compute_frame_length(token_lists)
        seqs = [frame(toks, frame_length, vocab, message_index=i)
                for i, toks in enumerate(token_lists)]
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             epochs=2, seed=7, **SMALL_DIMS)
        model = train(seqs, config, vocab=vocab)
        for seq in seqs[:4]:
            for epsilon in (1, 3, len(vocab)):
                variables = variables_alone(model, seq, epsilon)
                fraction = fraction_alone(model, seq, epsilon)
                assert fraction == len(variables) / len(seq.tokens)


class TestUnsupervisedClassify:
    def test_below_threshold_is_normal(self):
        assert unsupervised_classify(0.0, 0.5) == NORMAL
        assert unsupervised_classify(0.49, 0.5) == NORMAL

    def test_above_threshold_is_anomaly(self):
        assert unsupervised_classify(0.6, 0.5) == ANOMALY

    def test_exact_threshold_is_normal(self):
        # the comparison is strict
        assert unsupervised_classify(0.5, 0.5) == NORMAL
        assert unsupervised_classify(0.0, 0.0) == NORMAL

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_raising_delta_never_adds_anomalies(self, fraction, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        if unsupervised_classify(fraction, hi) == ANOMALY:
            assert unsupervised_classify(fraction, lo) == ANOMALY


class TestComputeMetrics:
    def test_perfect_detection(self):
        verdicts = [ANOMALY, NORMAL, ANOMALY]
        metrics = compute_metrics(verdicts, list(verdicts))
        assert metrics == DetectionMetrics(accuracy=1.0, precision=1.0,
                                           recall=1.0, f1=1.0,
                                           true_positives=2, false_positives=0,
                                           true_negatives=1, false_negatives=0)

    def test_one_hit_one_false_alarm(self):
        metrics = compute_metrics([ANOMALY, ANOMALY], [ANOMALY, NORMAL])
        assert metrics.precision == pytest.approx(0.5)
        assert metrics.recall == pytest.approx(1.0)
        assert metrics.f1 == pytest.approx(2 / 3)
        assert metrics.accuracy == pytest.approx(0.5)

    def test_no_predicted_positives_scores_zero(self):
        metrics = compute_metrics([NORMAL, NORMAL], [ANOMALY, NORMAL])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0
        assert metrics.accuracy == pytest.approx(0.5)

    def test_all_normal_and_correct(self):
        metrics = compute_metrics([NORMAL] * 3, [NORMAL] * 3)
        assert metrics.accuracy == 1.0
        assert metrics.f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([NORMAL], [NORMAL, NORMAL])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([], [])


class TestSplit:
    def test_positional_eighty_twenty(self):
        records = [LogRecord(i, f"m{i}") for i in range(1, 11)]
        train_part, test_part = _split(records, 0.8)
        assert [r.line_id for r in train_part] == list(range(1, 9))
        assert [r.line_id for r in test_part] == [9, 10]

    def test_split_leaving_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            _split([LogRecord(1, "m")], 0.8)


def surprise_corpus():
    """Normal traffic first; the held-out tail mixes normal lines with
    messages whose tokens never occur in training."""
    records = [LogRecord(i, f"service heartbeat ok status green seq{i}",
                         label=NORMAL) for i in range(1, 41)]
    for i in range(41, 51):
        if i % 2:
            records.append(LogRecord(
                i, f"service heartbeat ok status green seq{i}", label=NORMAL))
        else:
            records.append(LogRecord(
                i, f"panic{i} blown{i} fuse{i} smoke{i}", label=ANOMALY))
    return records


def signature_corpus():
    """Anomalies share constant marker tokens and appear throughout the
    file, so a fine-tuned head has a supervised signal to learn."""
    records = []
    for i in range(1, 51):
        if i % 5 == 0:
            records.append(LogRecord(i, f"alert code c{i} level L{i}",
                                     label=ANOMALY))
        else:
            records.append(LogRecord(
                i, f"service heartbeat ok status green seq{i}", label=NORMAL))
    return records


def study_config(**overrides):
    base = dict(epsilon=12, delta=0.5, seed=7,
                tokenization_filter=r"([ ])", **SMALL_DIMS)
    base.update(overrides)
    return AnomalyConfig(**base)


class TestUnsupervisedStudy:
    def test_separates_novel_messages(self):
        records = surprise_corpus()
        config = study_config(epochs_unsupervised=6)
        metrics, verdicts = run_unsupervised_study(records, config)
        assert metrics.f1 == 1.0
        assert metrics.accuracy == 1.0
        assert [v.line_id for v in verdicts] == list(range(41, 51))
        assert all(v.label in (NORMAL, ANOMALY) for v in verdicts)
        novel = [v.fraction for v in verdicts if v.label == ANOMALY]
        seen = [v.fraction for v in verdicts if v.label == NORMAL]
        assert min(novel) > max(seen)

    def test_fractions_are_shares(self):
        records = surprise_corpus()
        config = study_config(epochs_unsupervised=2)
        _, verdicts = run_unsupervised_study(records, config)
        assert all(0.0 <= v.fraction <= 1.0 for v in verdicts)

    def test_empty_test_message_scores_zero_with_warning(self, caplog):
        records = surprise_corpus()
        records[44] = LogRecord(45, "", label=NORMAL)
        with caplog.at_level(logging.WARNING, logger="nulog.anomaly"):
            _, verdicts = run_unsupervised_study(records,
                                                 study_config(epochs_unsupervised=1))
        assert "message 45 has no tokens; scoring it 0.0" in caplog.text
        empty = next(v for v in verdicts if v.line_id == 45)
        assert (empty.fraction, empty.verdict) == (0.0, NORMAL)

    def test_normal_only_filter_changes_nothing_without_train_anomalies(self):
        records = surprise_corpus()
        metrics_a, _ = run_unsupervised_study(
            records, study_config(epochs_unsupervised=2))
        metrics_b, _ = run_unsupervised_study(
            records, study_config(epochs_unsupervised=2, normal_only=True))
        assert metrics_a == metrics_b


class TestFineTune:
    def pretrained(self, records, config):
        from nulog.anomaly import _prepare, _pretrain
        train_part, test_part, train_seqs, test_seqs, vocab, frame_length = _prepare(
            records, config)
        model = _pretrain(train_part, train_seqs, vocab, frame_length, config)
        return model, train_part, train_seqs, test_seqs

    def test_head_is_two_way_and_encoder_is_copied(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, _ = self.pretrained(records, config)
        classifier = fine_tune_supervised(model, train_seqs,
                                          [r.label for r in train_part],
                                          epochs=0)
        assert classifier.params["head.w"].data.shape == (config.d, 2)
        assert classifier.params["head.b"].data.shape == (1, 2)
        for name, tensor in model.params.items():
            if not name.startswith("head."):
                assert np.array_equal(classifier.params[name].data, tensor.data)

    def test_training_moves_encoder_weights_too(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, _ = self.pretrained(records, config)
        classifier = fine_tune_supervised(model, train_seqs,
                                          [r.label for r in train_part],
                                          epochs=1)
        assert not np.array_equal(classifier.params["tok_emb"].data,
                                  model.params["tok_emb"].data)

    def test_same_pretrained_model_gives_bitwise_identical_weights(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, _ = self.pretrained(records, config)
        labels = [r.label for r in train_part]
        a = fine_tune_supervised(model, train_seqs, labels, epochs=2)
        b = fine_tune_supervised(model, train_seqs, labels, epochs=2)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_single_class_warns_and_proceeds(self, caplog):
        records = surprise_corpus()[:40]
        records.append(LogRecord(99, "tail line", label=NORMAL))
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, _ = self.pretrained(records, config)
        with caplog.at_level(logging.WARNING):
            classifier = fine_tune_supervised(model, train_seqs,
                                              [NORMAL] * len(train_seqs),
                                              epochs=1)
        assert "single class" in caplog.text
        assert classifier.params["head.w"].data.shape[1] == 2

    def test_label_count_mismatch_rejected(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, _ = self.pretrained(records, config)
        with pytest.raises(ValidationError):
            fine_tune_supervised(model, train_seqs, [NORMAL], epochs=1)

    def test_scores_are_probabilities(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1)
        model, train_part, train_seqs, test_seqs = self.pretrained(records, config)
        classifier = fine_tune_supervised(model, train_seqs,
                                          [r.label for r in train_part],
                                          epochs=1)
        calls, scores = classify_supervised(classifier, test_seqs)
        assert len(calls) == len(scores) == len(test_seqs)
        for call, score in zip(calls, scores):
            assert 0.0 <= score <= 1.0
            assert call == (ANOMALY if score > 0.5 else NORMAL)


class TestSupervisedStudy:
    def test_learns_the_anomaly_signature(self):
        # fine-tuning needs a hotter optimizer than pretraining at this
        # corpus size: batch 8 gives 5 steps per epoch instead of 3
        records = signature_corpus()
        config = study_config(epochs_unsupervised=3, epochs_finetune=6,
                              learning_rate=1e-2, batch_size=8)
        metrics, verdicts = run_supervised_study(records, config)
        assert metrics.f1 == 1.0
        assert metrics.accuracy == 1.0
        assert [v.line_id for v in verdicts] == list(range(41, 51))

    def test_verdict_fraction_is_the_anomaly_score(self):
        records = signature_corpus()
        config = study_config(epochs_unsupervised=1, epochs_finetune=2)
        _, verdicts = run_supervised_study(records, config)
        for v in verdicts:
            assert 0.0 <= v.fraction <= 1.0
            assert v.verdict == (ANOMALY if v.fraction > 0.5 else NORMAL)


class TestSweepDeltas:
    def test_grid_is_nine_thresholds(self):
        assert DELTA_GRID == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_sweep_scores_each_threshold(self):
        fractions = [0.0, 0.3, 0.6, 1.0]
        labels = [NORMAL, NORMAL, ANOMALY, ANOMALY]
        rows = sweep_deltas(fractions, labels)
        assert [delta for delta, _ in rows] == list(DELTA_GRID)
        by_delta = dict(rows)
        # 0.3 is not strictly above 0.3, so the middle band is clean
        assert by_delta[0.3].f1 == 1.0
        assert by_delta[0.5].f1 == 1.0
        # at 0.1 the 0.3 fraction becomes a false alarm
        assert by_delta[0.1].precision == pytest.approx(2 / 3)
        assert by_delta[0.1].recall == 1.0
        # at 0.7 the 0.6 fraction is missed
        assert by_delta[0.7].recall == pytest.approx(0.5)

    def test_custom_grid(self):
        rows = sweep_deltas([0.2], [NORMAL], deltas=(0.25,))
        assert rows[0][0] == 0.25
        assert rows[0][1].accuracy == 1.0
