"""Encoder construction, forward semantics, and the training loop."""
import hashlib
import math

import numpy as np
import pytest

from nulog import masking, numerics
from nulog.errors import ShapeError, ValidationError
from nulog.model import Model, ModelConfig, positional_encoding, train
from nulog.numerics import Tensor, cross_entropy, finite_difference_check
from nulog.tokenizer import (CLS_ID, build_vocabulary, compute_frame_length,
                             frame, tokenize, WHITESPACE_FILTER)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=20, frame_length=6, d=8, heads=2, ffn_hidden=16,
                blocks=1, epochs=1, batch_size=4, seed=7)
    base.update(overrides)
    return ModelConfig(**base)


def build_corpus(messages, frame_length=None):
    token_lists = [tokenize(m, WHITESPACE_FILTER) for m in messages]
    vocab = build_vocabulary(token_lists)
    if frame_length is None:
        frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    return seqs, vocab, frame_length


def two_template_messages(n_per=40, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_per):
        out.append(f"Opened session s{rng.integers(10_000, 99_999)} ok")
        out.append(f"Dropped packet on port p{rng.integers(10_000, 99_999)}")
    return out


def head_columns(model, block, kind, h):
    """Head h's (d, w) column block of a block's wq, wk or wv matrix."""
    w = model.config.head_width
    return model.params[f"block{block}.{kind}"].data[:, h * w:(h + 1) * w]


class TestModelConfig:
    def test_heads_must_divide_dimension(self):
        with pytest.raises(ValidationError):
            tiny_config(d=10, heads=4)

    def test_positive_dims_required(self):
        with pytest.raises(ValidationError):
            tiny_config(d=0)
        with pytest.raises(ValidationError):
            tiny_config(vocab_size=-1)

    def test_head_width(self):
        assert tiny_config(d=8, heads=2).head_width == 4

    def test_defaults(self):
        config = ModelConfig(vocab_size=10, frame_length=5)
        assert (config.d, config.heads, config.ffn_hidden, config.blocks) == \
            (256, 4, 512, 1)
        assert (config.epochs, config.batch_size, config.seed) == (5, 32, 7)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        enc = positional_encoding(3, 6)
        assert np.allclose(enc[0, 0::2], 0.0)
        assert np.allclose(enc[0, 1::2], 1.0)

    def test_position_one_first_column_is_sin_one(self):
        enc = positional_encoding(4, 8)
        assert math.isclose(float(enc[1, 0]), math.sin(1.0), rel_tol=1e-6)

    def test_each_index_keeps_its_own_exponent(self):
        d = 8
        enc = positional_encoding(3, d, dtype=np.float64)
        j, i = 2, 3  # odd index uses cos with exponent i/d, not (i-1)/d
        expected = math.cos(j / 10000 ** (i / d))
        assert math.isclose(float(enc[j, i]), expected, rel_tol=1e-12)

    def test_shape_and_range(self):
        enc = positional_encoding(7, 10)
        assert enc.shape == (7, 10)
        assert np.all(np.abs(enc) <= 1.0 + 1e-6)


class TestInitialisation:
    def test_layout_follows_parameter_shapes(self):
        config = tiny_config(blocks=2)
        model = Model(config, head_out=2)
        shapes = Model.parameter_shapes(config, head_out=2)
        assert list(model.params) == list(shapes)
        assert all(model.params[n].data.shape == shape for n, shape in shapes.items())

    def test_norms_start_as_identity(self):
        model = Model(tiny_config(blocks=2))
        for name, tensor in model.params.items():
            if name.endswith("_norm.gain"):
                assert np.all(tensor.data == 1.0)
            elif name.endswith("_norm.bias"):
                assert np.all(tensor.data == 0.0)

    def test_seeded_draws_are_pinned(self):
        # digest of every name and value of a seed-7 model; it changes when
        # the draw order does, and with it every archive trained from a seed
        model = Model(tiny_config(blocks=2))
        digest = hashlib.sha256()
        for name, tensor in model.params.items():
            digest.update(name.encode() + b"\0" + tensor.data.tobytes())
        assert digest.hexdigest() == \
            "1cd626bae581063d2b822f3c8c646bb09625403b7f288096db6fe4ac728bc5f6"

    def test_projection_columns_hold_the_per_head_draws(self):
        # a seed draws what it drew when each head had its own (d, w)
        # matrices: tok_emb, then head 0 wq, wk, wv, head 1, ..., then ffn.w1
        config = tiny_config(heads=4)
        H, w, d = config.heads, config.head_width, config.d
        model = Model(config)
        rng = np.random.default_rng(config.seed)
        rng.uniform(-0.1, 0.1, size=(config.vocab_size, d))
        draws = [rng.uniform(-0.1, 0.1, size=(d, w)).astype(np.float32)
                 for _ in range(3 * H)]
        for h in range(H):
            for k, kind in enumerate(("wq", "wk", "wv")):
                assert np.array_equal(head_columns(model, 0, kind, h), draws[3 * h + k])
        ffn_w1 = rng.uniform(-0.1, 0.1, size=(d, config.ffn_hidden)).astype(np.float32)
        assert np.array_equal(model.params["block0.ffn.w1"].data, ffn_w1)


class TestEmbed:
    def test_zero_embeddings_give_positional_rows(self):
        config = tiny_config()
        model = Model(config, params={name: np.zeros(shape, dtype=np.float32)
                                      for name, shape in Model.parameter_shapes(config).items()})
        ids = np.zeros((1, 6), dtype=np.int64)
        out = model.embed(ids)
        assert np.allclose(out.data[0], model.positional)

    def test_shared_prefix_shares_rows(self):
        model = Model(tiny_config())
        a = model.embed(np.array([[0, 4, 5, 2, 2, 2]])).data[0]
        b = model.embed(np.array([[0, 4, 6, 2, 2, 2]])).data[0]
        assert np.allclose(a[:2], b[:2])
        assert not np.allclose(a[2], b[2])

    def test_hand_added_first_row(self):
        model = Model(tiny_config())
        out = model.embed(np.array([[3, 2, 2, 2, 2, 2]])).data[0, 0]
        expected = model.params["tok_emb"].data[3] + model.positional[0]
        assert np.allclose(out, expected)

    def test_out_of_range_id_rejected(self):
        model = Model(tiny_config())
        with pytest.raises(IndexError):
            model.embed(np.array([[99, 0, 0, 0, 0, 0]]))

    # one id narrower or wider than the frame, one id (which would
    # broadcast against the positional rows), and an unbatched frame
    @pytest.mark.parametrize("shape", [(2, 5), (2, 7), (2, 1), (6,)])
    def test_ids_of_another_shape_rejected(self, shape):
        model = Model(tiny_config())
        with pytest.raises(ShapeError, match=r"\(B, 6\) frame ids"):
            model.embed(np.zeros(shape, dtype=np.int64))


class TestAttention:
    def test_zero_query_key_gives_column_mean_of_values(self):
        model = Model(tiny_config(heads=2))
        model.params["block0.wq"].data[:] = 0.0
        model.params["block0.wk"].data[:] = 0.0
        x = Tensor(np.random.default_rng(0).normal(size=(1, 6, 8))
                   .astype(np.float32))
        out = model.attention(x, 0).data[0]
        values = [x.data[0] @ head_columns(model, 0, "wv", h) for h in range(2)]
        expected = np.concatenate([np.repeat(v.mean(axis=0, keepdims=True),
                                             6, axis=0) for v in values],
                                  axis=1)
        assert np.allclose(out, expected, atol=1e-5)

    def test_single_position_attention_is_identity_on_values(self):
        model = Model(tiny_config(frame_length=1))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 8))
                   .astype(np.float32))
        out = model.attention(x, 0).data[0]
        expected = np.concatenate(
            [x.data[0] @ head_columns(model, 0, "wv", h) for h in range(2)], axis=1)
        assert np.allclose(out, expected, atol=1e-5)

    def test_attention_rows_sum_to_one(self):
        model = Model(tiny_config())
        rng = np.random.default_rng(2)
        collected = []
        x = model.embed(rng.integers(0, 20, size=(3, 6)))
        model.encoder_forward(x, collect_attention=collected)
        assert collected, "no attention maps recorded"
        for weights in collected:
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def per_head_attention(model, x, block, query):
    """The attention formula head by head: project q, k and v, take
    softmax(q k^T / sqrt(w)) v, then concatenate the heads."""
    config, outputs, weights = model.config, [], []
    for h in range(config.heads):
        def param(kind):
            return head_columns(model, block, kind, h)
        q, k, v = query @ param("wq"), x @ param("wk"), x @ param("wv")
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(config.head_width)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights.append(e / e.sum(axis=-1, keepdims=True))
        outputs.append(weights[-1] @ v)
    return np.concatenate(outputs, axis=-1), weights


class TestReassociatedAttention:
    """attention scores (q wk^T) x^T and outputs (p x) wv; in float64 that
    must equal the per-head formula that forms keys and values."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("cls_query", [False, True])
    def test_equals_the_per_head_formula(self, heads, cls_query):
        model = Model(tiny_config(heads=heads, blocks=2),
                      rng=np.random.default_rng(heads), dtype=np.float64)
        x = Tensor(np.random.default_rng(10 + heads).normal(size=(3, 6, 8)))
        query = numerics.first_row(x, keep_rows=True) if cls_query else x
        for block in (0, 1):
            out = model.attention(x, block, query=query).data
            expected, _ = per_head_attention(model, x.data, block, query.data)
            assert out.shape == query.data.shape
            assert np.max(np.abs(out - expected)) <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_forward_logits_equal_the_per_head_formula(self, blocks, monkeypatch):
        config = tiny_config(heads=4, blocks=blocks)
        model = Model(config, rng=np.random.default_rng(0), dtype=np.float64)
        ids = np.random.default_rng(1).integers(0, config.vocab_size, size=(5, 6))
        logits = model.forward_logits(ids).data

        def reference(x, block, collect=None, query=None):
            query = x if query is None else query
            return Tensor(per_head_attention(model, x.data, block, query.data)[0])

        monkeypatch.setattr(model, "attention", reference)
        expected = model.forward_logits(ids).data
        assert np.max(np.abs(logits - expected)) <= 1e-12

    def test_collects_one_head_major_array_per_block(self):
        config = tiny_config(heads=4, blocks=2)
        model = Model(config, rng=np.random.default_rng(0), dtype=np.float64)
        x = model.embed(np.random.default_rng(1).integers(0, 20, size=(3, 6)))
        collected = []
        model.encoder_forward(x, collect_attention=collected)
        assert len(collected) == 2
        for weights in collected:
            assert weights.shape == (3, 4 * 6, 6)
            assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        _, expected = per_head_attention(model, x.data, 0, x.data)
        for h in range(4):
            assert np.allclose(collected[0][:, h * 6:(h + 1) * 6], expected[h],
                               atol=1e-12)


class TestEncoderForward:
    def test_shape_preserved(self):
        for blocks in (1, 2):
            model = Model(tiny_config(blocks=blocks))
            x = model.embed(np.random.default_rng(0).integers(0, 20, (2, 6)))
            out = model.encoder_forward(x)
            assert out.data.shape == (2, 6, 8)

    def test_zero_ffn_reduces_to_normalized_attention_stage(self):
        model = Model(tiny_config())
        for name in ("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"):
            model.params[f"block0.{name}"].data[:] = 0.0
        x = model.embed(np.array([[0, 4, 5, 6, 2, 2]]))
        full = model.encoder_forward(x).data
        attended = model.attention(x, 0)
        stage1 = numerics.layer_norm_rows(numerics.add(x, attended),
                                          model.params["block0.attn_norm.gain"],
                                          model.params["block0.attn_norm.bias"])
        expected = numerics.layer_norm_rows(stage1,
                                            model.params["block0.ffn_norm.gain"],
                                            model.params["block0.ffn_norm.bias"])
        assert np.allclose(full, expected.data, atol=1e-6)

    def test_identical_inputs_identical_outputs(self):
        model = Model(tiny_config())
        ids = np.array([[0, 4, 5, 2, 2, 2]])
        a = model.encoder_forward(model.embed(ids)).data
        b = model.encoder_forward(model.embed(ids)).data
        assert np.array_equal(a, b)


class TestForwardLogits:
    """forward_logits works out the last block for the CLS row only; that
    must give what the full encoder gives on row 0."""

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_equals_the_cls_row_of_the_full_encoder(self, blocks):
        config = tiny_config(blocks=blocks)
        model = Model(config, rng=np.random.default_rng(0), dtype=np.float64)
        ids = np.random.default_rng(1).integers(0, config.vocab_size, size=(5, 6))
        cls = numerics.first_row(model.encoder_forward(model.embed(ids)))
        expected = cls.data @ model.params["head.w"].data + model.params["head.b"].data
        logits = model.forward_logits(ids).data
        assert logits.shape == (5, config.vocab_size)
        assert np.max(np.abs(logits - expected)) <= 1e-12

    def test_two_block_finite_difference(self):
        config = tiny_config(blocks=2)
        model = Model(config, rng=np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, config.vocab_size, size=(2, config.frame_length))
        ids[:, 0] = CLS_ID
        targets = rng.integers(0, config.vocab_size, size=2)

        def loss_fn():
            return cross_entropy(model.forward_logits(ids), targets)

        error = finite_difference_check(loss_fn, model.params)
        assert error <= 1e-5, f"gradient mismatch {error:.2e}"


class TestPredictMasked:
    def test_output_is_distribution(self):
        seqs, vocab, frame_length = build_corpus(["alpha beta gamma", "alpha beta"])
        config = tiny_config(vocab_size=len(vocab), frame_length=frame_length)
        model = Model(config, vocab=vocab)
        sample = masking.enumerate_masks(seqs[0])[1]
        probs = model.predict_masked_batch([sample])[0]
        assert probs.shape == (len(vocab),)
        assert np.all(probs >= 0)
        assert math.isclose(float(probs.sum()), 1.0, abs_tol=1e-6)

    def test_untrained_loss_near_log_vocab(self):
        seqs, vocab, frame_length = build_corpus(
            [f"msg number {i} with words w{i}" for i in range(30)])
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=0, seed=7)
        model = Model(config, vocab=vocab)
        samples = [masking.enumerate_masks(s)[0] for s in seqs]
        ids = np.stack([s.input_ids for s in samples])
        targets = np.array([s.target_id for s in samples])
        with numerics.no_grad():
            loss = float(cross_entropy(model.forward_logits(ids), targets).data)
        assert abs(loss - math.log(len(vocab))) < 0.1 * math.log(len(vocab))

    def test_constant_first_token_becomes_argmax_after_training(self):
        rng = np.random.default_rng(5)
        messages = [f"INFO event e{rng.integers(10_000, 99_999)} raised"
                    for _ in range(50)]
        seqs, vocab, frame_length = build_corpus(messages)
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=100,
                             batch_size=16, seed=7)
        model = train(seqs, config, vocab=vocab)
        sample = masking.enumerate_masks(seqs[0])[0]
        assert sample.position == 1
        probs = model.predict_masked_batch([sample])[0]
        assert int(np.argmax(probs)) == vocab.encode("INFO")


class TestTrain:
    def test_loss_decreases_on_two_template_corpus(self):
        seqs, vocab, frame_length = build_corpus(two_template_messages())
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=16, heads=2, ffn_hidden=32, epochs=8,
                             batch_size=16, seed=7)
        model = train(seqs, config, vocab=vocab)
        assert len(model.training_losses) == 8
        assert model.training_losses[-1] < model.training_losses[0]

    def test_zero_epochs_returns_initialization(self):
        seqs, vocab, frame_length = build_corpus(["a b c", "a b d"])
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=8, heads=2, ffn_hidden=16, epochs=0, seed=13)
        trained = train(seqs, config, vocab=vocab)
        reference = Model(config, vocab=vocab,
                          rng=np.random.default_rng(config.seed))
        for name in reference.params:
            assert np.array_equal(trained.params[name].data,
                                  reference.params[name].data)
        assert trained.training_losses == []

    def test_same_seed_gives_bitwise_identical_parameters(self):
        seqs, vocab, frame_length = build_corpus(two_template_messages(n_per=10))
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=8, heads=2, ffn_hidden=16, epochs=3,
                             batch_size=8, seed=21)
        a = train(seqs, config, vocab=vocab)
        b = train(seqs, config, vocab=vocab)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train([], tiny_config())


class TestFullModelGradient:
    def test_tiny_model_finite_difference(self):
        config = tiny_config()
        model = Model(config, rng=np.random.default_rng(0), dtype=np.float64)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, config.vocab_size, size=(2, config.frame_length))
        ids[:, 0] = CLS_ID
        targets = rng.integers(0, config.vocab_size, size=2)

        def loss_fn():
            return cross_entropy(model.forward_logits(ids), targets)

        error = finite_difference_check(loss_fn, model.params)
        assert error <= 1e-3, f"gradient mismatch {error:.2e}"
