"""Tests for the binary model archive: round-trips, corruption handling,
and the exact byte layout."""
import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from nulog.errors import ArchiveError, ValidationError
from nulog.extraction import parse_corpus
from nulog.masking import enumerate_masks
from nulog.model import Model, ModelConfig, train
from nulog.persistence import MAGIC, VERSION, _Reader, load_model, save_model
from nulog.tokenizer import compile_filter, frame, tokenize

PATTERN = compile_filter(r"([ ])")
TOKEN_LISTS = [tokenize(t, PATTERN) for t in
               ["alpha beta 11", "alpha beta 22", "gamma delta off", "gamma on"]]


def untrained(**config) -> Model:
    return train(TOKEN_LISTS, ModelConfig(d=8, heads=2, ffn_hidden=16, epochs=0,
                                          **config))


@pytest.fixture(scope="module")
def trained():
    model = train(TOKEN_LISTS, ModelConfig(d=8, heads=2, ffn_hidden=16, epochs=2,
                                           batch_size=4, seed=7))
    seqs = [frame(toks, model.config.frame_length, model.vocab, message_index=i)
            for i, toks in enumerate(TOKEN_LISTS)]
    return model, seqs


def expected_file_size(model: Model) -> int:
    """Independent tally of the archive layout, field by field."""
    size = 4 + 4  # magic, version
    size += 10 * 4  # config scalars, epsilon last
    size += 4 + len(model.config.tokenization_filter.encode("utf-8"))
    size += 4  # vocab count
    for token in model.vocab.tokens():
        size += 4 + len(token.encode("utf-8"))
    size += 4  # tensor count
    for name in model.params:
        rows, cols = model.params[name].data.shape
        size += 4 + len(name.encode("utf-8")) + 4 + 4 + rows * cols * 4
    return size


class TestRoundTrip:
    def test_every_tensor_is_bitwise_identical(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            original = model.params[name].data
            restored = loaded.params[name].data
            assert restored.dtype == np.float32
            assert original.tobytes() == restored.tobytes()

    def test_each_tensor_is_its_own_copy_of_the_blob(self, trained, tmp_path):
        # the reader hands out views of the file's bytes, and load_model's
        # one copy per tensor gives each tensor its own writable memory
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        reader = _Reader(blob, path)
        assert reader.take(4).obj is blob
        loaded = load_model(path)
        for name in model.params:
            data = loaded.params[name].data
            assert data.flags.owndata and data.flags.writeable

    def test_config_and_vocab_survive(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        # min_count is a training setting the archive does not store
        assert loaded.config == dataclasses.replace(model.config, min_count=None)
        assert loaded.vocab.tokens() == model.vocab.tokens()

    def test_min_count_is_unknown_after_load(self, tmp_path):
        path = tmp_path / "model.nulog"
        save_model(untrained(min_count=1), path)
        loaded = load_model(path)
        # whatever k training used, the loaded config does not claim one
        assert loaded.config.min_count is None
        assert len(loaded.vocab) == 4 + 8
        with pytest.raises(ValidationError, match="min_count"):
            train(TOKEN_LISTS, loaded.config)

    def test_corpus_token_spelled_like_a_special_survives(self, tmp_path):
        token_lists = [["<PAD>", "up"], ["<MASK>", "down", "<PAD>"]]
        model = train(token_lists, ModelConfig(d=8, heads=2, ffn_hidden=16, epochs=0))
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab.tokens() == model.vocab.tokens()
        for tokens in token_lists:
            assert np.array_equal(frame(tokens, 5, loaded.vocab).framed_ids,
                                  frame(tokens, 5, model.vocab).framed_ids)
        assert loaded.vocab.encode("<PAD>") == 4

    def test_predictions_survive(self, trained, tmp_path):
        model, seqs = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        inputs = enumerate_masks(seqs[:1]).inputs
        assert np.array_equal(model.predict_masked_batch(inputs),
                              loaded.predict_masked_batch(inputs))

    def test_an_archive_of_the_old_default_dims_parses_as_before(self, tmp_path):
        # d 256 and FFN 512 were the defaults; the archive holds its own dims
        model = train(TOKEN_LISTS, ModelConfig(d=256, heads=4, ffn_hidden=512, epochs=1,
                                               batch_size=4, learning_rate=1e-3))
        path = tmp_path / "wide.nulog"
        save_model(model, path)
        loaded = load_model(path)
        assert (loaded.config.d, loaded.config.ffn_hidden) == (256, 512)
        seqs = [frame(toks, model.config.frame_length, model.vocab, message_index=i)
                for i, toks in enumerate(TOKEN_LISTS)]
        before = parse_corpus(model, seqs, model.config.epsilon)
        after = parse_corpus(loaded, seqs, loaded.config.epsilon)
        assert after == before

    def test_save_load_save_is_stable(self, trained, tmp_path):
        model, _ = trained
        first = tmp_path / "a.nulog"
        second = tmp_path / "b.nulog"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_two_way_head_round_trips(self, trained, tmp_path):
        model, _ = trained
        shapes = Model.parameter_shapes(model.config, head_out=2)
        params = {name: model.params[name].data.copy()
                  for name in shapes if not name.startswith("head.")}
        params["head.w"] = np.full(shapes["head.w"], 0.25, dtype=np.float32)
        params["head.b"] = np.full(shapes["head.b"], -0.5, dtype=np.float32)
        classifier = Model(model.config, vocab=model.vocab, params=params,
                           head_out=2)
        path = tmp_path / "classifier.nulog"
        save_model(classifier, path)
        loaded = load_model(path)
        assert loaded.params["head.w"].data.shape == (model.config.d, 2)
        assert loaded.params["head.b"].data.shape == (1, 2)
        for name in classifier.params:
            assert np.array_equal(loaded.params[name].data,
                                  classifier.params[name].data)


class TestLayout:
    def test_file_size_matches_field_arithmetic(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        assert path.stat().st_size == expected_file_size(model)

    def test_header_fields_in_order(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        version, d, heads = struct.unpack_from("<III", blob, 4)
        assert version == VERSION
        assert d == model.config.d
        assert heads == model.config.heads

    def test_vocab_section_is_length_prefixed_utf8(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        offset = 4 + 4 + 10 * 4
        offset += 4 + struct.unpack_from("<I", blob, offset)[0]  # the filter
        count = struct.unpack_from("<I", blob, offset)[0]
        assert count == len(model.vocab)
        offset += 4
        first_len = struct.unpack_from("<I", blob, offset)[0]
        first = blob[offset + 4:offset + 4 + first_len].decode("utf-8")
        assert first == "<CLS>"


    def test_epsilon_then_filter_follow_the_nine_scalars(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        epsilon, length = struct.unpack_from("<II", blob, 4 + 4 + 9 * 4)
        assert epsilon == model.config.epsilon == 50
        start = 4 + 4 + 10 * 4 + 4
        assert blob[start:start + length].decode("utf-8") == r"([ ])"


class TestParseSettings:
    @pytest.mark.parametrize("epsilon", [1, 2 ** 32 - 1])
    def test_filter_and_epsilon_round_trip_byte_for_byte(self, trained, tmp_path,
                                                        epsilon):
        model, _ = trained
        config = dataclasses.replace(
            model.config, tokenization_filter=r"([ |:|=|\(|\)])|(µs)", epsilon=epsilon)
        changed = Model(config, vocab=model.vocab,
                        params={name: t.data for name, t in model.params.items()})
        first, second = tmp_path / "a.nulog", tmp_path / "b.nulog"
        save_model(changed, first)
        loaded = load_model(first)
        assert loaded.config == dataclasses.replace(changed.config, min_count=None)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("keep", [1, 4])
    def test_archive_cut_inside_the_filter_is_truncated(self, trained, tmp_path,
                                                        keep):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(path.read_bytes()[:4 + 4 + 10 * 4 + 4 + keep])
        with pytest.raises(ArchiveError, match="truncated"):
            load_model(bad)

    def test_filter_that_does_not_compile_is_an_archive_error(self, trained,
                                                              tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        start = 4 + 4 + 10 * 4 + 4
        assert blob[start:start + 5] == b"([ ])"
        path.write_bytes(blob[:start] + b"([ ](" + blob[start + 5:])
        with pytest.raises(ArchiveError, match="tokenization filter"):
            load_model(path)

    def test_epsilon_zero_is_rejected(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        blob = path.read_bytes()
        at = 4 + 4 + 9 * 4
        path.write_bytes(blob[:at] + struct.pack("<I", 0) + blob[at + 4:])
        with pytest.raises(ArchiveError, match="epsilon must be positive"):
            load_model(path)


class TestSaveValidation:
    def test_model_without_vocab_rejected(self, tmp_path):
        config = ModelConfig(vocab_size=10, frame_length=4, d=8, heads=2,
                             ffn_hidden=16)
        with pytest.raises(ValidationError):
            save_model(Model(config), tmp_path / "m.nulog")

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        model = untrained()
        model.vocab.add("brand-new-token")
        with pytest.raises(ValidationError):
            save_model(model, tmp_path / "m.nulog")

    def test_config_scalar_beyond_u32_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="seed"):
            save_model(untrained(seed=2 ** 32), tmp_path / "m.nulog")


class TestLoadValidation:
    def archive(self, trained, tmp_path) -> bytes:
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        return path.read_bytes()

    def test_wrong_magic(self, trained, tmp_path):
        blob = self.archive(trained, tmp_path)
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(ArchiveError, match="magic"):
            load_model(bad)

    def test_newer_version(self, trained, tmp_path):
        blob = self.archive(trained, tmp_path)
        bad = tmp_path / "bad.nulog"
        for version in (VERSION + 1, 1, 0):
            bad.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
            with pytest.raises(ArchiveError, match="version"):
                load_model(bad)

    @pytest.mark.parametrize("keep", [0, 3, 7, 30, 50])
    def test_truncated_prefix(self, trained, tmp_path, keep):
        blob = self.archive(trained, tmp_path)
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(blob[:keep])
        with pytest.raises(ArchiveError, match="truncated|magic"):
            load_model(bad)

    def test_truncated_tail(self, trained, tmp_path):
        blob = self.archive(trained, tmp_path)
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(blob[:-5])
        with pytest.raises(ArchiveError, match="truncated"):
            load_model(bad)

    def test_corrupt_tensor_shape(self, trained, tmp_path):
        # a doctored head bias: stored shape disagrees with the config
        model, _ = trained
        original = model.params["head.b"].data
        model.params["head.b"].data = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "bad.nulog"
        try:
            save_model(model, path)
        finally:
            model.params["head.b"].data = original
        with pytest.raises(ValidationError, match="head.b"):
            load_model(path)

    def test_corrupt_specials(self, trained, tmp_path):
        blob = self.archive(trained, tmp_path)
        marker = struct.pack("<I", 5) + b"<CLS>"
        assert marker in blob
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(blob.replace(marker, struct.pack("<I", 5) + b"<XLS>", 1))
        with pytest.raises(ValidationError, match="special"):
            load_model(bad)

    def test_bytes_after_the_last_tensor(self, trained, tmp_path):
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(self.archive(trained, tmp_path) + b"GARBAGE")
        with pytest.raises(ArchiveError, match="7 bytes follow the last tensor"):
            load_model(bad)

    def test_repeated_tensor(self, trained, tmp_path):
        # head.b is the last record; store it a second time and count it
        blob = self.archive(trained, tmp_path)
        head_b = blob.rindex(struct.pack("<I", 6) + b"head.b")
        count_at = blob.index(struct.pack("<I", 7) + b"tok_emb") - 4
        (count,) = struct.unpack_from("<I", blob, count_at)
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(blob[:count_at] + struct.pack("<I", count + 1)
                        + blob[count_at + 4:] + blob[head_b:])
        with pytest.raises(ArchiveError, match="head.b is stored twice"):
            load_model(bad)

    def test_repeated_vocabulary_token(self, tmp_path):
        # min_count 1 gives the once-seen token 22 an id
        blob = self.archive((untrained(min_count=1), None), tmp_path)
        marker = struct.pack("<I", 2) + b"22"
        assert marker in blob
        bad = tmp_path / "bad.nulog"
        bad.write_bytes(blob.replace(marker, struct.pack("<I", 2) + b"11", 1))
        with pytest.raises(ArchiveError, match="'11' is stored twice"):
            load_model(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.nulog")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nulog"
        path.write_bytes(b"")
        with pytest.raises(ArchiveError):
            load_model(path)


def test_readme_states_the_archive_format_version():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"format version (\d+)", readme)
    assert stated, "README does not state the archive format version"
    assert all(int(v) == VERSION for v in stated), stated
