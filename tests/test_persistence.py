"""Tests for the binary model archive: round-trips, corruption handling,
and the exact byte layout."""
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from nulog.errors import ArchiveError, ValidationError
from nulog.masking import enumerate_masks
from nulog.model import Model, ModelConfig, train
from nulog.persistence import MAGIC, VERSION, load_model, save_model
from nulog.tokenizer import (build_vocabulary, compile_filter,
                             compute_frame_length, frame, tokenize)

PATTERN = compile_filter(r"([ ])")


def tiny_corpus():
    texts = ["alpha beta 11", "alpha beta 22", "gamma delta off", "gamma on"]
    token_lists = [tokenize(t, PATTERN) for t in texts]
    vocab = build_vocabulary(token_lists)
    frame_length = compute_frame_length(token_lists)
    seqs = [frame(toks, frame_length, vocab, message_index=i)
            for i, toks in enumerate(token_lists)]
    return seqs, vocab, frame_length


@pytest.fixture(scope="module")
def trained():
    seqs, vocab, frame_length = tiny_corpus()
    config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                         d=8, heads=2, ffn_hidden=16, epochs=2, batch_size=4,
                         seed=7)
    return train(seqs, config, vocab=vocab), seqs


def expected_file_size(model: Model) -> int:
    """Independent tally of the archive layout, field by field."""
    size = 4 + 4  # magic, version
    size += 9 * 4  # config scalars
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

    def test_config_and_vocab_survive(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab.tokens() == model.vocab.tokens()

    def test_predictions_survive(self, trained, tmp_path):
        model, seqs = trained
        path = tmp_path / "model.nulog"
        save_model(model, path)
        loaded = load_model(path)
        samples = enumerate_masks(seqs[0])
        assert np.array_equal(model.predict_masked_batch(samples),
                              loaded.predict_masked_batch(samples))

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
        offset = 4 + 4 + 9 * 4
        count = struct.unpack_from("<I", blob, offset)[0]
        assert count == len(model.vocab)
        offset += 4
        first_len = struct.unpack_from("<I", blob, offset)[0]
        first = blob[offset + 4:offset + 4 + first_len].decode("utf-8")
        assert first == "<CLS>"


class TestSaveValidation:
    def test_model_without_vocab_rejected(self, tmp_path):
        config = ModelConfig(vocab_size=10, frame_length=4, d=8, heads=2,
                             ffn_hidden=16)
        with pytest.raises(ValidationError):
            save_model(Model(config), tmp_path / "m.nulog")

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        seqs, vocab, frame_length = tiny_corpus()
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=8, heads=2, ffn_hidden=16)
        model = Model(config, vocab=vocab)
        vocab.add("brand-new-token")
        with pytest.raises(ValidationError):
            save_model(model, tmp_path / "m.nulog")

    def test_config_scalar_beyond_u32_rejected(self, tmp_path):
        seqs, vocab, frame_length = tiny_corpus()
        config = ModelConfig(vocab_size=len(vocab), frame_length=frame_length,
                             d=8, heads=2, ffn_hidden=16, seed=2 ** 32)
        with pytest.raises(ValidationError, match="seed"):
            save_model(Model(config, vocab=vocab), tmp_path / "m.nulog")


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
