"""The one stand-in model of the scoring tests: it answers (N, T) id arrays."""
import numpy as np

from nulog.model import ModelConfig


class ScoringStub:
    """Answers predict_masked_batch and predict_proba from answer, a fixed
    probability row or a function from an (N, T) id array to (N, V)
    probabilities, and records the ids of every predict_masked_batch call.

    chunk_rows reads the dims of like, a model; by default they give 7,680
    inputs per forward pass.
    """

    config = ModelConfig(vocab_size=1, frame_length=1)
    head_out = 1

    def __init__(self, answer, like=None):
        if not callable(answer):
            row = np.asarray(answer)
            answer = lambda ids: np.tile(row, (len(ids), 1))  # noqa: E731
        self.answer = answer
        if like is not None:
            self.config, self.head_out = like.config, like.head_out
        self.calls = []

    def predict_masked_batch(self, ids):
        self.calls.append(np.array(ids))
        return self.answer(ids)

    def predict_proba(self, ids):
        return self.answer(ids)

    @property
    def rows(self):
        """Rows per call, in call order."""
        return [len(ids) for ids in self.calls]

    @property
    def inputs(self):
        """Every scored masked input, as bytes."""
        return [row.tobytes() for ids in self.calls for row in ids]


def guesses_missing_constants(vocab_size, constant_ids):
    """A stub that puts most of its mass on the constant ids absent from the
    masked frame, equally, and spreads the rest evenly.

    So a masked constant ranks among the missing constants, and a masked
    variable ranks behind them and behind every smaller id.
    """
    constant = np.zeros(vocab_size, dtype=bool)
    constant[list(constant_ids)] = True

    def answer(ids):
        present = np.zeros((len(ids), vocab_size), dtype=bool)
        present[np.arange(len(ids))[:, None], ids] = True
        weights = np.where(constant & ~present, 1000.0, 1.0)
        return weights / weights.sum(axis=1, keepdims=True)

    return ScoringStub(answer)
