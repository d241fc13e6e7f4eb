"""Plain-loop references for bitwise comparison: Adam written out per
tensor, and tokenization as a loop over filter matches."""
import re

import numpy as np

from nulog.numerics import Tensor


class ReferenceAdam:
    """Adam written out per tensor, each update on its own arrays."""

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3):
        self.lr, self.b1, self.b2, self.eps = learning_rate, 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1, bc2 = 1.0 - self.b1 ** self.t, 1.0 - self.b2 ** self.t
        for name, w in weights.items():
            g = grads[name]
            self.m[name] = self.m[name] * self.b1 + (1.0 - self.b1) * g
            self.v[name] = self.v[name] * self.b2 + (1.0 - self.b2) * np.square(g)
            w -= (self.lr / bc1) * self.m[name] / (np.sqrt(self.v[name] / bc2) + self.eps)


def tokenize_loop(content: str, rx: re.Pattern) -> list[str]:
    """tokenize written as a loop over the filter's matches: the text
    between one match and the next, empty fragments dropped."""
    tokens: list[str] = []
    last = 0
    for m in rx.finditer(content):
        if m.start() > last:
            tokens.append(content[last:m.start()])
        last = max(last, m.end())
    if last < len(content):
        tokens.append(content[last:])
    return tokens
