"""The benchmark's hooks still find the names they wrap in nulog.

perfbench/layers.py wraps nulog functions under the names their callers
look them up by; a wrapper whose name is gone is listed in
Tracer.missing and its metrics read 0. These tests import the benchmark
read-only and fail when a refactor blinds one more hook.
"""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names the traced run already reports as "not found in nulog"
KNOWN_MISSING = {
    "nulog.cli.build_vocabulary",
    "nulog.cli.compute_frame_length",
    "nulog.anomaly.build_vocabulary",
    "nulog.anomaly.compute_frame_length",
    "nulog.numerics.concat_cols",
    "nulog.extraction.extract_template",
    "nulog.anomaly.token_anomaly_fraction",
    "nulog.masking.sample_random_mask",
}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def missing_after_instrument(layers, full: bool) -> list[str]:
    tracer = layers.Tracer()
    try:
        layers.instrument(tracer, full=full)
    finally:
        tracer.restore()
    return tracer.missing


def test_untraced_hooks_all_found(layers):
    # failed_share and train_final_loss read cli.frame, anomaly.frame,
    # cli.train and anomaly.train
    assert missing_after_instrument(layers, full=False) == []


def test_traced_hooks_miss_only_the_known_names(layers):
    assert set(missing_after_instrument(layers, full=True)) <= KNOWN_MISSING
