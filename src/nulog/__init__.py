"""Self-supervised log parsing: masked-token template extraction with a
small transformer encoder, plus evaluation and anomaly case studies.
"""
from .anomaly import (AnomalyConfig, DetectionMetrics, Verdict, compute_metrics,
                      fine_tune_supervised, run_supervised_study,
                      run_unsupervised_study, sweep_deltas,
                      token_anomaly_fraction, unsupervised_classify)
from .errors import (ArchiveError, ConfigError, NulogError, SchemaError,
                     ShapeError, StaleGradientError, ValidationError)
from .evaluation import (levenshtein, mean_template_edit_distance,
                         normalize_template, parsing_accuracy,
                         robustness_summary, whole_message_edit_distance)
from .extraction import (PLACEHOLDER, ParsedMessage, constant_mask,
                         extract_template, is_constant, parse_corpus)
from .ingest import (ANOMALY, NORMAL, DatasetConfig, LogRecord,
                     load_config, load_labeled_bgl, load_loghub_csv)
from .masking import MaskedSample, enumerate_masks, sample_random_mask
from .model import Model, ModelConfig, positional_encoding, train
from .persistence import load_model, save_model
from .tokenizer import (CLS_ID, MASK_ID, PAD_ID, UNK_ID, TokenSequence,
                        Vocabulary, build_vocabulary, compile_filter,
                        compute_frame_length, frame, tokenize)

__version__ = "1.0.0"
