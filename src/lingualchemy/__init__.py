"""Typology-regularized multilingual text classification, desk scale.

A small numpy-only stack: a reverse-mode autodiff engine, a from-scratch
transformer encoder, an auxiliary linguistic-vector loss with constant and
dynamic weighting, a representation-alignment fitter, a synthetic
multilingual corpus generator, and an experiment harness with a CLI.
"""

from .alchemy import (AlchemyModel, AlchemyScale, AlchemyTune, ConstantScaling,
                      LossBreakdown, combine_losses, init_alchemy_model,
                      project_to_uriel, train_loop, train_step, uriel_loss)
from .alignment import (AlignmentFit, ClosedForm, GradientDescent,
                        SentenceRepSet, align_representations,
                        collect_sentence_reps, fit_alignment, r_squared)
from .autodiff import AdamW, Tensor, backward, load_checkpoint, save_checkpoint
from .encoder import EncoderConfig, TokenBatch, encode_cls, init_encoder_params
from .errors import ConfigError, DataError, NumericError, UnknownLanguageError
from .harness import (ExperimentConfig, MetricsReport, ablation_sweep,
                      accuracy, export_report, family_split_experiment,
                      parse_config, run_experiment, scaling_sweep,
                      serialize_config)
from .synthlang import (Corpus, SynthLanguageSpec, Vocab, generate_corpus,
                        generate_languages, read_corpus_tsv, tokenize,
                        unk_rate, write_corpus_tsv)
from .uriel import (ALL_FEATURE_SETS, FeatureSet, UrielStore, load_uriel_tsv,
                    write_uriel_tsv)

__version__ = "0.1.0"
