"""No knobs that no entry point reaches.

The values below are fixed in the module that uses them: no CLI flag, config
key or benchmark call sets them, so no constructor or function takes them
either. A parameter that comes back here has to come back with an entry
point that sets it.
"""

import argparse
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import lingualchemy
from lingualchemy import alchemy, cli, encoder, harness
from lingualchemy import autodiff as ad
from lingualchemy.alchemy import AlchemyScale, AlchemyTune, init_alchemy_model
from lingualchemy.alignment import GradientDescent
from lingualchemy.autodiff import AdamW, Tensor
from lingualchemy.errors import ConfigError
from lingualchemy.harness import (Benchmark, ExperimentConfig, cached_batches,
                                  make_token_batch, parse_config,
                                  svg_bar_chart)
from lingualchemy.synthlang import Vocab, generate_corpus, read_corpus_tsv
from lingualchemy.uriel import FeatureSet, UrielStore

FIXED = [
    (AdamW, {"betas", "eps"}),
    (AlchemyScale, {"decay", "update_period", "ema_cls", "ema_uriel",
                    "lambda_cls", "lambda_uriel", "step"}),
    (AlchemyTune, {"raw_cls", "raw_uriel"}),
    (ad.layer_norm, {"eps"}),
    (GradientDescent, {"lr", "iters", "seed", "clip_norm"}),
    (svg_bar_chart, {"width", "height"}),
    (Tensor, {"dtype"}),
    # classification is the only task
    (init_alchemy_model, {"task"}),
    (generate_corpus, {"task"}),
    (read_corpus_tsv, {"task"}),
    (make_token_batch, {"task"}),
    (cached_batches, {"task"}),
]


class TestFixedValues:
    @pytest.mark.parametrize("target, names", FIXED,
                             ids=[t.__name__ for t, _ in FIXED])
    def test_not_a_parameter(self, target, names):
        assert set(inspect.signature(target).parameters) & names == set()

    @pytest.mark.parametrize("cls", [AlchemyScale, AlchemyTune])
    def test_scaling_state_is_built_without_arguments(self, cls):
        assert [f.name for f in fields(cls) if f.init] == []
        with pytest.raises(TypeError):
            cls(0.5)

    def test_benchmark_has_no_families_field(self):
        assert "families" not in {f.name for f in fields(Benchmark)}

    def test_encoder_config_has_no_defaults(self):
        # the architecture's defaults live in ExperimentConfig alone
        assert [f.name for f in fields(encoder.EncoderConfig)
                if f.default is not MISSING] == []


class TestOneCellRunner:
    """The sweeps and the family split run their cells through
    ``harness._run_cells``, the one place that starts a process pool."""

    def test_family_split_takes_the_config_alone(self):
        assert list(inspect.signature(harness.family_split_experiment)
                    .parameters) == ["cfg"]
        assert not hasattr(harness, "_run_group")

    def test_one_process_pool_in_the_package(self):
        sources = Path(harness.__file__).parent.glob("*.py")
        assert sum(path.read_text(encoding="utf-8").count("ProcessPoolExecutor(")
                   for path in sources) == 1


class TestOneReportPath:
    """Both sweep commands report through one CLI writer, and every chart is
    a ``svg_bar_chart``."""

    @pytest.mark.parametrize("name", ["svg_line_chart", "_svg_document"])
    def test_one_chart_function(self, name):
        assert not hasattr(harness, name)

    def test_one_sweep_writer(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        assert source.count("export_sweep(") == 1
        assert source.count("svg_bar_chart(") == 1


class TestOneReadPath:
    """A store value is read from ``langs``, ``values``/``observed`` or
    ``target_matrix``; AlchemyScale updates in its ``weights`` method; a
    report's per-language value is read from its ``rows``; and a run's
    vocabulary is built from its corpus by ``prepare_benchmark``, never
    written or read as a file."""

    @pytest.mark.parametrize("owner, name", [
        (UrielStore, "get_vector"), (UrielStore, "list_languages"),
        (UrielStore, "dims"), (FeatureSet, "is_geo"),
        (lingualchemy, "LinguisticVector"), (lingualchemy, "alchemy_scale_update"),
        (alchemy, "iterate_batches"), (harness.MetricsReport, "value"),
        (Vocab, "save"), (Vocab, "load"), (harness, "VOCAB_NAME")])
    def test_second_path_is_gone(self, owner, name):
        assert not hasattr(owner, name)


class TestEqualShapeBinaryOps:
    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    @pytest.mark.parametrize("shapes", [((2,), ()), ((), (2,))])
    def test_scalar_operand_rejected(self, op, shapes):
        a, b = (Tensor([1.0, 2.0] if s else 2.0) for s in shapes)
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(a, b)

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_float_is_a_0d_operand(self, op):
        x = Tensor(3.0, requires_grad=True)
        ad.backward(op(x, -2.0))
        assert x.grad == (1.0 if op is ad.add else -2.0)
        with pytest.raises(ValueError, match="incompatible shapes"):
            op(Tensor([1.0, 2.0]), -2.0)


class TestOneTaskOneRepresentation:
    def test_config_has_no_task(self, tmp_path):
        assert "task" not in {f.name for f in fields(ExperimentConfig)}
        path = tmp_path / "exp.cfg"
        path.write_text("task = classification\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key 'task'"):
            parse_config(path)

    @pytest.mark.parametrize("name", ["encoder_forward", "pool_mean_masked",
                                      "pool_cls"])
    def test_encoder_has_one_forward(self, name):
        assert not hasattr(encoder, name)


class TestOneHomePerRule:
    def test_generate_corpus_builds_no_vocabulary(self):
        assert "vocab_langs" not in inspect.signature(generate_corpus).parameters

    @pytest.mark.parametrize("name", ["write_corpus_tsv", "write_uriel_tsv"])
    def test_cli_writes_no_data_file_itself(self, name):
        assert not hasattr(cli, name)


class TestNoLayoutSwitch:
    """The encoder has one row layout: no parameter, config key or flag
    selects packed or padded states."""

    def test_encode_cls_takes_config_params_batch(self):
        assert list(inspect.signature(encoder.encode_cls).parameters) == [
            "cfg", "params", "batch"]

    def test_config_fields_pinned(self):
        assert [f.name for f in fields(ExperimentConfig)] == [
            "feature_sets", "scaling", "factor", "epochs", "batch_size", "lr",
            "weight_decay", "seeds", "d_model", "n_layers", "n_heads",
            "max_seq_len", "seen", "unseen", "family_groups", "categories",
            "n_langs", "n_families", "n_per_lang", "n_classes", "gen_seed",
            "store_dir", "corpus", "out_dir", "threads"]

    def test_cli_flags_pinned(self):
        parser = cli.build_parser()
        flags = {"": [o for a in parser._actions for o in a.option_strings]}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                flags.update({name: [o for a in sub._actions for o in a.option_strings]
                              for name, sub in action.choices.items()})
        run_dir = ["-h", "--help", "--run-dir"]
        assert flags == {"": ["-h", "--help", "--config", "--seed", "--out",
                              "--threads"],
                         "gen": ["-h", "--help"], "train": ["-h", "--help"],
                         "eval": run_dir, "align": run_dir,
                         "sweep-scale": ["-h", "--help"],
                         "sweep-features": ["-h", "--help"],
                         "family-gen": ["-h", "--help"]}
