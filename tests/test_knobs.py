"""No knobs that no entry point reaches.

The values below are fixed in the module that uses them: no CLI flag, config
key or benchmark call sets them, so no constructor or function takes them
either. A parameter that comes back here has to come back with an entry
point that sets it.
"""

import inspect
from dataclasses import fields

import pytest

from lingualchemy import autodiff as ad
from lingualchemy import cli, encoder
from lingualchemy.alchemy import AlchemyScale, AlchemyTune, init_alchemy_model
from lingualchemy.alignment import GradientDescent
from lingualchemy.autodiff import AdamW, Tensor
from lingualchemy.errors import ConfigError
from lingualchemy.harness import (Benchmark, ExperimentConfig, cached_batches,
                                  make_token_batch, parse_config,
                                  svg_bar_chart, svg_line_chart)
from lingualchemy.synthlang import generate_corpus, read_corpus_tsv

FIXED = [
    (AdamW, {"betas", "eps"}),
    (AlchemyScale, {"decay", "update_period", "ema_cls", "ema_uriel",
                    "lambda_cls", "lambda_uriel", "step"}),
    (AlchemyTune, {"raw_cls", "raw_uriel"}),
    (ad.layer_norm, {"eps"}),
    (GradientDescent, {"lr", "iters", "seed", "clip_norm"}),
    (svg_bar_chart, {"width", "height"}),
    (svg_line_chart, {"width", "height"}),
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
