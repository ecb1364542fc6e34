import csv
import shutil
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lingualchemy.autodiff import load_checkpoint, save_checkpoint
from lingualchemy.cli import main
from lingualchemy.harness import ExperimentConfig

from conftest import BLUE, ORANGE, bar_fills

FAST_CFG = """\
[training]
epochs = 2
batch_size = 16
seeds = 1
[model]
d_model = 16
max_seq_len = 16
[generate]
n_langs = 6
n_families = 3
n_per_lang = 40
n_classes = 3
[paths]
threads = 1
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FAST_CFG, encoding="utf-8")
    return path


def run_cli(*argv):
    return main(list(argv))


def read_numeric_csv(path, labels, blank_ok=()):
    """The rows of a CSV whose every data cell after the first ``labels``
    columns parses as a plain number; columns in ``blank_ok`` may be empty."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        for col, cell in enumerate(row[labels:], start=labels):
            if not (col in blank_ok and cell == ""):
                float(cell)  # raises on anything but a plain number
    return rows


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One `train` run directory, shared read-only by the tests that need it."""
    base = tmp_path_factory.mktemp("trained")
    cfg = base / "exp.cfg"
    cfg.write_text(FAST_CFG + "feature_sets = syntax_knn\n", encoding="utf-8")
    assert run_cli("--config", str(cfg), "--out", str(base / "run"),
                   "train") == 0
    return base / "run"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n", encoding="utf-8")
        assert run_cli("--config", str(bad), "train") == 2

    @pytest.mark.parametrize("line, message", [
        ("seen = syn00,syn01,syn00", "seen repeats syn00"),
        ("unseen = syn00,syn01,syn02,syn03,syn04,syn05",
         "no language of the default seen split")], ids=["repeat", "no_seen"])
    def test_repeat_or_empty_default_seen_is_2(self, tmp_path, cfg_file,
                                                capsys, line, message):
        cfg_file.write_text(FAST_CFG + line + "\n", encoding="utf-8")
        assert run_cli("--config", str(cfg_file), "--out", str(tmp_path / "out"),
                       "train") == 2
        assert message in capsys.readouterr().err

    def test_bad_list_value_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seeds = 1,x\n", encoding="utf-8")
        assert run_cli("--config", str(bad), "train") == 2
        assert "'seeds' (expected ints)" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["d_model = 30", "d_model = 0",
                                      "n_heads = 0", "n_heads = -4",
                                      "max_seq_len = 1"])
    def test_bad_model_shape_is_2(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        assert run_cli("--config", str(bad), "train") == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("line, argv", [
        ("n_layers = -1", ()), ("n_layers = 0", ()), ("lr = -0.5", ()),
        ("weight_decay = -3", ()), ("seeds = -1", ()), ("gen_seed = -1", ()),
        ("", ("--seed", "-1")), ("threads = -3", ()), ("", ("--threads", "-3")),
        ("factor = nan", ()), ("epochs = -1", ()), ("factor = inf", ()),
        ("lr = inf", ()), ("weight_decay = inf", ()), ("n_classes = 1", ()),
        ("n_langs = 2", ())],
        ids=["n_layers-1", "n_layers0", "lr", "weight_decay", "seeds",
             "gen_seed", "seed_flag", "threads", "threads_flag", "factor_nan",
             "epochs", "factor_inf", "lr_inf", "weight_decay_inf",
             "n_classes1", "n_langs_below_families"])
    def test_out_of_range_value_is_2(self, tmp_path, capsys, line, argv):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n", encoding="utf-8")
        assert run_cli("--config", str(bad), *argv, "train") == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_data_error_is_3(self, tmp_path, cfg_file):
        missing = tmp_path / "nope.cfg"
        assert run_cli("--config", str(missing), "train") == 3

    def test_config_path_is_a_directory_is_3(self, tmp_path, capsys):
        assert run_cli("--config", str(tmp_path), "train") == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_run_dir_is_a_file_is_3(self, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("not a run directory\n", encoding="utf-8")
        assert run_cli("eval", "--run-dir", str(plain)) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_out_below_a_file_is_3(self, tmp_path, cfg_file, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("", encoding="utf-8")
        assert run_cli("--config", str(cfg_file), "--out", str(plain / "x"),
                       "gen") == 3
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize("label", ["7", "-1"])
    def test_corpus_label_out_of_range_is_3(self, tmp_path, cfg_file, capsys,
                                            monkeypatch, label):
        import lingualchemy.harness as harness

        gen = tmp_path / "gen"
        assert run_cli("--config", str(cfg_file), "--out", str(gen), "gen") == 0
        corpus = gen / "corpus.tsv"
        lines = corpus.read_text(encoding="utf-8").splitlines()
        for i in range(5):
            lang, _, rest = lines[i].split("\t", 2)  # rest: tokens and split
            lines[i] = f"{lang}\t{label}\t{rest}"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        seen = (gen / "languages.txt").read_text(encoding="utf-8").split()[1]
        user_cfg = tmp_path / "user.cfg"
        user_cfg.write_text(FAST_CFG + f"store_dir = {gen / 'store'}\n"
                            f"corpus = {corpus}\nseen = {seen}\n",
                            encoding="utf-8")
        monkeypatch.setattr(harness, "train_loop",
                            lambda *args, **kwargs: pytest.fail("trained"))
        capsys.readouterr()
        assert run_cli("--config", str(user_cfg), "--out",
                       str(tmp_path / "out"), "train") == 3
        assert f"language {lang} has class label {label}" in capsys.readouterr().err

    def test_success_is_0(self, tmp_path, cfg_file):
        out = tmp_path / "out"
        assert run_cli("--config", str(cfg_file), "--out", str(out), "gen") == 0

    def test_numeric_failure_is_4(self, monkeypatch):
        import lingualchemy.cli as cli
        from lingualchemy.errors import NumericError

        def boom(*args, **kwargs):
            raise NumericError("singular")

        monkeypatch.setattr(cli, "run_experiment", boom)
        assert run_cli("train") == 4


class TestGen(object):
    def test_writes_store_corpus_vocab(self, tmp_path, cfg_file):
        out = tmp_path / "gen"
        assert run_cli("--config", str(cfg_file), "--out", str(out), "gen") == 0
        assert (out / "corpus.tsv").exists()
        assert (out / "vocab.tsv").exists()
        for name in ("syntax_knn", "syntax_average", "geo"):
            assert (out / "store" / f"{name}.tsv").exists()


class TestTrainEvalAlign:
    def test_train_then_eval_then_align(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert run_cli("--config", str(cfg_file), "--out", str(out),
                       "train") == 0
        for name in ("report.csv", "trace.csv", "config.resolved",
                     "plot.svg", "checkpoint.lalc", "vocab.tsv"):
            assert (out / name).exists(), name
        # mini_loss is empty when the scaling mode adds no penalty
        read_numeric_csv(out / "trace.csv", 0, blank_ok={6})
        trained = [line for line in capsys.readouterr().out.splitlines()
                   if "\t" in line]

        assert run_cli("--config", str(cfg_file), "--out", str(out),
                       "eval", "--run-dir", str(out)) == 0
        printed = capsys.readouterr().out
        assert "syn00" in printed
        assert printed.splitlines() == trained  # the same per-language rows

        align_out = tmp_path / "align"
        assert run_cli("--config", str(cfg_file), "--out", str(align_out),
                       "align", "--run-dir", str(out)) == 0
        assert (align_out / "alignment_report.csv").exists()
        assert (align_out / "alignment_pca.csv").exists()
        rows = read_numeric_csv(align_out / "alignment_report.csv", 1)
        assert rows[0][0] == "method" and len(rows) == 3
        read_numeric_csv(align_out / "alignment_pca.csv", 2)

    def test_eval_and_align_use_the_runs_own_config(self, tmp_path,
                                                    trained_run, capsys):
        # same store width (syntax_average is as wide as syntax_knn), other
        # corpus size: outputs may only depend on the run's config.resolved
        other = tmp_path / "other.cfg"
        other.write_text(FAST_CFG.replace("n_per_lang = 40", "n_per_lang = 30")
                         + "feature_sets = syntax_average\n", encoding="utf-8")
        outputs = []
        for cfg in (trained_run / "config.resolved", other):
            out = tmp_path / cfg.stem
            assert run_cli("--config", str(cfg), "--out", str(out),
                           "eval", "--run-dir", str(trained_run)) == 0
            assert run_cli("--config", str(cfg), "--out", str(out),
                           "align", "--run-dir", str(trained_run)) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((printed, (out / "alignment_report.csv").read_bytes(),
                            (out / "alignment_pca.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_and_align_never_regenerate_the_corpus(self, tmp_path,
                                                         trained_run,
                                                         monkeypatch):
        import lingualchemy.harness as harness
        from lingualchemy.harness import load_run, parse_config, prepare_benchmark

        trained = prepare_benchmark(parse_config(trained_run / "config.resolved"))

        def refuse(*args, **kwargs):
            raise AssertionError("the synthetic benchmark was regenerated")

        monkeypatch.setattr(harness, "generate_corpus", refuse)
        monkeypatch.setattr(harness, "generate_languages", refuse)
        out = tmp_path / "out"
        assert run_cli("--out", str(out), "eval", "--run-dir", str(trained_run)) == 0
        assert run_cli("--out", str(out), "align", "--run-dir", str(trained_run)) == 0
        cfg, bench, _ = load_run(trained_run)
        assert bench.corpus.examples == trained.corpus.examples
        assert (bench.seen, bench.unseen) == (trained.seen, trained.unseen)
        langs = bench.seen + bench.unseen
        np.testing.assert_array_equal(
            bench.store.target_matrix(langs, cfg.feature_sets),
            trained.store.target_matrix(langs, cfg.feature_sets))

    def test_gen_files_reproduce_the_synthetic_run(self, tmp_path):
        synthetic = tmp_path / "synthetic.cfg"
        text = (FAST_CFG.replace("epochs = 2", "epochs = 1")
                .replace("n_langs = 6", "n_langs = 9"))
        synthetic.write_text(text, encoding="utf-8")
        gen = tmp_path / "gen"
        assert run_cli("--config", str(synthetic), "--out", str(gen), "gen") == 0
        seen, unseen = [line.split()[1] for line in (gen / "languages.txt")
                        .read_text(encoding="utf-8").splitlines()]
        user = tmp_path / "user.cfg"
        user.write_text(text + f"store_dir = {gen / 'store'}\n"
                        f"corpus = {gen / 'corpus.tsv'}\n"
                        f"seen = {seen}\nunseen = {unseen}\n", encoding="utf-8")
        for cfg in (synthetic, user):
            assert run_cli("--config", str(cfg), "--out",
                           str(tmp_path / cfg.stem), "train") == 0
        for name in ("report.csv", "trace.csv"):
            assert (tmp_path / "synthetic" / name).read_bytes() == \
                   (tmp_path / "user" / name).read_bytes(), name

    def test_report_csv_schema(self, tmp_path, cfg_file):
        out = tmp_path / "run2"
        run_cli("--config", str(cfg_file), "--out", str(out), "train")
        rows = read_numeric_csv(out / "report.csv", 3)
        assert rows[0] == ["lang", "split", "metric", "value"]
        assert all(r[2] == "accuracy" for r in rows[1:])


class TestCorruptRunDir:
    def _copy(self, trained_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        return run

    def test_truncated_checkpoint_is_3(self, tmp_path, trained_run, capsys):
        run = self._copy(trained_run, tmp_path)
        blob = (run / "checkpoint.lalc").read_bytes()
        (run / "checkpoint.lalc").write_bytes(blob[:len(blob) // 2])
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_3(self, tmp_path, trained_run, capsys):
        run = self._copy(trained_run, tmp_path)
        (run / "checkpoint.lalc").write_bytes(b"not a checkpoint")
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "bad checkpoint magic" in capsys.readouterr().err

    def test_oversized_checkpoint_extents_are_3(self, tmp_path, trained_run, capsys):
        # one rank-3 record whose extents claim far more data than the file holds
        run = self._copy(trained_run, tmp_path)
        record = struct.pack("<H", 1) + b"w" + struct.pack("<B3I", 3, *[2**32 - 1] * 3)
        (run / "checkpoint.lalc").write_bytes(b"LALC" + struct.pack("<H", 1) + record)
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_repeated_checkpoint_tensor_is_3(self, tmp_path, trained_run, capsys):
        run = self._copy(trained_run, tmp_path)
        weights = list(load_checkpoint(run / "checkpoint.lalc").items())
        save_checkpoint(run / "checkpoint.lalc", weights + weights[:1])
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert f"repeated checkpoint tensor {weights[0][0]!r}" in capsys.readouterr().err

    def test_nan_parameter_align_is_4(self, tmp_path, trained_run, capsys):
        run = self._copy(trained_run, tmp_path)
        weights = load_checkpoint(run / "checkpoint.lalc")
        name = next(iter(weights))
        weights[name].flat[0] = np.nan
        save_checkpoint(run / "checkpoint.lalc", weights.items())
        assert run_cli("--out", str(tmp_path / "aligned"), "align",
                       "--run-dir", str(run)) == 4
        assert "numeric failure: alignment reps hold" in capsys.readouterr().err

    def test_extra_checkpoint_tensor_is_3(self, tmp_path, trained_run, capsys):
        # a deeper model's layer would otherwise be dropped without a word
        run = self._copy(trained_run, tmp_path)
        weights = load_checkpoint(run / "checkpoint.lalc")
        weights["l9.wq"] = np.zeros((2, 2), dtype=np.float32)
        save_checkpoint(run / "checkpoint.lalc", weights.items())
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "tensors the model lacks: l9.wq" in capsys.readouterr().err

    def test_missing_corpus_is_3(self, tmp_path, trained_run, capsys):
        # run directories written before the run kept its data have none
        run = self._copy(trained_run, tmp_path)
        (run / "corpus.tsv").unlink()
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert str(run / "corpus.tsv") in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:3] + ["bogus"], "split 'bogus' is not one of"),
        (lambda cells: cells + ["extra"], "expected 4 columns, got 5")],
        ids=["bogus_split", "five_columns"])
    def test_bad_corpus_row_is_3(self, tmp_path, trained_run, capsys, edit,
                                 message):
        run = self._copy(trained_run, tmp_path)
        lines = (run / "corpus.tsv").read_text(encoding="utf-8").splitlines()
        lines[2] = "\t".join(edit(lines[2].split("\t")))
        (run / "corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert f"{run / 'corpus.tsv'}:3: {message}" in capsys.readouterr().err

    def test_malformed_vocab_is_3(self, tmp_path, trained_run, capsys):
        run = self._copy(trained_run, tmp_path)
        with open(run / "vocab.tsv", "a", encoding="utf-8") as fh:
            fh.write("no-tab-on-this-line\n")
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "vocab.tsv" in capsys.readouterr().err

    def test_vocab_id_gap_is_3(self, tmp_path, trained_run, capsys):
        # checkpoint shapes still match; only the ids say the vocab is wrong
        run = self._copy(trained_run, tmp_path)
        lines = (run / "vocab.tsv").read_text(encoding="utf-8").splitlines()
        tok, idx = lines[-1].split("\t")
        lines[-1] = f"{tok}\t{int(idx) + 5}"
        (run / "vocab.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert f"vocab.tsv:{len(lines)}: id" in capsys.readouterr().err

    def test_swapped_reserved_vocab_ids_is_3(self, tmp_path, trained_run, capsys):
        # every CLS position would read the <unk> row
        run = self._copy(trained_run, tmp_path)
        lines = (run / "vocab.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == ["<cls>\t0", "<unk>\t1"]
        lines[:2] = ["<cls>\t1", "<unk>\t0"]
        (run / "vocab.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("eval", "--run-dir", str(run)) == 3
        assert "vocab.tsv:1: '<cls>' must have id 0" in capsys.readouterr().err


def _spoil_line_2(path: Path) -> None:
    """Put bytes that are not UTF-8 at the start of the file's second line."""
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"\xff\xfe" + lines[1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("target, code", [
    ("config", 2), ("vocab", 3), ("corpus", 3), ("store", 3)])
def test_non_utf8_input_is_typed_error(target, code, tmp_path, cfg_file,
                                       trained_run, capsys):
    if target == "config":
        _spoil_line_2(cfg_file)
        argv = ["--config", str(cfg_file), "train"]
        spoiled = cfg_file
    elif target == "vocab":
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        spoiled = run / "vocab.tsv"
        _spoil_line_2(spoiled)
        argv = ["eval", "--run-dir", str(run)]
    else:
        gen = tmp_path / "gen"
        assert run_cli("--config", str(cfg_file), "--out", str(gen), "gen") == 0
        seen = (gen / "languages.txt").read_text(encoding="utf-8").split()[1]
        user_cfg = tmp_path / "user.cfg"
        user_cfg.write_text(FAST_CFG + f"store_dir = {gen / 'store'}\n"
                            f"corpus = {gen / 'corpus.tsv'}\nseen = {seen}\n",
                            encoding="utf-8")
        spoiled = gen / ("corpus.tsv" if target == "corpus" else "store/geo.tsv")
        _spoil_line_2(spoiled)
        argv = ["--config", str(user_cfg), "--out", str(tmp_path / "out"),
                "train"]
    capsys.readouterr()
    assert run_cli(*argv) == code
    assert f"{spoiled}:2: not UTF-8 text" in capsys.readouterr().err


def assert_sweep_report(out, stem, stdout):
    """``<stem>.csv`` and ``<stem>.svg`` hold one row and one bar per sweep
    row, the recommended bars orange, and stdout prints each row's mean."""
    rows = read_numeric_csv(out / f"{stem}.csv", 2)[1:]
    assert bar_fills(out / f"{stem}.svg") == [
        ORANGE if r[1] == "true" else BLUE for r in rows]
    assert stdout.splitlines() == [
        f"{r[0]}\t{float(r[2]):.4f}" + (" *" if r[1] == "true" else "")
        for r in rows]


class TestSweeps:
    def test_sweep_scale_rows(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_CFG.replace("n_per_lang = 40", "n_per_lang = 24")
                       .replace("epochs = 2", "epochs = 1")
                       .replace("n_langs = 6", "n_langs = 9"),
                       encoding="utf-8")
        out = tmp_path / "sweep"
        assert run_cli("--config", str(cfg), "--out", str(out),
                       "sweep-scale") == 0
        rows = read_numeric_csv(out / "scaling_sweep.csv", 2)
        labels = [r[0] for r in rows[1:]]
        assert labels == ["0x", "10x", "25x", "50x", "100x",
                          "AlchemyScale", "AlchemyTune"]
        assert [r[1] for r in rows[1:]] == ["false"] * 7
        assert_sweep_report(out, "scaling_sweep", capsys.readouterr().out)

    def test_sweep_features_rows(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(FAST_CFG.replace("n_per_lang = 40", "n_per_lang = 24")
                       .replace("epochs = 2", "epochs = 1")
                       .replace("n_langs = 6", "n_langs = 9"),
                       encoding="utf-8")
        out = tmp_path / "feat"
        assert run_cli("--config", str(cfg), "--out", str(out),
                       "sweep-features") == 0
        rows = read_numeric_csv(out / "feature_ablation.csv", 2)
        assert len(rows) == 8
        flagged = [r for r in rows[1:] if r[1] == "true"]
        assert len(flagged) == 1
        assert flagged[0][0] == "syntax_knn+syntax_avg+geo"
        assert_sweep_report(out, "feature_ablation", capsys.readouterr().out)


class TestUnseenWithoutTestRows:
    @pytest.mark.parametrize("command", ["sweep-scale", "family-gen"])
    def test_exits_3_before_training(self, tmp_path, capsys, monkeypatch,
                                     command):
        import lingualchemy.harness as harness

        synthetic = tmp_path / "synthetic.cfg"
        synthetic.write_text(FAST_CFG.replace("n_langs = 6", "n_langs = 9"),
                             encoding="utf-8")
        gen = tmp_path / "gen"
        assert run_cli("--config", str(synthetic), "--out", str(gen), "gen") == 0
        _, seen, _, unseen = (gen / "languages.txt").read_text(
            encoding="utf-8").split()
        corpus = gen / "corpus.tsv"
        lines = []
        for line in corpus.read_text(encoding="utf-8").splitlines():
            lang, label, tokens, split = line.split("\t")
            if lang in unseen.split(",") and split == "test":
                split = "dev"
            lines.append("\t".join((lang, label, tokens, split)))
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        first = seen.split(",")[0]
        user = tmp_path / "user.cfg"
        user.write_text(FAST_CFG + f"store_dir = {gen / 'store'}\n"
                        f"corpus = {corpus}\nseen = {seen}\nunseen = {unseen}\n"
                        f"family_groups = {first} | {seen}\n", encoding="utf-8")
        monkeypatch.setattr(harness, "train_loop",
                            lambda *args, **kwargs: pytest.fail("trained"))
        capsys.readouterr()
        assert run_cli("--config", str(user), "--out", str(tmp_path / "out"),
                       command) == 3
        assert capsys.readouterr().err == (
            "data error: no test examples for the unseen languages: "
            + unseen.replace(",", ", ") + "\n")


class TestFamilyGen:
    def test_trajectory_csv(self, tmp_path):
        cfg = tmp_path / "fam.cfg"
        cfg.write_text(FAST_CFG
                       + "[languages]\n"
                       + "unseen = syn04,syn05\n"
                       + "family_groups = syn00,syn01 | syn00,syn01,syn02,syn03\n",
                       encoding="utf-8")
        out = tmp_path / "fam"
        assert run_cli("--config", str(cfg), "--out", str(out),
                       "family-gen") == 0
        rows = read_numeric_csv(out / "family_trajectory.csv", 1)
        assert rows[0] == ["lang", "group", "seed", "value"]
        langs = {r[0] for r in rows[1:]}
        assert langs == {"syn04", "syn05"}
        groups = {r[1] for r in rows[1:]}
        assert groups == {"1", "2"}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_stderr_line_per_seed_and_group(self, tmp_path, capsys,
                                                 threads):
        cfg = tmp_path / "fam.cfg"
        cfg.write_text(FAST_CFG.replace("seeds = 1", "seeds = 1,2")
                       .replace("epochs = 2", "epochs = 0")
                       .replace("threads = 1", f"threads = {threads}")
                       + "[languages]\n"
                       + "unseen = syn04,syn05\n"
                       + "family_groups = syn00 | syn00,syn01 | "
                         "syn00,syn01,syn02\n",
                       encoding="utf-8")
        out = tmp_path / "fam"
        capsys.readouterr()
        assert run_cli("--config", str(cfg), "--out", str(out),
                       "family-gen") == 0
        rows = read_numeric_csv(out / "family_trajectory.csv", 1)[1:]
        # cells in job order: seed-major, then group
        cells = [(seed, group) for seed in ("1", "2") for group in ("1", "2", "3")]
        means = [float(np.mean([float(r[3]) for r in rows
                                if (r[2], r[1]) == cell])) for cell in cells]
        assert capsys.readouterr().err.splitlines() == [
            f"sweep cell {i}/6: unseen mean {mean:.4f}"
            for i, mean in enumerate(means, start=1)]

    def test_language_names_keep_their_separators(self, tmp_path, monkeypatch):
        import lingualchemy.cli as cli
        from lingualchemy.harness import MetricsReport

        def two_groups(cfg):
            rows = (("a:b", "unseen", 0.5), ("c,d", "unseen", 0.25),
                    ("e", "seen", 1.0))
            return [[MetricsReport(rows, {}, [], "hash", seed)] * 2
                    for seed in cfg.seeds]

        monkeypatch.setattr(cli, "family_split_experiment", two_groups)
        cfg = tmp_path / "fam.cfg"
        cfg.write_text("seeds = 3,4\n", encoding="utf-8")
        out = tmp_path / "fam"
        assert run_cli("--config", str(cfg), "--out", str(out),
                       "family-gen") == 0
        with open(out / "family_trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["lang", "group", "seed", "value"]] + [
            [lang, group, seed, value]
            for seed in ("3", "4") for group in ("1", "2")
            for lang, value in (("a:b", "0.5"), ("c,d", "0.25"))]


class TestHelp:
    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "factor=10.0" in text
        assert "gen" in text and "sweep-scale" in text
        words = text.split()
        for f in fields(ExperimentConfig):
            assert any(w.startswith(f"{f.name}=") for w in words), f.name
        assert "seeds=1,2,3,4,5;" in words


class TestCommandTable:
    def test_parser_is_built_once_and_leaves_no_cyclic_garbage(self, tmp_path):
        import argparse
        import gc

        import lingualchemy.cli as cli

        argv = ["eval", "--run-dir", str(tmp_path / "missing")]
        main(argv)
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            main(argv)
            main(argv)
            gc.collect()
            parsers = [o for o in gc.garbage
                       if isinstance(o, argparse.ArgumentParser)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert parsers == []
        assert cli.build_parser() is cli.build_parser()

    def test_replaced_handler_runs(self, monkeypatch):
        import lingualchemy.cli as cli

        cli.build_parser()  # the parser exists before the handler changes
        monkeypatch.setattr(cli, "cmd_eval", lambda args: 7)
        assert main(["eval", "--run-dir", "unused"]) == 7
