import csv
import ctypes
import hashlib
import itertools
import multiprocessing
import os
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from lingualchemy.alchemy import predict_logits
from lingualchemy.errors import ConfigError, DataError, write_csv
from lingualchemy.harness import (LABEL_CHAR_W, SVG_HEIGHT, ExperimentConfig,
                                  MetricsReport, SweepRow, accuracy,
                                  build_model, cached_batches, config_hash,
                                  evaluate_languages, export_report,
                                  export_sweep, family_split_experiment,
                                  feature_combo_label, load_run,
                                  make_token_batch, parse_config,
                                  prepare_benchmark, run_experiment,
                                  serialize_config, svg_bar_chart,
                                  write_benchmark)
from lingualchemy.synthlang import (UNK_ID, Example, Vocab, generate_languages,
                                    tokenize, unk_rate)
from lingualchemy.uriel import ALL_FEATURE_SETS, FeatureSet

from conftest import BLUE, ORANGE, bar_fills, write_tsv

FAST = dict(n_langs=6, n_families=3, n_per_lang=40, n_classes=3,
            epochs=2, batch_size=16, seeds=(1, 2), d_model=16, max_seq_len=16,
            out_dir="unused")


# sha256 of every default example's (lang, label, tokens, split) and the vocab
DEFAULT_CORPUS_SHA256 = (
    "e90981d72eaa11f00b850da0ec02ac8e859f87e1dfa9e76047222c770ca77fef")


def fast_cfg(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


def forked_blas_thread_getter():
    """numpy's bundled scipy-openblas thread-count getter, for a test whose
    pool workers must inherit a patched function; skips where either fails."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit a patched function only under fork")
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_",
                  None) if libs else None
    if get is None:
        pytest.skip("numpy bundles no scipy-openblas here")
    return get


class TestMetrics:
    def test_accuracy_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_accuracy_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_argmax_tie_break_lowest_index(self):
        assert int(np.argmax(np.array([0.5, 0.5]))) == 0


class TestConfig:
    def test_minimal_config_defaults(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[paths]\nout_dir = runs/x\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.scaling == "constant" and cfg.factor == 10.0
        assert cfg.seeds == (1, 2, 3, 4, 5)
        assert cfg.feature_sets == ALL_FEATURE_SETS

    def test_unknown_key_has_line_number(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scaling = constant\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="2"):
            parse_config(path)

    def test_type_mismatch_has_line_number(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("epochs = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_seen_unseen_overlap_lists_codes(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seen = aa,bb\nunseen = bb,cc,aa\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "aa" in str(err.value) and "bb" in str(err.value)

    @pytest.mark.parametrize("overrides, message", [
        (dict(seeds=(1, 2, 1)), "seeds repeats 1"),
        (dict(seen=("aa", "bb", "aa")), "seen repeats aa"),
        (dict(unseen=("aa", "aa")), "unseen repeats aa"),
        (dict(feature_sets=(FeatureSet.GEO, FeatureSet.GEO)), "feature_sets repeats geo"),
        (dict(family_groups=(("aa",), ("aa", "bb", "bb"))), "family group 2 repeats bb"),
        (dict(categories=(("aa", "x"), ("aa", "y"))), "categories repeats aa")],
        ids=["seeds", "seen", "unseen", "feature_sets", "family_groups",
             "categories"])
    def test_repeated_values_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**overrides)

    def test_non_cumulative_groups_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("family_groups = aa,bb | aa,cc\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cumulative"):
            parse_config(path)

    def test_round_trip(self, tmp_path):
        # every key off its default, so every kind of value is written and read
        cfg = ExperimentConfig(
            feature_sets=(FeatureSet.GEO, FeatureSet.SYNTAX_KNN),
            scaling="alchemy_tune", factor=2.5, epochs=3, batch_size=8, lr=0.25,
            weight_decay=0.0, seeds=(7, 0, 3), d_model=48, n_layers=3, n_heads=6,
            max_seq_len=20, seen=("syn00", "syn01"), unseen=("syn02",),
            family_groups=(("syn00",), ("syn00", "syn01")),
            categories=(("syn02", "low"), ("syn01", "high")), n_langs=9,
            n_families=3, n_per_lang=50, n_classes=5, gen_seed=4,
            store_dir="store/dir", corpus="corpus.tsv", out_dir="runs/x", threads=3)
        default = ExperimentConfig()
        assert [f.name for f in fields(cfg)
                if getattr(cfg, f.name) == getattr(default, f.name)] == []
        path = tmp_path / "round.cfg"
        path.write_text(serialize_config(cfg), encoding="utf-8")
        assert parse_config(path) == cfg

    def test_default_hash_pinned(self):
        # the hash of the reference benchmark's config.resolved text
        assert config_hash(ExperimentConfig()) == "182bf4133f9cc45d"

    def test_built_config_is_validated(self):
        with pytest.raises(ConfigError, match="n_layers"):
            ExperimentConfig(n_layers=0)

    def test_hash_stable(self):
        cfg = fast_cfg()
        assert config_hash(cfg) == config_hash(fast_cfg())
        assert config_hash(cfg) != config_hash(fast_cfg(factor=0.0))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("epochs = 1\nepochs = 2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_unknown_feature_set_named(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("feature_sets = syntax_knn,phonology\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="phonology"):
            parse_config(path)


class TestPrepareBenchmark:
    def test_default_split(self):
        bench = prepare_benchmark(fast_cfg())
        assert bench.seen == tuple(f"syn{i:02d}" for i in range(6))
        assert bench.unseen == ()

    def test_default_split_twelve_langs(self):
        cfg = fast_cfg(n_langs=12, n_families=4)
        bench = prepare_benchmark(cfg)
        assert len(bench.seen) == 8 and len(bench.unseen) == 4
        specs, _ = generate_languages(cfg.n_langs, cfg.n_families, cfg.gen_seed)
        fams = {s.family for s in specs if s.lang in bench.unseen}
        assert fams == {0, 1, 2, 3}

    def test_explicit_unseen_leaves_the_default_seen_split(self):
        # syn00 is in the default seen split; it must not be trained on too
        bench = prepare_benchmark(fast_cfg(n_langs=9, unseen=("syn00", "syn08")))
        assert bench.seen == ("syn01", "syn02", "syn03", "syn04", "syn05")
        assert bench.unseen == ("syn00", "syn08")

    def test_unknown_language_rejected(self):
        with pytest.raises(DataError, match="zz"):
            prepare_benchmark(fast_cfg(seen=("zz",), unseen=()))

    def test_vocab_restricted_to_seen(self):
        cfg = fast_cfg(n_langs=6, seen=("syn00", "syn01", "syn02"),
                       unseen=("syn03", "syn04", "syn05"))
        bench = prepare_benchmark(cfg)
        unseen_tokens = {t for e in bench.corpus.examples
                         if e.lang in bench.unseen for t in e.tokens}
        assert any(t not in bench.corpus.vocab.token_to_id
                   for t in unseen_tokens)

    def test_train_split_unk_free_with_full_vocab(self):
        bench = prepare_benchmark(fast_cfg(gen_seed=2))
        assert len(bench.seen) == 6  # every language seen
        for e in bench.corpus.subset("train").examples:
            assert UNK_ID not in tokenize(bench.corpus.vocab, e.tokens)

    def test_seen_only_vocab_makes_unseen_unks(self):
        seen = ("syn00", "syn01", "syn02", "syn03")
        bench = prepare_benchmark(fast_cfg(gen_seed=2, seen=seen))
        rates = unk_rate(bench.corpus, bench.corpus.vocab)
        assert any(rates[l] > 0 for l in ("syn04", "syn05"))

    def test_vocab_reads_only_train_text(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("aa\t0\tx y\ttrain\n"
                          "aa\t1\ty z\ttrain\n"
                          "aa\t0\tx devonly\tdev\n"
                          "aa\t1\tz testonly\ttest\n"
                          "bb\t0\tx y\ttest\n", encoding="utf-8")
        (tmp_path / "store").mkdir()
        write_tsv(tmp_path / "store" / "syntax_knn.tsv", ["lang", "f0"],
                  [["aa", "0.1"], ["bb", "0.9"]])
        bench = prepare_benchmark(fast_cfg(
            feature_sets=(FeatureSet.SYNTAX_KNN,), corpus=str(corpus),
            store_dir=str(tmp_path / "store"), seen=("aa",), unseen=("bb",)))
        ids = tokenize(bench.corpus.vocab, ("x", "y", "z", "devonly", "testonly"))
        assert UNK_ID not in ids[1:4]
        assert ids[4:] == [UNK_ID, UNK_ID]

    def test_written_data_reads_back_as_the_same_benchmark(self, tmp_path):
        """Generated and user data share one path: the files that
        ``write_benchmark`` writes give back the benchmark they came from."""
        cfg = fast_cfg(n_langs=9, n_families=3)
        bench = prepare_benchmark(cfg)
        written = write_benchmark(bench, tmp_path / "data")
        assert written == ["store/", "corpus.tsv"]
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == \
               ["corpus.tsv", "store"]
        reread = prepare_benchmark(replace(
            cfg, corpus=str(tmp_path / "data" / "corpus.tsv"),
            store_dir=str(tmp_path / "data" / "store"), seen=bench.seen,
            unseen=bench.unseen))
        assert reread == bench  # the vocabulary included

    def test_default_corpus_digest_pinned(self):
        """The default synthetic corpus and vocab, down to every token."""
        bench = prepare_benchmark(ExperimentConfig())
        h = hashlib.sha256()
        for e in bench.corpus.examples:
            h.update(repr((e.lang, e.label, e.tokens, e.split)).encode())
        h.update(repr(sorted(bench.corpus.vocab.token_to_id.items())).encode())
        assert len(bench.corpus.examples) == 3600
        assert h.hexdigest() == DEFAULT_CORPUS_SHA256


class TestUnkMasking:
    def test_unk_positions_masked_rest_as_before(self):
        vocab = Vocab(token_to_id={"<cls>": 0, "<unk>": 1, "a": 2, "b": 3})
        examples = [Example("aa", 0, ("a", "zz", "b", "qq"), "test"),
                    Example("aa", 1, ("b",), "test")]
        batch = make_token_batch(examples, vocab, max_seq_len=8)
        np.testing.assert_array_equal(batch.ids, [[0, 2, 1, 3, 1],
                                                  [0, 3, 0, 0, 0]])
        np.testing.assert_array_equal(batch.attention_mask,
                                      [[True, True, False, True, False],
                                       [True, True, False, False, False]])

    def test_unk_row_does_not_reach_predictions(self):
        cfg = fast_cfg(n_langs=12, n_families=4)
        bench = prepare_benchmark(cfg)
        examples = bench.corpus.for_langs(bench.unseen).subset("test").examples
        batch = make_token_batch(examples, bench.corpus.vocab,
                                 cfg.max_seq_len)
        assert (batch.ids == UNK_ID).any()
        model = build_model(cfg, len(bench.corpus.vocab),
                            bench.store.vector_dim(cfg.feature_sets), seed=1)
        before = predict_logits(model, batch)
        unk_row = model.encoder["tok_emb"].data[UNK_ID]
        unk_row[:] = np.random.default_rng(0).normal(0.0, 100.0, unk_row.shape)
        np.testing.assert_array_equal(predict_logits(model, batch), before)


class TestRunExperiment:
    def test_report_complete_and_persisted(self, tmp_path):
        cfg = fast_cfg(n_langs=12, n_families=4, out_dir=str(tmp_path / "out"))
        report = run_experiment(cfg, seed=1)
        assert len(report.rows) == 12
        tags = {t for _, t, _ in report.rows}
        assert tags == {"seen", "unseen"}
        run_dir = tmp_path / "out" / "run_seed1"
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "checkpoint.lalc", "config.resolved", "corpus.tsv", "plot.svg",
            "report.csv", "store", "trace.csv"]

    def test_aggregates_are_means(self, tmp_path):
        cfg = fast_cfg(n_langs=12, n_families=4)
        report = run_experiment(cfg, seed=1, persist=False)
        for tag in ("seen", "unseen"):
            values = [v for _, t, v in report.rows if t == tag]
            assert abs(report.aggregates[f"{tag}_mean"]
                       - sum(values) / len(values)) <= 1e-12

    def test_category_aggregates(self):
        cfg = fast_cfg(n_langs=12, n_families=4,
                       categories=(("syn08", "low"), ("syn09", "low"),
                                   ("syn10", "high")))
        report = run_experiment(cfg, seed=1, persist=False)
        values = {lang: v for lang, _, v in report.rows}
        low = [values["syn08"], values["syn09"]]
        assert abs(report.aggregates["cat:low"] - np.mean(low)) <= 1e-12

    def test_determinism_byte_identical_reports(self, tmp_path):
        cfg = fast_cfg(n_langs=6, n_families=3)
        r1 = run_experiment(replace(cfg, out_dir=str(tmp_path / "a")), seed=2)
        r2 = run_experiment(replace(cfg, out_dir=str(tmp_path / "b")), seed=2)
        b1 = (tmp_path / "a" / "run_seed2" / "report.csv").read_bytes()
        b2 = (tmp_path / "b" / "run_seed2" / "report.csv").read_bytes()
        assert b1 == b2
        # the report of this small config sits at chance whatever the seed;
        # the trace is what tells a rerun from a different training run
        assert (tmp_path / "a" / "run_seed2" / "trace.csv").read_bytes() == \
               (tmp_path / "b" / "run_seed2" / "trace.csv").read_bytes()
        assert r1.config_hash == r2.config_hash

    def test_config_resolved_reruns_the_runs_own_seed(self, tmp_path):
        cfg = fast_cfg(seeds=(1, 2, 3, 4, 5), out_dir=str(tmp_path))
        run_experiment(cfg, seed=3, run_dir=tmp_path / "a")
        resolved = parse_config(tmp_path / "a" / "config.resolved")
        assert resolved.seeds == (3,)
        run_experiment(resolved, run_dir=tmp_path / "b")
        # at this size every seed's report is at chance; the trace is not
        for name in ("report.csv", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_store_corruption_after_training_changes_nothing(self, tmp_path):
        """Inference is store-free: corrupting every stored vector after
        training must not change a single evaluated metric."""
        cfg = fast_cfg(n_langs=12, n_families=4, out_dir=str(tmp_path))
        run_experiment(cfg, seed=1, run_dir=tmp_path / "run")
        cfg, bench, model = load_run(tmp_path / "run")
        before = evaluate_languages(model, bench, cfg)
        for values in bench.store.values.values():
            values.flags.writeable = True
            values[:] = 999.0
        assert evaluate_languages(model, bench, cfg) == before

    def test_load_run_reads_the_runs_own_benchmark(self, tmp_path, monkeypatch):
        import lingualchemy.harness as hmod

        cfg = fast_cfg(n_langs=9, n_families=3, epochs=0)
        trained = prepare_benchmark(cfg)
        run_experiment(cfg, seed=1, run_dir=tmp_path / "run", benchmark=trained)
        monkeypatch.setattr(hmod, "generate_corpus", None)
        monkeypatch.setattr(hmod, "generate_languages", None)
        loaded_cfg, bench, _ = load_run(tmp_path / "run")
        assert loaded_cfg.corpus == loaded_cfg.store_dir == ""
        assert bench.corpus.examples == trained.corpus.examples
        assert bench.store == trained.store
        assert (bench.seen, bench.unseen) == (trained.seen, trained.unseen)
        assert bench.corpus.vocab == trained.corpus.vocab

    def test_failed_run_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = fast_cfg(out_dir=str(tmp_path / "broken"))
        import lingualchemy.harness as hmod

        def boom(*args, **kwargs):
            raise RuntimeError("disk full")

        monkeypatch.setattr(hmod, "save_checkpoint", boom)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, seed=1)
        assert not (tmp_path / "broken" / "run_seed1").exists()


class TestFamilySplit:
    def test_single_group_equals_plain_run(self):
        cfg = fast_cfg(n_langs=12, n_families=4, seeds=(1,),
                       seen=(), unseen=("syn08", "syn09", "syn10", "syn11"),
                       family_groups=(tuple(f"syn{i:02d}" for i in range(8)),))
        reports = family_split_experiment(cfg)
        assert [len(per_seed) for per_seed in reports] == [1]
        direct = run_experiment(
            replace(cfg, seen=cfg.family_groups[0], family_groups=()),
            seed=1, persist=False)
        assert reports[0][0].rows == direct.rows

    def test_two_groups_fixed_unseen(self):
        g1 = tuple(f"syn{i:02d}" for i in range(4))
        g2 = tuple(f"syn{i:02d}" for i in range(8))
        cfg = fast_cfg(n_langs=12, n_families=4, unseen=("syn08", "syn09"),
                       family_groups=(g1, g2), seeds=(1,))
        [reports] = family_split_experiment(cfg)
        assert len(reports) == 2
        unseen_sets = [tuple(l for l, t, _ in r.rows if t == "unseen")
                       for r in reports]
        assert unseen_sets[0] == unseen_sets[1] == ("syn08", "syn09")

    def test_pooled_groups_match_one_process(self):
        g1 = tuple(f"syn{i:02d}" for i in range(2))
        g2 = tuple(f"syn{i:02d}" for i in range(4))
        cfg = fast_cfg(unseen=("syn04", "syn05"), family_groups=(g1, g2),
                       seeds=(2,))
        [one] = family_split_experiment(replace(cfg, threads=1))
        [pooled] = family_split_experiment(replace(cfg, threads=2))
        assert [(r.rows, r.aggregates, r.trace, r.config_hash) for r in pooled] == [
            (r.rows, r.aggregates, r.trace, r.config_hash) for r in one]

    def test_group_workers_run_blas_on_one_thread(self, monkeypatch):
        import lingualchemy.harness as harness

        get = forked_blas_thread_getter()
        before = get()

        def cell(cfg, seed, persist, benchmark):
            return MetricsReport(rows=(), aggregates={"unseen_mean": get()},
                                 trace=[], config_hash=",".join(cfg.seen),
                                 seed=seed)

        monkeypatch.setattr(harness, "run_experiment", cell)
        groups = (("syn00",), ("syn00", "syn01"), ("syn00", "syn01", "syn02"))
        cfg = fast_cfg(unseen=("syn05",), family_groups=groups, threads=2,
                       seeds=(1,))
        [reports] = family_split_experiment(cfg)
        assert [(r.config_hash, r.aggregates["unseen_mean"]) for r in reports] \
            == [(",".join(g), 1) for g in groups]
        assert get() == before

    def test_missing_groups_rejected(self):
        with pytest.raises(ConfigError, match="family_groups"):
            family_split_experiment(fast_cfg(unseen=("syn05",)))

    def test_two_seeds_build_each_group_benchmark_once(self, monkeypatch):
        import lingualchemy.harness as harness

        calls = []

        def counting(cfg):
            calls.append(cfg.seen)
            return prepare_benchmark(cfg)

        monkeypatch.setattr(harness, "prepare_benchmark", counting)
        groups = (("syn00", "syn01"), ("syn00", "syn01", "syn02"))
        cfg = fast_cfg(unseen=("syn05",), family_groups=groups, epochs=0,
                       seeds=(1, 2), threads=1)
        reports = family_split_experiment(cfg)
        assert calls == list(groups)
        assert [[r.seed for r in per_seed] for per_seed in reports] == [[1, 1],
                                                                         [2, 2]]


class TestSweepConsistency:
    def test_ablation_row_equals_independent_run(self):
        from lingualchemy.harness import ablation_sweep

        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=1,
                       seeds=(1,), threads=1)
        rows = ablation_sweep(cfg)
        assert len(rows) == 7
        geo_row = next(r for r in rows if r.label == "geo")
        direct = run_experiment(replace(cfg, feature_sets=(FeatureSet.GEO,)),
                                seed=1, persist=False)
        assert geo_row.per_seed[0][1] == direct.aggregates["unseen_mean"]
        assert sum(r.recommended for r in rows) == 1

    def test_pool_matches_sequential(self):
        from lingualchemy.harness import scaling_sweep

        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=1,
                       seeds=(1,))
        sequential = scaling_sweep(replace(cfg, threads=1))
        pooled = scaling_sweep(replace(cfg, threads=2))
        assert [(r.label, r.per_seed) for r in sequential] == \
               [(r.label, r.per_seed) for r in pooled]


class TestSweepProgress:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_stderr_line_per_finished_cell(self, capsys, threads):
        from lingualchemy.harness import scaling_sweep

        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=0,
                       seeds=(1, 2), threads=threads)
        rows = scaling_sweep(cfg)
        values = [value for row in rows for _, value in row.per_seed]
        assert capsys.readouterr().err.splitlines() == [
            f"sweep cell {i}/14: unseen mean {value:.4f}"
            for i, value in enumerate(values, start=1)]


class TestSweepBenchmarkReuse:
    @pytest.mark.parametrize("sweep", ["scaling_sweep", "ablation_sweep"])
    def test_one_benchmark_build_per_sweep(self, sweep, monkeypatch):
        import lingualchemy.harness as harness

        calls = []

        def counting(cfg):
            calls.append(cfg)
            return prepare_benchmark(cfg)

        monkeypatch.setattr(harness, "prepare_benchmark", counting)
        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=1,
                       seeds=(1,), threads=1)
        rows = getattr(harness, sweep)(cfg)
        assert len(rows) == 7
        assert len(calls) == 1

    def test_pooled_sweep_never_pickles_the_benchmark(self, monkeypatch):
        import multiprocessing

        import lingualchemy.harness as harness

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the benchmark only under fork")

        def refuse(self, protocol):
            raise AssertionError("a benchmark was pickled")

        monkeypatch.setattr(harness.Benchmark, "__reduce_ex__", refuse)
        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=1,
                       seeds=(1,), threads=2)
        rows = harness.scaling_sweep(cfg)
        assert len(rows) == 7
        # the family split's pool holds one benchmark per group
        groups = (("syn00", "syn01"), ("syn00", "syn01", "syn02"))
        reports = harness.family_split_experiment(replace(
            cfg, unseen=("syn07",), family_groups=groups, epochs=0, seeds=(1, 2)))
        assert [len(per_seed) for per_seed in reports] == [2, 2]

    def test_pooled_sweep_cells_carry_no_trace(self):
        import lingualchemy.harness as harness

        cfg = fast_cfg(n_langs=9, n_families=3, n_per_lang=24, epochs=1,
                       seeds=(1, 2), threads=2)
        bench = prepare_benchmark(cfg)
        reports = harness._run_cells(cfg, [bench],
                                     [(cfg, seed, 0) for seed in cfg.seeds])
        assert [r.trace for r in reports] == [[], []]
        assert all(r.rows and "unseen_mean" in r.aggregates for r in reports)
        # a run of its own keeps its trace, one row per AdamW step
        assert run_experiment(cfg, seed=1, persist=False, benchmark=bench).trace

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        import lingualchemy.harness as harness

        get = forked_blas_thread_getter()
        before = get()

        def cell(job, benches):
            return MetricsReport(rows=(), aggregates={"unseen_mean": get()},
                                 trace=[], config_hash=benches[job[2]], seed=job[1])

        monkeypatch.setattr(harness, "_run_cell", cell)
        cfg = fast_cfg(threads=2)
        reports = harness._run_cells(cfg, ["a", "b"],
                                     [(cfg, s, s % 2) for s in range(4)])
        assert [(r.seed, r.config_hash, r.aggregates["unseen_mean"])
                for r in reports] == [(0, "a", 1), (1, "b", 1), (2, "a", 1),
                                      (3, "b", 1)]
        assert get() == before

    def test_sweep_without_unseen_languages_rejected(self):
        from lingualchemy.harness import scaling_sweep

        with pytest.raises(ConfigError, match="unseen"):
            scaling_sweep(fast_cfg(n_langs=6, n_families=3))


class TestSweepShape:
    def test_feature_combo_labels(self):
        assert feature_combo_label(ALL_FEATURE_SETS) == "syntax_knn+syntax_avg+geo"
        assert feature_combo_label([FeatureSet.GEO]) == "geo"
        assert feature_combo_label(
            [FeatureSet.GEO, FeatureSet.SYNTAX_AVERAGE]) == "syntax_avg+geo"

    def test_export_sweep_schema(self, tmp_path):
        rows = [SweepRow(label="0x", per_seed=((1, 0.5), (2, 0.6))),
                SweepRow(label="10x", per_seed=((1, 0.7), (2, 0.8)),
                         recommended=True)]
        path = tmp_path / "sweep.csv"
        export_sweep(rows, path)
        with open(path) as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["row", "recommended", "unseen_mean", "seed1", "seed2"]
        assert table[2][1] == "true"
        assert float(table[1][2]) == pytest.approx(0.55)


class TestGraphSize:
    def test_default_training_step_has_at_most_36_op_nodes(self):
        # one node per attention and per affine map, one embedding node that
        # adds the positions, and a last layer that runs for the CLS row
        # only: 36 nodes; separate matmul and bias nodes made 50, and a
        # per-head attention loop 114
        from lingualchemy import autodiff as ad
        from lingualchemy.alchemy import (ConstantScaling, combine_losses,
                                          forward_losses)

        cfg = ExperimentConfig()
        bench = prepare_benchmark(cfg)
        examples = bench.corpus.for_langs(bench.seen).subset("train").examples
        model = build_model(cfg, len(bench.corpus.vocab),
                            bench.store.vector_dim(cfg.feature_sets), seed=0)
        batch = make_token_batch(examples[:cfg.batch_size], bench.corpus.vocab,
                                 cfg.max_seq_len)
        l_cls, l_uriel = forward_losses(model, batch, bench.store, cfg.feature_sets)
        total, _ = combine_losses(l_cls, l_uriel, ConstantScaling(cfg.factor))
        op_nodes = [n for n in ad._topo_order(total) if n._parents]
        assert len(op_nodes) <= 36


class TestCachedBatches:
    def test_equal_to_make_token_batch(self):
        cfg = fast_cfg(n_langs=12, n_families=4, max_seq_len=8)
        bench = prepare_benchmark(cfg)
        # every split and language, so rows are cut at max_seq_len and
        # unseen-language rows hold <unk>
        examples = bench.corpus.examples
        batches = cached_batches(examples, bench.corpus.vocab,
                                 cfg.max_seq_len)
        rng = np.random.default_rng(0)
        for size in (1, 2, 7, 16, 33):
            idx = rng.choice(len(examples), size=size, replace=False)
            got = batches(idx)
            want = make_token_batch([examples[i] for i in idx],
                                    bench.corpus.vocab, cfg.max_seq_len)
            for name in ("ids", "attention_mask", "labels"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)
            assert got.langs == want.langs


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


class TestHeapStaysMapped:
    @pytest.mark.skipif(not _glibc(), reason="the heap setting is glibc's")
    def test_steady_state_step_faults_few_pages(self):
        """A default training step reuses the heap pages of the last one:
        with freed memory handed back to the kernel each step faulted ~90
        pages in again."""
        from lingualchemy.alchemy import (ConstantScaling, make_optimizer,
                                          train_step)

        cfg = ExperimentConfig()
        bench = prepare_benchmark(cfg)
        examples = bench.corpus.for_langs(bench.seen).subset("train").examples
        model = build_model(cfg, len(bench.corpus.vocab),
                            bench.store.vector_dim(cfg.feature_sets), seed=1)
        scaling = ConstantScaling(cfg.factor)
        opt = make_optimizer(model, scaling, lr=cfg.lr,
                             weight_decay=cfg.weight_decay)
        batches = cached_batches(examples, bench.corpus.vocab,
                                 cfg.max_seq_len)
        rng = np.random.default_rng(0)
        warmup, measured = 20, 80
        for step in range(warmup + measured):
            if step == warmup:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            idx = rng.choice(len(examples), size=cfg.batch_size, replace=False)
            train_step(model, batches(idx), bench.store, cfg.feature_sets,
                       scaling, opt)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / measured < 5, f"{faults / measured:.1f} faults per step"


# Forward passes only, in a process that has built no AdamW: prints the minor
# page faults per batch once every batch has run once.
_PREDICT_FAULTS = """
import resource
from lingualchemy import autodiff
from lingualchemy.alchemy import predict_classes
from lingualchemy.harness import (ExperimentConfig, build_model, eval_batches,
                                  prepare_benchmark)

def refuse(*args, **kwargs):
    raise AssertionError("built an AdamW")

autodiff.AdamW.__init__ = refuse
cfg = ExperimentConfig()
bench = prepare_benchmark(cfg)
model = build_model(cfg, len(bench.corpus.vocab),
                    bench.store.vector_dim(cfg.feature_sets), seed=1)
batches = eval_batches(bench.corpus.subset("test"), cfg)
for batch in batches:
    predict_classes(model, batch)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for batch in batches * 3:
    predict_classes(model, batch)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / (3 * len(batches)))
"""


class TestHeapStaysMappedWithoutTraining:
    @pytest.mark.skipif(not _glibc(), reason="the heap setting is glibc's")
    def test_forward_only_process_faults_few_pages(self):
        """``eval`` and ``align`` build no optimizer, so ``no_grad`` applies
        the heap setting too: without it a default prediction batch of 64
        faulted about 900 pages in again."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _PREDICT_FAULTS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        per_batch = float(done.stdout)
        assert per_batch < 50, f"{per_batch:.1f} faults per batch"


class TestExportReport:
    def make_report(self):
        return MetricsReport(
            rows=(("syn00", "seen", 0.75), ("syn01", "unseen", 0.5)),
            aggregates={"seen_mean": 0.75, "unseen_mean": 0.5},
            trace=[[0, 1, 0.4, 0.1, 1.0, 10.0, None, 1.4]],
            config_hash="cafe", seed=1, wall_time=1.0)

    def test_re_export_byte_identical(self, tmp_path):
        report = self.make_report()
        export_report(report, tmp_path / "a")
        export_report(report, tmp_path / "b")
        for name in ("report.csv", "trace.csv", "plot.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_csv_row_count(self, tmp_path):
        report = self.make_report()
        export_report(report, tmp_path)
        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(report.rows)
        assert rows[0] == ["lang", "split", "metric", "value"]

    def test_write_csv_numpy_float_is_plain_number(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [[np.float64(0.1), None]])
        assert path.read_bytes() == b"a,b\r\n0.1,\r\n"

    def test_svg_is_well_formed_xml(self, tmp_path):
        report = self.make_report()
        export_report(report, tmp_path)
        tree = ET.parse(tmp_path / "plot.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_svg_colours_unseen_languages_orange(self, tmp_path):
        export_report(self.make_report(), tmp_path)
        assert bar_fills(tmp_path / "plot.svg") == [BLUE, ORANGE]

    def test_svg_escapes_labels(self):
        svg = svg_bar_chart(["a<b"], [0.5], [False], title="x & y")
        ET.fromstring(svg)

    @staticmethod
    def label_rows(labels):
        """{y: [(x, label), ...]} of the x-axis labels of a bar chart."""
        root = ET.fromstring(svg_bar_chart(labels, [0.5] * len(labels),
                                           [False] * len(labels), title="t"))
        rows = {}
        for text in root.iter("{http://www.w3.org/2000/svg}text"):
            if text.text in labels:
                rows.setdefault(float(text.get("y")), []).append(
                    (float(text.get("x")), text.text))
        return rows

    def test_long_labels_stagger_without_overlap(self):
        labels = [feature_combo_label(combo)
                  for size in range(1, len(ALL_FEATURE_SETS) + 1)
                  for combo in itertools.combinations(ALL_FEATURE_SETS, size)]
        rows = self.label_rows(labels)
        assert len(rows) == 2 and max(rows) <= SVG_HEIGHT - 40
        for row in rows.values():
            row.sort()
            for (x0, a), (x1, b) in zip(row, row[1:]):
                assert x0 + LABEL_CHAR_W * len(a) / 2 <= x1 - LABEL_CHAR_W * len(b) / 2

    def test_short_labels_stay_on_one_row(self):
        labels = [f"syn{i:02d}" for i in range(12)]
        rows = self.label_rows(labels)
        assert [len(row) for row in rows.values()] == [12]
