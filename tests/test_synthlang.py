import numpy as np
import pytest

from lingualchemy.synthlang import (GEO_ANCHORS, Corpus, Example,
                                    SynthLanguageSpec, Vocab,
                                    generate_corpus, generate_languages,
                                    geo_feature_vector, haversine_angle,
                                    read_corpus_tsv, tokenize, unk_rate,
                                    write_corpus_tsv)
from lingualchemy.errors import TsvFormatError
from lingualchemy.uriel import ALL_FEATURE_SETS, FeatureSet, load_uriel_tsv, write_uriel_tsv


def spec_with(lang="syn00", family=0, params=(0.5, 0.5, 0.5), lat=0.0, lon=0.0):
    return SynthLanguageSpec(lang=lang, lat=lat, lon=lon,
                             syntax_params=tuple(params), family=family,
                             geo_features=geo_feature_vector(lat, lon))


class TestGeoFeatures:
    def test_anchor_at_own_coordinate_is_zero(self):
        lat, lon = GEO_ANCHORS[0]
        assert geo_feature_vector(lat, lon)[0] == 0.0

    def test_antipodal_distance_is_one(self):
        lat, lon = GEO_ANCHORS[0]
        anti = haversine_angle(lat, lon, -lat, lon + np.pi) / np.pi
        assert anti == pytest.approx(1.0, abs=1e-12)

    def test_quarter_circle(self):
        # equator to a point 90 degrees east: half of the half-circumference
        angle = haversine_angle(0.0, 0.0, 0.0, np.pi / 2) / np.pi
        assert angle == pytest.approx(0.5, abs=1e-12)


class TestGenerateLanguages:
    def test_deterministic(self):
        s1, st1 = generate_languages(12, 4, seed=3)
        s2, st2 = generate_languages(12, 4, seed=3)
        assert s1 == s2
        assert st1 == st2

    def test_counts_and_codes(self):
        specs, store = generate_languages(9, 3, seed=0)
        assert [s.lang for s in specs] == [f"syn{i:02d}" for i in range(9)]
        assert list(store.langs) == sorted(s.lang for s in specs)

    def test_family_round_robin(self):
        specs, _ = generate_languages(8, 4, seed=0)
        assert [s.family for s in specs] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_family_param_radius(self):
        specs, _ = generate_languages(16, 4, seed=1)
        by_family = {}
        for s in specs:
            by_family.setdefault(s.family, []).append(np.array(s.syntax_params))
        for members in by_family.values():
            centroid = np.mean(members, axis=0)
            for m in members:
                assert np.abs(m - centroid).max() <= 0.2

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            generate_languages(2, 3, seed=0)
        with pytest.raises(ValueError):
            generate_languages(3, 0, seed=0)

    def test_store_dims(self):
        _, store = generate_languages(6, 2, seed=0)
        assert {fs: m.shape[1] for fs, m in store.values.items()} == {
            FeatureSet.SYNTAX_KNN: 3, FeatureSet.SYNTAX_AVERAGE: 3, FeatureSet.GEO: 5}

    def test_store_round_trips_through_tsv(self, tmp_path):
        _, store = generate_languages(10, 3, seed=7)
        reloaded = load_uriel_tsv(write_uriel_tsv(store, tmp_path))
        assert store == reloaded

    def test_families_cluster_in_store_syntax_space(self):
        """In-family syntax distances below every out-family distance for
        at least 95% of pairs at default settings."""
        specs, store = generate_languages(12, 4, seed=0)
        fam = {s.lang: s.family for s in specs}
        langs = [s.lang for s in specs]
        sets = [FeatureSet.SYNTAX_KNN, FeatureSet.SYNTAX_AVERAGE]
        vec = {l: store.target_matrix([l], sets)[0] for l in langs}
        ok = total = 0
        for a in langs:
            for b in langs:
                if a >= b or fam[a] != fam[b]:
                    continue
                d_in = np.linalg.norm(vec[a] - vec[b])
                for c in langs:
                    if fam[c] == fam[a]:
                        continue
                    total += 2
                    ok += (d_in < np.linalg.norm(vec[a] - vec[c]))
                    ok += (d_in < np.linalg.norm(vec[b] - vec[c]))
        assert ok / total >= 0.95


class TestGenerateCorpus:
    def test_deterministic(self):
        specs, _ = generate_languages(4, 2, seed=0)
        c1 = generate_corpus(specs, 30, 3, seed=5)
        c2 = generate_corpus(specs, 30, 3, seed=5)
        assert c1 == c2

    def test_label_stratification(self):
        specs, _ = generate_languages(4, 2, seed=0)
        examples = generate_corpus(specs, 31, 4, seed=1)
        for lang in sorted({e.lang for e in examples}):
            labels = [e.label for e in examples if e.lang == lang]
            counts = np.bincount(labels, minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_parameter_degenerate_languages_share_surface(self):
        """Identical params + zero lexicon shift -> identical realized text."""
        a = spec_with("syn00", family=0, params=(0.4, 0.3, 0.0))
        b = spec_with("syn01", family=0, params=(0.4, 0.3, 0.0))
        examples = generate_corpus([a, b], 25, 3, seed=9)
        rows_a = [(e.label, e.tokens, e.split) for e in examples
                  if e.lang == "syn00"]
        rows_b = [(e.label, e.tokens, e.split) for e in examples
                  if e.lang == "syn01"]
        assert rows_a == rows_b

    @pytest.mark.parametrize("g", [4, 12, 101])
    def test_grouped_by_language_in_sorted_spec_order(self, g):
        specs, _ = generate_languages(g, 2, seed=0)
        examples = generate_corpus(specs, 2, 2, seed=5)
        langs = [s.lang for s in specs]
        assert langs == sorted(langs)  # zero-padded codes
        assert [e.lang for e in examples] == [l for l in langs for _ in range(2)]

    def test_bad_counts(self):
        specs, _ = generate_languages(2, 1, seed=0)
        with pytest.raises(ValueError):
            generate_corpus(specs, 10, 1, seed=0)
        with pytest.raises(ValueError):
            generate_corpus(specs, 0, 3, seed=0)


class TestTokenize:
    VOCAB = Vocab(token_to_id={"<cls>": 0, "<unk>": 1, "a": 2, "b": 3})

    def test_known_tokens(self):
        assert tokenize(self.VOCAB, ["a", "b", "a"]) == [0, 2, 3, 2]

    def test_unknown_maps_to_unk(self):
        assert tokenize(self.VOCAB, ["x"]) == [0, 1]

    def test_empty_is_cls_only(self):
        assert tokenize(self.VOCAB, []) == [0]

    def test_ids_dense_and_reload_stable(self):
        # a run's vocabulary is rebuilt from its corpus, in whatever order
        # the text is read back
        vocab = Vocab.build([["tok_c", "tok_a"], ["tok_b"]])
        ids = sorted(vocab.token_to_id.values())
        assert ids == list(range(len(vocab)))
        assert Vocab.build([["tok_b"], ["tok_a", "tok_c", "tok_a"]]) == vocab


class TestUnkRate:
    def corpus_of(self, rows):
        examples = [Example(lang=l, label=0, tokens=tuple(t), split="train")
                    for l, t in rows]
        vocab = Vocab.build([t for _, t in rows])
        return Corpus(examples=examples, vocab=vocab)

    def test_all_in_vocab(self):
        corpus = self.corpus_of([("aa", ["x", "y"])])
        assert unk_rate(corpus, corpus.vocab) == {"aa": 0.0}

    def test_hand_ratio(self):
        # 3 unknown of 44 total -> 6.82 after rounding
        known = ["w"] * 41
        corpus = self.corpus_of([("aa", known + ["u1", "u2", "u3"])])
        vocab = Vocab.build([["w"]])
        assert unk_rate(corpus, vocab) == {"aa": 6.82}

    def test_empty_vocab_all_unk(self):
        corpus = self.corpus_of([("aa", ["x", "y"])])
        vocab = Vocab(token_to_id={"<cls>": 0, "<unk>": 1})
        assert unk_rate(corpus, vocab) == {"aa": 100.0}

    def test_zero_token_language_excluded_with_warning(self):
        examples = [Example(lang="aa", label=0, tokens=(), split="train"),
                    Example(lang="bb", label=0, tokens=("x",), split="train")]
        corpus = Corpus(examples=examples, vocab=Vocab.build([["x"]]))
        with pytest.warns(UserWarning, match="aa"):
            rates = unk_rate(corpus, corpus.vocab)
        assert "aa" not in rates and "bb" in rates


class TestCorpusTsv:
    def test_round_trip(self, tmp_path):
        specs, _ = generate_languages(4, 2, seed=0)
        generated = generate_corpus(specs, 20, 3, seed=1)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(generated, path)
        examples = read_corpus_tsv(path)
        assert {(e.lang, e.label, e.tokens) for e in examples} == \
               {(e.lang, e.label, e.tokens) for e in generated}

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("aa\t0\tx y\nbb\toops\tz\n", encoding="utf-8")
        with pytest.raises(Exception, match="2"):
            read_corpus_tsv(path)

    def test_split_column_round_trip(self, tmp_path):
        specs, _ = generate_languages(4, 2, seed=0)
        generated = generate_corpus(specs, 20, 3, seed=1)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(generated, path)
        examples = read_corpus_tsv(path, split_seed=3)
        assert examples == generated
        first = {}
        for e in examples:
            for tok in e.tokens:
                assert first.setdefault(tok, tok) is tok  # one object per token

    def test_three_columns_get_seeded_splits(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("".join(f"aa\t{i % 2}\tx{i} y\n" for i in range(20)),
                        encoding="utf-8")
        e1 = read_corpus_tsv(path, split_seed=3)
        assert e1 == read_corpus_tsv(path, split_seed=3)
        assert [e.split for e in e1].count("train") == 14

    @pytest.mark.parametrize("text, message", [
        ("aa\t0\tx\ttrain\naa\t1\ty\n", ":2: expected 4 columns, got 3"),
        ("aa\t0\tx\nbb\t1\ty\ttest\n", ":2: expected 3 columns, got 4"),
        ("aa\t0\tx\ttrain\textra\n", ":1: expected 3 or 4 columns, got 5"),
        ("aa\t0\tx\ttrain\naa\t1\ty\tbogus\n", ":2: split 'bogus' is not one of")])
    def test_malformed_rows_name_their_line(self, tmp_path, text, message):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TsvFormatError, match=message):
            read_corpus_tsv(path)

    def test_split_assignment_deterministic(self, tmp_path):
        specs, _ = generate_languages(4, 2, seed=0)
        generated = generate_corpus(specs, 20, 3, seed=1)
        path = tmp_path / "corpus.tsv"
        write_corpus_tsv(generated, path)
        e1 = read_corpus_tsv(path, split_seed=3)
        e2 = read_corpus_tsv(path, split_seed=3)
        assert e1 == e2
