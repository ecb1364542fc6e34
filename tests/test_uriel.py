import numpy as np
import pytest

from lingualchemy.errors import DataError, TsvFormatError, UnknownLanguageError
from lingualchemy.uriel import FeatureSet, load_uriel_tsv, write_uriel_tsv

from conftest import write_tsv


class TestLoad:
    def test_direct_load(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1", "f2"],
                         [["aa", "1", "2", "3"], ["bb", "4", "5", "6"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        assert {fs: m.shape[1] for fs, m in store.values.items()} == {FeatureSet.GEO: 3}
        assert list(store.langs) == ["aa", "bb"]

    def test_missing_cell_masked_to_zero(self, tmp_path):
        path = write_tsv(tmp_path / "s.tsv", ["lang", "f0", "f1", "f2"],
                         [["aa", "0.1", "--", "0.3"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: path})
        values = store.target_matrix(["aa"], [FeatureSet.SYNTAX_KNN])[0]
        mask = store.observed[FeatureSet.SYNTAX_KNN][store.langs.index("aa")]
        assert values[1] == 0.0
        assert not mask[1]
        assert mask[0] and mask[2]

    def test_geo_min_max_normalization(self, tmp_path):
        # raw column {0, 10, 20} scales to {0, 0.5, 1}
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0"],
                         [["aa", "0"], ["bb", "10"], ["cc", "20"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        values = [store.target_matrix([l], [FeatureSet.GEO])[0][0]
                  for l in ("aa", "bb", "cc")]
        assert values == [0.0, 0.5, 1.0]

    def test_constant_geo_column_scales_to_zero(self, tmp_path):
        # f0 is constant where observed; f1 and f2 scale, bb's f2 imputes 0.0
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1", "f2"],
                         [["aa", "7", "0", "2"], ["bb", "7", "10", "--"],
                          ["cc", "--", "5", "4"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        assert store.values[FeatureSet.GEO].tolist() == \
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 1.0]]
        assert store.observed[FeatureSet.GEO].tolist() == \
            [[True, True, True], [True, True, False], [False, True, True]]

    def test_unobserved_geo_column_reads_zero(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1"],
                         [["aa", "--", "3"], ["bb", "--", "9"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        assert store.values[FeatureSet.GEO].tolist() == [[0.0, 0.0], [0.0, 1.0]]
        assert not store.observed[FeatureSet.GEO][:, 0].any()

    def test_ragged_row_reports_line(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1"],
                         [["aa", "1", "2"], ["bb", "3"]])
        with pytest.raises(TsvFormatError, match="3"):
            load_uriel_tsv({FeatureSet.GEO: path})

    def test_non_numeric_cell(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0"], [["aa", "oops"]])
        with pytest.raises(TsvFormatError, match="oops"):
            load_uriel_tsv({FeatureSet.GEO: path})

    def test_empty_language_intersection(self, tmp_path):
        p1 = write_tsv(tmp_path / "a.tsv", ["lang", "f0"], [["aa", "0.5"]])
        p2 = write_tsv(tmp_path / "b.tsv", ["lang", "f0"], [["bb", "0.5"]])
        with pytest.raises(DataError, match="no language"):
            load_uriel_tsv({FeatureSet.SYNTAX_KNN: p1, FeatureSet.GEO: p2})

    def test_inner_join(self, tmp_path):
        p1 = write_tsv(tmp_path / "a.tsv", ["lang", "f0"],
                       [["aa", "0.5"], ["bb", "0.2"]])
        p2 = write_tsv(tmp_path / "b.tsv", ["lang", "f0"],
                       [["bb", "1"], ["cc", "2"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: p1, FeatureSet.GEO: p2})
        assert list(store.langs) == ["bb"]

    def test_syntax_values_validated_not_rescaled(self, tmp_path):
        path = write_tsv(tmp_path / "s.tsv", ["lang", "f0"], [["aa", "1.5"]])
        with pytest.raises(DataError, match="0, 1"):
            load_uriel_tsv({FeatureSet.SYNTAX_AVERAGE: path})

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "geo.tsv"
        path.write_text("# comment\nlang\tf0\n\naa\t1\nbb\t3\n", encoding="utf-8")
        store = load_uriel_tsv({FeatureSet.GEO: path})
        assert list(store.langs) == ["aa", "bb"]

    def test_load_idempotent(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1"],
                         [["aa", "1", "2"], ["bb", "4", "6"]])
        s1 = load_uriel_tsv({FeatureSet.GEO: path})
        s2 = load_uriel_tsv({FeatureSet.GEO: path})
        assert s1 == s2


class TestGetVector:
    def test_concat_length_is_sum_of_dims(self, tmp_path):
        p1 = write_tsv(tmp_path / "knn.tsv",
                       ["lang"] + [f"f{i}" for i in range(5)],
                       [["aa"] + ["0.1"] * 5])
        p2 = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1", "f2"],
                       [["aa", "1", "2", "3"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: p1, FeatureSet.GEO: p2})
        vec = store.target_matrix(["aa"], [FeatureSet.SYNTAX_KNN, FeatureSet.GEO])[0]
        assert len(vec) == 8

    def test_concatenation_respects_set_order(self, geo_store, tmp_path):
        p1 = write_tsv(tmp_path / "knn.tsv", ["lang", "f0"], [["bbb", "0.9"]])
        p2 = write_tsv(tmp_path / "geo.tsv", ["lang", "f0"], [["bbb", "10"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: p1, FeatureSet.GEO: p2})
        fwd = store.target_matrix(["bbb"], [FeatureSet.SYNTAX_KNN, FeatureSet.GEO])[0]
        rev = store.target_matrix(["bbb"], [FeatureSet.GEO, FeatureSet.SYNTAX_KNN])[0]
        assert fwd.tolist() == rev.tolist()[::-1]

    def test_normalized_component(self, geo_store):
        vec = geo_store.target_matrix(["bbb"], [FeatureSet.GEO])[0]
        assert vec.tolist() == [0.0, 0.5]

    def test_unknown_language_named(self, geo_store):
        with pytest.raises(UnknownLanguageError, match="zzz"):
            geo_store.target_matrix(["zzz"], [FeatureSet.GEO])

    def test_duplicate_set_rejected(self, geo_store):
        with pytest.raises(ValueError, match="duplicate"):
            geo_store.target_matrix(["aaa"], [FeatureSet.GEO, FeatureSet.GEO])

    def test_empty_sets_rejected(self, geo_store):
        with pytest.raises(ValueError, match="nonempty"):
            geo_store.target_matrix(["aaa"], [])


class TestTargetMatrix:
    def test_rows_follow_languages_with_repeats(self, geo_store):
        langs = ["ccc", "aaa", "ccc", "bbb", "aaa"]
        got = geo_store.target_matrix(langs, [FeatureSet.GEO])
        expected = np.stack([geo_store.target_matrix([lang], [FeatureSet.GEO])[0]
                             for lang in langs])
        assert got.shape == (5, 2)
        np.testing.assert_array_equal(got, expected)

    def test_unknown_language_among_repeats_named(self, geo_store):
        with pytest.raises(UnknownLanguageError, match="zzz"):
            geo_store.target_matrix(["aaa", "aaa", "zzz", "bbb"], [FeatureSet.GEO])


class TestNearestLanguages:
    def test_hand_distances(self, geo_store):
        got = geo_store.nearest_languages("aaa", [FeatureSet.GEO], k=2)
        assert got[0] == ("bbb", 0.5)
        assert got[1][0] == "ccc"
        assert got[1][1] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_self_excluded(self, geo_store):
        got = geo_store.nearest_languages("aaa", [FeatureSet.GEO], k=1)
        assert got[0][0] != "aaa"

    def test_lexicographic_tie_break(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0"],
                         [["qqq", "0"], ["bbb", "10"], ["aaa", "10"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        got = store.nearest_languages("qqq", [FeatureSet.GEO], k=2)
        assert [g[0] for g in got] == ["aaa", "bbb"]

    def test_distances_non_decreasing(self, geo_store):
        got = geo_store.nearest_languages("bbb", [FeatureSet.GEO], k=2)
        assert got[0][1] <= got[1][1]

    def test_k_too_large(self, geo_store):
        with pytest.raises(ValueError, match="k="):
            geo_store.nearest_languages("aaa", [FeatureSet.GEO], k=3)

    def test_mask_intersection(self, tmp_path):
        # bbb's second column is missing, so the aaa<->bbb distance uses f0 only
        path = write_tsv(tmp_path / "s.tsv", ["lang", "f0", "f1"],
                         [["aaa", "0.0", "0.0"],
                          ["bbb", "0.3", "--"],
                          ["ccc", "0.4", "0.0"]])
        store = load_uriel_tsv({FeatureSet.SYNTAX_KNN: path})
        got = store.nearest_languages("aaa", [FeatureSet.SYNTAX_KNN], k=2)
        assert got[0] == ("bbb", pytest.approx(0.3))
        assert got[1] == ("ccc", pytest.approx(0.4))


class TestListLanguages:
    def test_sorted(self, tmp_path):
        path = write_tsv(tmp_path / "geo.tsv", ["lang", "f0"],
                         [["fra", "1"], ["amh", "2"], ["eng", "3"]])
        store = load_uriel_tsv({FeatureSet.GEO: path})
        assert list(store.langs) == ["amh", "eng", "fra"]

    def test_store_immutable_arrays(self, geo_store):
        for table in (geo_store.values, geo_store.observed):
            with pytest.raises(ValueError):
                table[FeatureSet.GEO][0, 0] = 0


class TestRoundTrip:
    def test_write_then_reload_equal(self, tmp_path):
        src = write_tsv(tmp_path / "geo.tsv", ["lang", "f0", "f1"],
                        [["aa", "1", "--"], ["bb", "4", "6"], ["cc", "9", "0"]])
        store = load_uriel_tsv({FeatureSet.GEO: src})
        written = write_uriel_tsv(store, tmp_path / "out")
        reloaded = load_uriel_tsv(written)
        assert store == reloaded
