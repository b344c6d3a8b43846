"""Tests for tokenization, TF-IDF, message embedding and keyword lookup."""

import re

import numpy as np
import pytest

from shmm.text_embed import (
    KeywordTable,
    NoKnownTokensError,
    compute_idf,
    embed_message,
    load_keyword_vectors,
    nearest_keywords,
    tokenize,
)


def table_from(vocab, vectors, idf=None):
    vectors = np.asarray(vectors, dtype=float)
    idf = np.ones(len(vocab)) if idf is None else np.asarray(idf, dtype=float)
    return KeywordTable(vocabulary=vocab, vectors=vectors, idf=idf)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Watching the Dodgers GAME!") == ["watching", "the", "dodgers", "game"]

    def test_strips_urls_and_mentions_keeps_hashtags(self):
        text = "Go @dodgers #HomeRuns http://t.co/abc123 www.mlb.com tonight"
        assert tokenize(text) == ["go", "homeruns", "tonight"]

    def test_numbers_survive(self):
        assert tokenize("162 games") == ["162", "games"]

    def test_empty(self):
        assert tokenize("@only_mention http://only.url") == []


class TestComputeIdf:
    def test_token_in_every_message(self):
        corpus = [["a", "x"]] * 10
        idf = compute_idf(corpus, ["a"])
        assert idf[0] == pytest.approx(1.0, abs=1e-12)

    def test_token_in_one_of_ten(self):
        corpus = [["a"]] + [["x"]] * 9
        idf = compute_idf(corpus, ["a"])
        assert idf[0] == pytest.approx(2.7047480922384253, abs=1e-12)

    def test_token_absent_from_corpus(self):
        corpus = [["x"]] * 10
        idf = compute_idf(corpus, ["a"])
        assert idf[0] == pytest.approx(3.3978952727983707, abs=1e-12)

    def test_df_counts_messages_not_occurrences(self):
        corpus = [["a", "a", "a"], ["x"]]
        idf_repeated = compute_idf(corpus, ["a"])
        idf_single = compute_idf([["a"], ["x"]], ["a"])
        assert idf_repeated[0] == idf_single[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            compute_idf([], ["a"])


class TestEmbedMessage:
    def test_single_known_token_is_normalized_vector(self):
        table = table_from(["a"], [[3.0, 4.0]], idf=[7.0])
        np.testing.assert_allclose(embed_message(["a"], table), [0.6, 0.8], atol=1e-15)

    def test_equal_weights_orthogonal_vectors(self):
        table = table_from(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])
        out = embed_message(["a", "b"], table)
        np.testing.assert_allclose(out, np.array([1.0, 1.0]) / np.sqrt(2.0), atol=1e-15)

    def test_tf_idf_weighting(self):
        # message {a, a, b} with idf(a)=1, idf(b)=2 -> 2 e1 + 2 e2, normalized
        table = table_from(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], idf=[1.0, 2.0])
        out = embed_message(["a", "a", "b"], table)
        np.testing.assert_allclose(out, np.array([2.0, 2.0]) / np.sqrt(8.0), atol=1e-15)

    def test_unknown_tokens_ignored_all_unknown_raises(self):
        table = table_from(["a"], [[1.0, 0.0]])
        np.testing.assert_allclose(embed_message(["a", "zzz"], table), [1.0, 0.0], atol=1e-15)
        with pytest.raises(NoKnownTokensError):
            embed_message(["zzz", "qqq"], table)

    def test_cancelling_vectors_raise(self):
        table = table_from(["a", "b"], [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(NoKnownTokensError):
            embed_message(["a", "b"], table)

    def test_token_order_invariance(self):
        rng = np.random.default_rng(0)
        table = table_from(list("abcde"), rng.standard_normal((5, 7)))
        msg = ["c", "a", "e", "a", "b"]
        out1 = embed_message(msg, table)
        out2 = embed_message(list(reversed(msg)), table)
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_keyword_scale_invariance(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((4, 6))
        idf = rng.uniform(1.0, 3.0, size=4)
        msg = ["a", "b", "b", "d"]
        out1 = embed_message(msg, table_from(list("abcd"), vectors, idf))
        out2 = embed_message(msg, table_from(list("abcd"), 17.0 * vectors, idf))
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(2)
        table = table_from(list("abcdef"), rng.standard_normal((6, 9)))
        for _ in range(20):
            msg = list(rng.choice(list("abcdef"), size=rng.integers(1, 6)))
            out = embed_message(msg, table)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestNearestKeywords:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((5, 4))
        table = table_from(list("abcde"), vectors)
        direction = vectors[2] / np.linalg.norm(vectors[2])
        assert nearest_keywords(direction, table, 3)[0] == "c"

    def test_full_vocabulary_is_permutation(self):
        rng = np.random.default_rng(4)
        table = table_from(list("abcde"), rng.standard_normal((5, 4)))
        out = nearest_keywords(rng.standard_normal(4), table, 5)
        assert sorted(out) == list("abcde")

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(5)
        vocab = [f"tok{i}" for i in range(30)]
        vectors = rng.standard_normal((30, 6))
        table = table_from(vocab, vectors)
        direction = rng.standard_normal(6)
        direction /= np.linalg.norm(direction)
        sims = {
            tok: float(vec @ direction / np.linalg.norm(vec))
            for tok, vec in zip(vocab, vectors)
        }
        expected = sorted(vocab, key=lambda t: (-sims[t], t))[:3]
        assert nearest_keywords(direction, table, 3) == expected

    def test_ties_break_lexicographically(self):
        table = table_from(["zeta", "alpha"], [[1.0, 0.0], [2.0, 0.0]])
        assert nearest_keywords(np.array([1.0, 0.0]), table, 2) == ["alpha", "zeta"]

    def test_k_too_large(self):
        table = table_from(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            nearest_keywords(np.array([1.0, 0.0]), table, 2)


class TestLoader:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta -1.0 0.5 0.25\n")
        table = load_keyword_vectors(path)
        assert table.vocabulary == ("alpha", "beta")
        assert table.dim == 3
        np.testing.assert_allclose(table.vectors[1], [-1.0, 0.5, 0.25])

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        table = load_keyword_vectors(path)
        assert table.vocabulary == ("alpha", "beta")

    def test_inconsistent_dims_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(ValueError):
            load_keyword_vectors(path)

    def test_duplicate_tokens_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("alpha 1 2\nalpha 3 4\n")
        with pytest.raises(ValueError):
            load_keyword_vectors(path)

    def test_duplicate_token_names_both_lines(self, tmp_path):
        # counted from the header, and across a blank line
        path = tmp_path / "vectors.txt"
        path.write_text("3 2\ncoffee 1 2\nbeach 3 4\n\ncoffee 5 6\n")
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}:5: duplicate token 'coffee' \\(first on line 2\\)$")):
            load_keyword_vectors(path)

    def test_table_still_refuses_duplicate_tokens(self):
        with pytest.raises(ValueError, match="^vocabulary tokens must be unique$"):
            KeywordTable(vocabulary=["a", "a"], vectors=np.eye(2), idf=np.ones(2))
