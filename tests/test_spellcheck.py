"""Damerau-Levenshtein distance and the OCR spell checker."""

import random

import pytest

from repro.ocr.spellcheck import DEFAULT_LEXICON, SpellChecker, damerau_levenshtein
from tests.oracles import ReferenceSpellChecker


class TestDistance:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0),
        ("a", "", 1),
        ("", "abc", 3),
        ("kitten", "sitting", 3),
        ("password", "password", 0),
        ("passwod", "password", 1),       # deletion
        ("pasword", "password", 1),
        ("passwrod", "password", 1),      # transposition
        ("passw0rd", "password", 1),      # substitution
        ("abcdef", "badcfe", 3),          # three transpositions
    ])
    def test_known_values(self, a, b, expected):
        assert damerau_levenshtein(a, b) == expected

    def test_symmetry(self):
        assert damerau_levenshtein("login", "logni") == damerau_levenshtein("logni", "login")

    def test_cap_early_exit(self):
        assert damerau_levenshtein("aaaa", "zzzz", cap=1) == 2  # cap + 1

    def test_cap_length_shortcut(self):
        assert damerau_levenshtein("a", "abcdef", cap=2) == 3


class TestSpellChecker:
    @pytest.fixture(scope="class")
    def checker(self):
        return SpellChecker()

    def test_paper_example(self, checker):
        # §5.2: Tesseract sometimes emits "passwod"
        assert checker.correct_word("passwod") == "password"

    def test_in_dictionary_unchanged(self, checker):
        assert checker.correct_word("password") == "password"

    def test_short_words_untouched(self, checker):
        assert checker.correct_word("pya") == "pya"

    def test_unknown_far_word_unchanged(self, checker):
        assert checker.correct_word("zzzzzzzz") == "zzzzzzzz"

    def test_correct_text(self, checker):
        assert checker.correct_text("enter your passwod") == "enter your password"

    def test_case_folding(self, checker):
        assert checker.correct_word("PassWod") == "password"

    def test_custom_words(self):
        checker = SpellChecker()
        checker.add_word("paypal")
        assert checker.correct_word("paypa1") == "paypal"
        assert "paypal" in checker

    def test_add_words_batch(self):
        checker = SpellChecker(lexicon=())
        checker.add_words(["facebook", "google"])
        assert checker.correct_word("facebok") == "facebook"

    def test_default_lexicon_has_core_vocabulary(self):
        for word in ("password", "username", "login", "verify"):
            assert word in DEFAULT_LEXICON


class TestDeletionIndexEquivalence:
    """The deletion-index search returns the exact correction the reference
    length-bucket scan picks, including its scan-order tie-breaks."""

    def _fuzz_words(self, lexicon, seed=7):
        import numpy as np

        rng = np.random.default_rng(seed)
        alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
        words = []
        for base in lexicon:
            for _ in range(6):
                chars = list(base)
                op = int(rng.integers(4))
                i = int(rng.integers(len(chars)))
                if op == 0 and len(chars) > 1:
                    del chars[i]
                elif op == 1:
                    chars.insert(i, alpha[int(rng.integers(len(alpha)))])
                elif op == 2:
                    chars[i] = alpha[int(rng.integers(len(alpha)))]
                elif op == 3 and i + 1 < len(chars):
                    chars[i], chars[i + 1] = chars[i + 1], chars[i]
                words.append("".join(chars))
            words.append(base + "xy")  # distance 2: must stay unchanged
        words += ["".join(alpha[int(rng.integers(36))]
                          for _ in range(int(rng.integers(4, 12))))
                  for _ in range(200)]
        return words

    def test_matches_reference_scan(self):
        lexicon = list(DEFAULT_LEXICON) + ["paypal", "payal", "appple"]
        indexed = SpellChecker(lexicon)
        reference = ReferenceSpellChecker(lexicon)
        for word in self._fuzz_words(lexicon):
            assert indexed.correct_word(word) == reference.correct_word(word)

    def test_tie_break_prefers_shorter_then_insertion_order(self):
        # "payal" sits at distance 1 from both entries; the reference scan
        # visits the length-4 bucket first — the index must agree
        indexed = SpellChecker(["pays", "payal"[:-1] + "ll"])
        reference = ReferenceSpellChecker(["pays", "payal"[:-1] + "ll"])
        assert indexed.correct_word("payal") == reference.correct_word("payal")

    def test_many_way_ties_resolve_like_the_reference_scan(self):
        # each query is one substitution from 26 words of its length and
        # one deletion from a longer word added first; the reference scan
        # returns the first-added word of the shorter length, whatever
        # order the index's candidate set iterates in
        shuffler = random.Random(3)
        stems = ("gat", "mor", "pel", "sun", "vik", "dor", "lam", "tes")
        lexicon = [stem + "1x" for stem in stems]
        first = {}
        for stem in stems:
            words = [stem + char for char in "abcdefghijklmnopqrstuvwxyz"]
            shuffler.shuffle(words)
            first[stem] = words[0]
            lexicon += words
        indexed = SpellChecker(lexicon)
        reference = ReferenceSpellChecker(lexicon)
        for stem in stems:
            assert indexed.correct_word(stem + "1") == \
                reference.correct_word(stem + "1") == first[stem]

    def test_index_tracks_added_words(self):
        checker = SpellChecker([])
        assert checker.correct_word("verfy") == "verfy"
        checker.add_word("verify")
        assert checker.correct_word("verfy") == "verify"
