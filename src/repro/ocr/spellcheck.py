"""Damerau-Levenshtein spell checker for OCR output repair (§5.2).

Tesseract-style errors ("passwod", "passw0rd") are corrected against a
dictionary of the keywords the classifier cares about: form vocabulary,
brand names, and frequent ground-truth phishing terms.  Correction is
conservative — a word is only rewritten when a dictionary entry lies one
edit away and the word itself is out-of-dictionary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# Core lexicon: form/credential vocabulary that the paper's features key on.
DEFAULT_LEXICON: Tuple[str, ...] = (
    "account", "address", "alert", "bank", "billing", "card", "cash",
    "confirm", "continue", "credit", "customer", "debit", "email",
    "enter", "forgot", "free", "help", "home", "login", "logon", "member",
    "mobile", "money", "name", "number", "online", "page", "password",
    "pay", "payment", "phone", "pin", "please", "prize", "register",
    "reset", "secure", "security", "sign", "signin", "submit", "support",
    "transfer", "update", "username", "verify", "wallet", "welcome",
    "winner", "your",
)

#: Edit distance of every correction.  The single-deletion index covers
#: exactly this radius: an out-of-dictionary word is rewritten only to a
#: dictionary word one edit away.
MAX_DISTANCE = 1


def damerau_levenshtein(a: str, b: str, cap: Optional[int] = None) -> int:
    """Edit distance with transpositions (optimal string alignment).

    ``cap`` allows early exit: once every entry of a row exceeds the cap the
    function returns ``cap + 1``.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if cap is not None and abs(la - lb) > cap:
        return cap + 1
    previous2: List[int] = []
    previous = list(range(lb + 1))
    for i in range(1, la + 1):
        current = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost, # substitution
            )
            if (
                i > 1 and j > 1
                and a[i - 1] == b[j - 2]
                and a[i - 2] == b[j - 1]
            ):
                current[j] = min(current[j], previous2[j - 2] + 1)
        if cap is not None and min(current) > cap:
            return cap + 1
        previous2, previous = previous, current
    return previous[lb]


class SpellChecker:
    """Dictionary-based corrector with a single-deletion candidate index.

    Correction is a pure function of (word, dictionary), so an optional
    word-level memo (:meth:`enable_memo`) caches corrections without
    changing output; OCR noise recycles the same garbled forms across
    pages, making the memo the single biggest win of the capture cache.
    The memo is cleared whenever the dictionary grows.
    """

    def __init__(
        self,
        lexicon: Iterable[str] = DEFAULT_LEXICON,
        min_word_length: int = 4,
    ) -> None:
        """Words shorter than ``min_word_length`` are never corrected.

        Lookups go through a single-deletion index; see :meth:`_search`.
        """
        self.min_word_length = min_word_length
        self._words: Set[str] = set()
        # length -> how many words of that length were added: a word's
        # rank is its insertion order among words of its length
        self._length_counts: Dict[int, int] = defaultdict(int)
        # deletion-form -> [(length, rank, word)]: every word is filed
        # under itself and each of its single-character deletions
        self._deletions: Dict[str, List[Tuple[int, int, str]]] = defaultdict(list)
        self._memo: Optional[Dict[str, str]] = None
        self._stats = None
        for word in lexicon:
            self.add_word(word)

    def enable_memo(self, stats=None) -> None:
        """Memoize per-word corrections, counting into ``stats`` if given.

        ``stats`` is a :class:`~repro.perf.report.CacheStats`; only its
        ``spell_hits``/``spell_misses`` counters are touched.
        """
        if self._memo is None:
            self._memo = {}
        self._stats = stats

    def add_word(self, word: str) -> None:
        word = word.lower()
        if word and word not in self._words:
            self._words.add(word)
            entry = (len(word), self._length_counts[len(word)], word)
            self._length_counts[len(word)] += 1
            for form in self._deletion_forms(word):
                self._deletions[form].append(entry)
            if self._memo:
                # dictionary changed: memoized corrections may be stale
                self._memo.clear()

    @staticmethod
    def _deletion_forms(word: str) -> Set[str]:
        return {word} | {word[:i] + word[i + 1:] for i in range(len(word))}

    def add_words(self, words: Iterable[str]) -> None:
        for word in words:
            self.add_word(word)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._words

    def correct_word(self, word: str) -> str:
        """Return the corrected word, or the word unchanged."""
        lowered = word.lower()
        if lowered in self._words or len(lowered) < self.min_word_length:
            return lowered
        if self._memo is not None:
            cached = self._memo.get(lowered)
            if cached is not None:
                if self._stats is not None:
                    self._stats.spell_hits += 1
                return cached
            if self._stats is not None:
                self._stats.spell_misses += 1
        corrected = self._search(lowered)
        if self._memo is not None:
            self._memo[lowered] = corrected
        return corrected

    def _search(self, lowered: str) -> str:
        """First dictionary word at distance :data:`MAX_DISTANCE`, or
        ``lowered`` unchanged.

        Every optimal-string-alignment edit at distance 1 (deletion,
        insertion, substitution, transposition) leaves the query and the
        dictionary word sharing a member of ``{word} ∪ single-deletions``,
        so the index lookup yields a superset of the true matches.
        Candidates are replayed length ascending, then in insertion order
        within a length, and the first one whose verified distance is 1
        wins — the word a scan of length-adjacent buckets would return
        first.
        """
        candidates: Set[Tuple[int, int, str]] = set()
        for form in self._deletion_forms(lowered):
            candidates.update(self._deletions.get(form, ()))
        for _, _, candidate in sorted(candidates):
            if damerau_levenshtein(lowered, candidate,
                                   cap=MAX_DISTANCE) == MAX_DISTANCE:
                return candidate
        return lowered

    def correct_text(self, text: str) -> str:
        """Correct each whitespace-separated token of ``text``."""
        return " ".join(self.correct_word(token) for token in text.split())
