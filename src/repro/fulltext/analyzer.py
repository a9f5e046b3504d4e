"""Text analysis: tokenization, stop words, stemming.

The analyzer turns raw text (or bytes) into the token stream the inverted
index stores.  It mirrors Lucene's ``StandardAnalyzer`` at a coarse level:
lower-casing, alphanumeric tokenization, a small English stop-word list and
an optional light stemmer (a handful of suffix-stripping rules, enough to
make "photos" match "photo" without pulling in a full Porter implementation).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")

#: minimal English stop-word list; enough to keep index size honest without
#: changing which experiments succeed.
DEFAULT_STOP_WORDS = frozenset(
    """a an and are as at be but by for if in into is it no not of on or such
    that the their then there these they this to was will with""".split()
)

#: first match wins.  A final ``ss`` is kept (``glass``, ``boss``), so a
#: singular meets its ``sses`` plural instead of losing an ``s``.
_SUFFIX_RULES: Sequence[Tuple[str, str]] = (
    ("ies", "y"),
    ("sses", "ss"),
    ("ss", "ss"),
    ("ing", ""),
    ("edly", ""),
    ("ed", ""),
    ("es", ""),
    ("s", ""),
)


@lru_cache(maxsize=1 << 16)
def light_stem(token: str) -> str:
    """Strip common English suffixes; never shortens a token below 3 chars.

    Memoised: a corpus re-stems one vocabulary on every document, and the
    function is pure, so one bounded memo serves every analyzer and thread.
    """
    for suffix, replacement in _SUFFIX_RULES:
        if token.endswith(suffix) and len(token) - len(suffix) + len(replacement) >= 3:
            return token[: len(token) - len(suffix)] + replacement
    return token


@dataclass
class Analyzer:
    """Configurable analysis pipeline.

    :param stop_words: tokens dropped entirely.
    :param stem: apply :func:`light_stem` to each surviving token.
    :param min_token_length: tokens shorter than this are dropped.
    :param max_token_length: tokens longer than this are truncated.
    """

    stop_words: frozenset = DEFAULT_STOP_WORDS
    stem: bool = True
    min_token_length: int = 2
    max_token_length: int = 64

    def tokenize(self, text) -> List[str]:
        """Raw tokenization: lower-cased alphanumeric runs, no filtering."""
        if isinstance(text, (bytes, bytearray)):
            text = bytes(text).decode("utf-8", errors="replace")
        return [match.group(0).lower() for match in _TOKEN_RE.finditer(text)]

    def analyze(self, text) -> List[str]:
        """Full pipeline: tokenize, drop stop words, stem, length-filter."""
        tokens = self.query_tokens(text)
        return [light_stem(token) for token in tokens] if self.stem else tokens

    def analyze_with_positions(self, text) -> List[Tuple[str, int]]:
        """Like :meth:`analyze` but keeps each token's position in the stream.

        Positions count *surviving* pre-filter positions (stop words still
        advance the counter) so phrase queries behave like Lucene's.
        """
        result: List[Tuple[str, int]] = []
        for position, token in enumerate(self.tokenize(text)):
            if token in self.stop_words or len(token) < self.min_token_length:
                continue
            token = token[: self.max_token_length]
            if self.stem:
                token = light_stem(token)
            result.append((token, position))
        return result

    def analyze_query(self, text) -> List[str]:
        """Analyze a query string with the same pipeline as documents."""
        return self.analyze(text)

    def query_tokens(self, text) -> List[str]:
        """The tokens :meth:`analyze` keeps, unstemmed: a search's values,
        which the index analyzes once (``buildings`` -> ``building`` ->
        ``build``: stemming is not idempotent)."""
        return [token[: self.max_token_length] for token in self.tokenize(text)
                if token not in self.stop_words and len(token) >= self.min_token_length]
