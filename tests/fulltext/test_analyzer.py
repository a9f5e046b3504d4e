"""Tests for the text analyzer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.fulltext.analyzer import Analyzer, light_stem


class TestTokenizer:
    def test_lowercases_and_splits(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.tokenize("Hello World") == ["hello", "world"]

    def test_punctuation_separates_tokens(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.tokenize("photo.jpg, 2009-06") == ["photo", "jpg", "2009", "06"]

    def test_bytes_input_accepted(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.tokenize(b"raw bytes here") == ["raw", "bytes", "here"]

    def test_invalid_utf8_does_not_crash(self):
        analyzer = Analyzer(stem=False)
        assert isinstance(analyzer.tokenize(b"\xff\xfe photo"), list)


class TestAnalyze:
    def test_stop_words_removed(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.analyze("the cat and the hat") == ["cat", "hat"]

    def test_short_tokens_dropped(self):
        analyzer = Analyzer(stem=False, min_token_length=3)
        assert analyzer.analyze("go to the gym") == ["gym"]

    def test_long_tokens_truncated(self):
        analyzer = Analyzer(stem=False, max_token_length=5)
        assert analyzer.analyze("abcdefghij") == ["abcde"]

    def test_stemming_plurals(self):
        analyzer = Analyzer(stem=True)
        assert analyzer.analyze("photos") == analyzer.analyze("photo")

    def test_query_and_document_analysis_agree(self):
        analyzer = Analyzer()
        assert analyzer.analyze_query("Vacations") == analyzer.analyze("vacation")

    def test_positions_monotonic(self):
        analyzer = Analyzer(stem=False)
        result = analyzer.analyze_with_positions("alpha the beta gamma")
        tokens = [token for token, _ in result]
        positions = [position for _, position in result]
        assert tokens == ["alpha", "beta", "gamma"]
        assert positions == sorted(positions)
        # stop word still advanced the position counter
        assert positions == [0, 2, 3]


class TestLightStem:
    def test_common_suffixes(self):
        assert light_stem("running") == "runn"
        assert light_stem("parties") == "party"
        assert light_stem("photos") == "photo"

    def test_never_shortens_below_three_chars(self):
        assert light_stem("is") == "is"
        assert light_stem("bed") == "bed"

    #: every suffix rule, each where it applies and where the three-letter
    #: floor (or an earlier rule) stops it.
    STEMS = {
        "parties": "party", "ies": "ies", "pies": "pie",
        "classes": "class", "sses": "sse", "asses": "ass",
        "glass": "glass", "boss": "boss", "pass": "pass",
        "running": "runn", "ing": "ing", "sing": "sing",
        "reportedly": "report", "edly": "edly", "fedly": "fedly",
        "jumped": "jump", "ed": "ed", "bed": "bed",
        "boxes": "box", "es": "es", "yes": "yes",
        "photos": "photo", "cats": "cat", "gas": "gas", "is": "is", "s": "s", "ss": "ss",
    }

    def test_every_suffix_rule_stems_as_before_and_again_from_the_memo(self):
        for _round in range(2):  # the second round is answered by the memo
            assert {word: light_stem(word) for word in self.STEMS} == self.STEMS
        assert light_stem.cache_info().maxsize == 1 << 16

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_stemming_is_idempotent_enough(self, word):
        # Stemming a stem must not crash and must stay non-empty.
        once = light_stem(word)
        assert light_stem(once)


class TestAnalyzerProperties:
    @given(st.text(max_size=500))
    def test_analyze_never_crashes(self, text):
        analyzer = Analyzer()
        tokens = analyzer.analyze(text)
        assert all(isinstance(token, str) and token for token in tokens)

    @given(st.text(max_size=200))
    def test_tokens_survive_reanalysis(self, text):
        analyzer = Analyzer()
        tokens = analyzer.analyze(text)
        reanalyzed = analyzer.analyze(" ".join(tokens))
        assert len(reanalyzed) <= len(tokens) + 5
