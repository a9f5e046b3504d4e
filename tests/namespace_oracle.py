"""The namespace oracle: what every completed operation promised.

A :class:`Namespace` maps each live object to its content, its ``UDEF``
names and its POSIX paths, and keeps the postings a full-text index must
answer with in a :class:`BruteForceIndex`.  Copies are cheap (entries are
immutable), so a caller can keep the state before and after every
operation and ask which of them a recovered image holds.
"""

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet

from repro.fulltext import Analyzer, SearchHit
from repro.query import bm25_idf, bm25_scorer

WORDS = (
    "search namespace index posting btree mount journal replay object tag "
    "query rank score device block extent metadata crash commit marker"
).split()


class BruteForceIndex:
    """What an inverted index must answer, computed by scanning every document.

    Texts here are drawn from WORDS (no stop words, nothing too short), so a
    term's position is its index in the document's analyzed stream.
    """

    def __init__(self):
        self.analyzer = Analyzer()
        self.docs = {}  # doc id -> analyzed term stream

    def add(self, doc_id, text):
        self.docs[doc_id] = self.analyzer.analyze(text)
        return len(self.terms_for(doc_id))

    def append(self, doc_id, text):
        self.docs[doc_id] = self.docs[doc_id] + self.analyzer.analyze(text)
        return len(self.terms_for(doc_id))

    def terms_for(self, doc_id):
        return list(dict.fromkeys(self.docs.get(doc_id, [])))

    def frequencies(self, term):
        return {doc_id: stream.count(term) for doc_id, stream in self.docs.items() if term in stream}

    def search(self, query, combine=set.intersection):
        matches = [set(self.frequencies(term)) for term in self.analyzer.analyze_query(query)]
        return sorted(combine(*matches)) if matches else []

    def search_phrase(self, phrase):
        terms = self.analyzer.analyze_query(phrase)
        return sorted(
            doc_id for doc_id, stream in self.docs.items()
            if terms and any(stream[at:at + len(terms)] == terms for at in range(len(stream)))
        )

    def rank(self, query, k1=1.5, b=0.75):
        average_length = sum(map(len, self.docs.values())) / max(1, len(self.docs))
        scores = {}
        for term in self.analyzer.analyze_query(query):
            frequencies = self.frequencies(term)
            idf = bm25_idf(len(self.docs), len(frequencies))
            score = bm25_scorer(idf, k1, b, average_length, lambda doc_id: len(self.docs[doc_id]))
            for doc_id, tf in sorted(frequencies.items()):
                scores[doc_id] = scores.get(doc_id, 0.0) + score(doc_id, tf)
        hits = [SearchHit(doc_id=doc_id, score=score) for doc_id, score in scores.items()]
        return sorted(hits, key=lambda hit: (-hit.score, hit.doc_id))


@dataclass(frozen=True)
class Entry:
    """One object as the namespace promised it."""

    content: bytes = b""
    names: FrozenSet[str] = frozenset()  # UDEF/... names
    paths: FrozenSet[str] = frozenset()


class Namespace:
    """Objects -> content, names and paths, plus their postings."""

    def __init__(self):
        self.objects: Dict[int, Entry] = {}
        self.postings = BruteForceIndex()

    def copy(self) -> "Namespace":
        twin = Namespace()
        twin.objects = dict(self.objects)
        twin.postings.docs = dict(self.postings.docs)
        return twin

    def put(self, oid: int, **changes) -> None:
        """Create ``oid`` or change its fields; content changes re-index it."""
        self.objects[oid] = replace(self.objects.get(oid, Entry()), **changes)
        if "content" in changes:
            self.postings.add(oid, changes["content"].decode())

    def drop(self, oid: int) -> None:
        del self.objects[oid]
        self.postings.docs.pop(oid)
