"""The reference model the benchmark checks the engine against.

A dict model of objects, content, names and postings.  The generator
advances one while it builds an op list (it needs to know which objects are
live and which labels they carry); the harness replays the same ops into a
fresh one, feeding it the object ids the engine returned, and compares every
non-mutating result with :meth:`Oracle.check`.  :func:`audit` compares a
*mounted device image* with the model's final state.

Ops are plain tuples (``doc`` is the index of a document in creation order,
never an engine object id, so op lists do not depend on the engine)::

    ("create", doc, content, path, owner, tags)    ("read", doc)
    ("append", doc, data)                          ("find", pairs, limit)
    ("delete", doc)                                ("search", text, limit)
    ("tag", doc, value) / ("untag", doc, value)    ("rank", text, limit)
    ("query", text, limit, (a, kind, b, user))
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

#: the tag ``tag``/``untag`` ops use: served by the engine's default
#: key/value store, and never part of a ``find``, so label writes do not
#: invalidate cached query results.
LABEL_TAG = "UDEF"

WRITE_KINDS = frozenset(("create", "append", "delete", "tag", "untag"))

#: tags whose names the audit compares (FULLTEXT terms are audited through
#: content and ``search_text``, POSIX paths through ``lookup_path``).
_AUDITED_TAGS = frozenset(("USER", "PROJECT", "KIND", "YEAR", LABEL_TAG))


class Doc:
    __slots__ = ("oid", "content", "names", "path")

    def __init__(self, oid: Optional[int], content: bytes, names: set, path: str) -> None:
        self.oid = oid
        self.content = content
        self.names = names
        self.path = path


def user_bytes(op: tuple) -> int:
    """Bytes of content and tag/value names a mutation carries."""
    kind = op[0]
    if kind == "create":
        _, _doc, content, path, owner, tags = op
        return len(content) + len(path) + len("USER/") + len(owner) + sum(map(len, tags))
    if kind == "append":
        return len(op[2])
    if kind in ("tag", "untag"):
        return len(LABEL_TAG) + 1 + len(op[2])
    return 0


class Oracle:
    def __init__(self) -> None:
        self.docs: Dict[int, Doc] = {}          # live documents by doc index
        self.dead: Dict[int, Optional[int]] = {}  # deleted doc index -> oid
        self.by_name: Dict[str, set] = defaultdict(set)
        self.by_token: Dict[str, set] = defaultdict(set)

    # ------------------------------------------------------------ mutations

    def apply(self, op: tuple, result=None) -> None:
        """Advance the model by one mutation (``result`` = the engine's
        return value; a create's is the new object id)."""
        kind = op[0]
        if kind == "create":
            _, doc, content, path, owner, tags = op
            names = {f"USER/{owner}", *tags}
            self.docs[doc] = Doc(result, content, names, path)
            for name in names:
                self.by_name[name].add(doc)
            for token in content.split():
                self.by_token[token.decode()].add(doc)
        elif kind == "append":
            entry = self.docs[op[1]]
            entry.content += op[2]
            for token in op[2].split():
                self.by_token[token.decode()].add(op[1])
        elif kind == "delete":
            entry = self.docs.pop(op[1])
            self.dead[op[1]] = entry.oid
            for name in entry.names:
                self.by_name[name].discard(op[1])
            for token in set(entry.content.split()):
                self.by_token[token.decode()].discard(op[1])
        elif kind == "tag":
            name = f"{LABEL_TAG}/{op[2]}"
            self.docs[op[1]].names.add(name)
            self.by_name[name].add(op[1])
        elif kind == "untag":
            name = f"{LABEL_TAG}/{op[2]}"
            self.docs[op[1]].names.discard(name)
            self.by_name[name].discard(op[1])
        else:
            raise ValueError(f"not a mutation: {kind}")

    def has_label(self, doc: int, value: str) -> bool:
        return f"{LABEL_TAG}/{value}" in self.docs[doc].names

    def live_user_bytes(self) -> int:
        return sum(len(d.content) + len(d.path) + sum(map(len, d.names))
                   for d in self.docs.values())

    # ------------------------------------------------------------ expectations

    def _oids(self, docs, limit: Optional[int] = None) -> List[int]:
        oids = sorted(self.docs[doc].oid for doc in docs)
        return oids if limit is None else oids[:limit]

    def _all_of(self, index: Dict[str, set], keys: Sequence[str]) -> set:
        sets = sorted((index.get(key, set()) for key in keys), key=len)
        return set.intersection(*sets) if sets else set()

    def find(self, pairs: Sequence[str], limit: Optional[int] = None) -> List[int]:
        return self._oids(self._all_of(self.by_name, pairs), limit)

    def search(self, text: str, limit: Optional[int] = None) -> List[int]:
        return self._oids(self._all_of(self.by_token, text.split()), limit)

    def check(self, op: tuple, result) -> bool:
        """Is ``result`` what the engine must answer to the non-mutating
        ``op`` in the model's current state?  Ranked answers are checked for
        shape, not BM25 arithmetic: exactly min(limit, matches) hits, each a
        document holding one of the terms, scores non-increasing."""
        kind = op[0]
        if kind == "read":
            return result == self.docs[op[1]].content
        if kind == "find":
            return result == self.find(op[1], op[2])
        if kind == "search":
            return result == self.search(op[1], op[2])
        if kind == "query":
            a, kind_value, b, user = op[3]
            get = self.by_token.get
            docs = (get(a, set()) & (self.by_name.get(f"KIND/{kind_value}", set())
                                     | get(b, set()))) - self.by_name.get(f"USER/{user}", set())
            return result == self._oids(docs, op[2])
        if kind == "rank":
            matching = set().union(*(self.by_token.get(t, set()) for t in op[1].split()))
            allowed = {self.docs[doc].oid for doc in matching}
            scores = [score for _oid, score in result]
            return (len(result) == min(op[2], len(allowed))
                    and all(oid in allowed for oid, _score in result)
                    and scores == sorted(scores, reverse=True))
        raise ValueError(f"not a read: {kind}")


def audit(fs, oracle: Oracle, seed: int) -> Tuple[int, List[str]]:
    """Compare a mounted image with the model: every live object's content,
    names and path, every deleted object's absence, then 50 ``find`` and 50
    ``search_text`` answers.  Returns (checks made, mismatch descriptions)."""
    checks = 0
    wrong: List[str] = []

    def expect(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            wrong.append(what)

    expect(fs.object_count == len(oracle.docs),
           f"object_count {fs.object_count} != {len(oracle.docs)}")
    for doc, entry in oracle.docs.items():
        expect(fs.read(entry.oid) == entry.content, f"content of doc {doc}")
        names = {str(name) for name in fs.names_for(entry.oid)
                 if name.tag in _AUDITED_TAGS}
        expect(names == entry.names, f"names of doc {doc}: {sorted(names ^ entry.names)}")
        expect(fs.lookup_path(entry.path) == entry.oid, f"path of doc {doc}")
    for doc, oid in oracle.dead.items():
        expect(not fs.exists(oid), f"deleted doc {doc} still exists")
    # Queries are built from a random live object's own names and tokens,
    # so the expected answers are never trivially empty.
    rng = random.Random(f"{seed}/audit")
    live = sorted(oracle.docs)
    for _ in range(50 if live else 0):
        entry = oracle.docs[rng.choice(live)]
        pairs = rng.sample(sorted(entry.names), rng.choice((1, 2)))
        expect(fs.find(*pairs) == oracle.find(pairs), f"find {pairs}")
        tokens = sorted({token.decode() for token in entry.content.split()})
        text = " ".join(rng.sample(tokens, min(len(tokens), rng.choice((1, 2)))))
        expect(fs.search_text(text) == oracle.search(text), f"search {text!r}")
    return checks, wrong
