"""Iterative search refinement: the "current directory" as a query.

A :class:`RefinementSession` models a shell whose working directory is not a
path but a conjunction of constraints:

* ``cd("UDEF/vacation")`` pushes a constraint and narrows the view;
* ``cd_text("beach sunset")`` pushes full-text constraints;
* ``up()`` pops the most recent constraint;
* ``ls()`` lists the objects matching every constraint on the stack;
* ``pwd()`` prints the constraint stack the way a path would be printed;
* ``suggest()`` computes facet counts — for each tag value present in the
  current result set, how many results carry it — so a UI can offer the next
  refinement step, which is the interaction the paper's open question points
  at.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.filesystem import HFADFileSystem
from repro.core.naming import PairLike, as_pair
from repro.errors import NamingError
from repro.index.tags import TAG_FULLTEXT, TagValue


class RefinementSession:
    """An interactive narrowing of the object set, one constraint at a time."""

    def __init__(self, fs: HFADFileSystem) -> None:
        self.fs = fs
        self._constraints: List[TagValue] = []

    # ------------------------------------------------------------ navigation

    def cd(self, constraint: PairLike) -> List[int]:
        """Push a constraint; returns the narrowed result set."""
        pair = as_pair(constraint)
        self._constraints.append(pair)
        return self.ls()

    def cd_text(self, text: str) -> List[int]:
        """Push one FULLTEXT constraint per token of ``text`` the analyzer
        keeps, as written (the index analyzes each value once)."""
        tokens = self.fs.fulltext_index.index.analyzer.query_tokens(text)
        if not tokens:
            raise NamingError(f"no searchable terms in {text!r}")
        for token in tokens:
            self._constraints.append(TagValue(TAG_FULLTEXT, token))
        return self.ls()

    def up(self) -> Optional[TagValue]:
        """Pop the most recent constraint; returns it (None at the root)."""
        if not self._constraints:
            return None
        return self._constraints.pop()

    def reset(self) -> None:
        """Drop every constraint (cd back to the unconstrained root)."""
        self._constraints.clear()

    @property
    def constraints(self) -> Tuple[TagValue, ...]:
        return tuple(self._constraints)

    @property
    def depth(self) -> int:
        return len(self._constraints)

    def pwd(self) -> str:
        """The constraint stack rendered like a path, e.g. ``/USER=margo/UDEF=beach``."""
        if not self._constraints:
            return "/"
        return "/" + "/".join(f"{pair.tag}={pair.value}" for pair in self._constraints)

    # ------------------------------------------------------------ inspection

    def ls(self) -> List[int]:
        """Objects matching every constraint (all objects at the root)."""
        if not self._constraints:
            return self.fs.list_objects()
        return self.fs.find(*self._constraints)

    def ls_named(self) -> List[Tuple[str, int]]:
        """Like :meth:`ls` but rendered as (display name, oid) pairs."""
        result = []
        for oid in self.ls():
            paths = self.fs.paths_for(oid)
            name = paths[0].rsplit("/", 1)[-1] if paths else f"object-{oid}"
            result.append((name, oid))
        return result

    def suggest(self, limit_per_tag: int = 5, exclude_tags: Sequence[str] = ("POSIX",)) -> Dict[str, List[Tuple[str, int]]]:
        """Facet counts over the current result set.

        Returns ``{tag: [(value, count), ...]}`` for values that would
        actually narrow the view (count < current result size), most common
        first.  POSIX paths are excluded by default because every object has
        a distinct one — they never make useful facets.
        """
        current = self.ls()
        current_size = len(current)
        if current_size == 0:
            return {}
        excluded = {tag.upper() for tag in exclude_tags}
        already = {(pair.tag, pair.value) for pair in self._constraints}
        counters: Dict[str, Counter] = {}
        for oid in current:
            for pair in self.fs.names_for(oid):
                if pair.tag in excluded or (pair.tag, pair.value) in already:
                    continue
                counters.setdefault(pair.tag, Counter())[pair.value] += 1
        suggestions: Dict[str, List[Tuple[str, int]]] = {}
        for tag, counter in counters.items():
            useful = [(value, count) for value, count in counter.most_common() if count < current_size]
            if useful:
                suggestions[tag] = useful[:limit_per_tag]
        return suggestions
