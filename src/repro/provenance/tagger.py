"""Automatic APP/USER tagging and a derivation graph.

Usage::

    tagger = ProvenanceTagger(fs)
    with tagger.application("iphoto", user="margo") as app:
        oid = app.create(photo_bytes, annotations=["vacation"])
        thumbnail = app.derive(thumb_bytes, sources=[oid])

Every object created through the context carries APP/iphoto and USER/margo
names (Table 1's "Applications" row), and the derivation edge from the photo
to its thumbnail is a SOURCE/<photo oid> name on the thumbnail: durable,
queryable, and there again after a remount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.filesystem import HFADFileSystem
from repro.errors import NamingError
from repro.index.tags import TAG_APP, TAG_USER, TagValue


#: the tag of a derivation edge: the derived object carries SOURCE/<oid>
#: for every object it was produced from.
TAG_SOURCE = "SOURCE"


@dataclass
class ProvenanceRecord:
    """What is known about an object's origin."""

    oid: int
    application: Optional[str]
    user: Optional[str]
    sources: List[int] = field(default_factory=list)


class ProvenanceTagger:
    """Wraps a file system with application-context tagging and lineage.

    Everything the tagger knows is a name on the object it describes: APP
    and USER say who made it, and one SOURCE/<oid> name per source records
    each derivation edge.  Names are durable, so a tagger over a remounted
    file system answers exactly as the one that recorded them.
    """

    def __init__(self, fs: HFADFileSystem) -> None:
        self.fs = fs

    # -------------------------------------------------------------- context

    def application(self, name: str, user: str) -> "ApplicationContext":
        """Open an application context; objects created inside it are tagged."""
        if not name or not user:
            raise NamingError("application contexts need both an application name and a user")
        return ApplicationContext(self, application=name, user=user)

    # -------------------------------------------------------------- records

    def provenance_of(self, oid: int) -> Optional[ProvenanceRecord]:
        """The object's APP, USER and SOURCE names, or None if it has none.

        An object stamped by several applications reports the first APP
        (and USER) name in :meth:`HFADFileSystem.names_for` order.
        """
        values: Dict[str, List[str]] = {TAG_APP: [], TAG_USER: [], TAG_SOURCE: []}
        for pair in self.fs.names_for(oid):
            if pair.tag in values:
                values[pair.tag].append(pair.value)
        if not any(values.values()):
            return None
        application, user = values[TAG_APP], values[TAG_USER]
        return ProvenanceRecord(
            oid=oid,
            application=application[0] if application else None,
            user=user[0] if user else None,
            sources=sorted(int(value) for value in values[TAG_SOURCE]),
        )

    def add_derivation(self, derived: int, sources: Iterable[int]) -> None:
        """Record that ``derived`` was produced from ``sources``."""
        source_set = set(sources)
        if derived in source_set:
            raise NamingError("an object cannot derive from itself")
        with self.fs.begin():
            for source in sorted(source_set):
                self.fs.tag(derived, TAG_SOURCE, str(source))

    def ancestors(self, oid: int) -> List[int]:
        """Every transitive source of ``oid`` (sorted)."""
        return self._closure(oid, lambda current: [
            int(pair.value) for pair in self.fs.names_for(current)
            if pair.tag == TAG_SOURCE])

    def descendants(self, oid: int) -> List[int]:
        """Every object transitively derived from ``oid`` (sorted)."""
        return self._closure(
            oid, lambda current: self.fs.find((TAG_SOURCE, str(current))))

    @staticmethod
    def _closure(oid: int, step: Callable[[int], Iterable[int]]) -> List[int]:
        seen: Set[int] = set()
        frontier = list(step(oid))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(step(current))
        return sorted(seen)

    def objects_by_application(self, application: str) -> List[int]:
        """All objects an application has produced (via its APP names)."""
        return self.fs.find(TagValue(TAG_APP, application))


class ApplicationContext:
    """Everything created through this context is tagged APP/<name>, USER/<user>."""

    def __init__(self, tagger: ProvenanceTagger, application: str, user: str) -> None:
        self.tagger = tagger
        self.application = application
        self.user = user
        self.created: List[int] = []

    def __enter__(self) -> "ApplicationContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def create(self, content: bytes = b"", **kwargs) -> int:
        """Like :meth:`HFADFileSystem.create` with APP/USER names added."""
        kwargs.setdefault("owner", self.user)
        kwargs["application"] = self.application
        oid = self.tagger.fs.create(content, **kwargs)
        self.created.append(oid)
        return oid

    def tag_existing(self, oid: int) -> None:
        """Stamp an already-existing object with this context's APP/USER names."""
        self.tagger.fs.tag(oid, TAG_APP, self.application)
        self.tagger.fs.tag(oid, TAG_USER, self.user)

    def derive(self, content: bytes, sources: Sequence[int], **kwargs) -> int:
        """Create an object derived from ``sources`` (records the lineage).

        The object and its SOURCE names commit as one transaction.
        """
        with self.tagger.fs.begin():
            oid = self.create(content, **kwargs)
            self.tagger.add_derivation(oid, sources)
        return oid
