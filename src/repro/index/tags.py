"""Tag vocabulary: how callers identify the kind of value they are naming.

Table 1 of the paper:

    ============  =========  =========================
    Use           Tag        Value
    ============  =========  =========================
    POSIX         POSIX      pathname
    Search        FULLTEXT   term
    Manual        USER       logname
                  UDEF       annotations
    Applications  APP        application name
                  USER       logname
    FastPath      ID         object identifier
    ============  =========  =========================

"A tag tells hFAD how to interpret the value and in which of multiple indexes
to search for the value."  Tags are plain strings so applications can invent
new ones (the registry decides whether anything serves them); the constants
below are the well-known set plus IMAGE, the example of an arbitrary index
type from Section 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: POSIX pathnames, served by the key/value store (and the POSIX veneer).
TAG_POSIX = "POSIX"
#: Full-text search terms, served by the inverted index.
TAG_FULLTEXT = "FULLTEXT"
#: Login name of the user who created/tagged the object.
TAG_USER = "USER"
#: Manual, user-defined annotations.
TAG_UDEF = "UDEF"
#: Name of the application that produced the object.
TAG_APP = "APP"
#: Fast path: the value *is* the object identifier (no index consulted).
TAG_ID = "ID"
#: Example arbitrary index type: image content features.
TAG_IMAGE = "IMAGE"

#: The tags of Table 1 (IMAGE is the paper's "arbitrary index" example).
WELL_KNOWN_TAGS = frozenset(
    {TAG_POSIX, TAG_FULLTEXT, TAG_USER, TAG_UDEF, TAG_APP, TAG_ID, TAG_IMAGE}
)


def normalize_tag(tag: str) -> str:
    """Canonicalize a tag name (upper-case, stripped)."""
    return str(tag).strip().upper()


@dataclass(frozen=True)
class TagValue:
    """One tag/value pair of a naming operation.

    "An object is named by one or more tag/value pairs" — naming operations
    take a vector of these and return the conjunction of each pair's matches.
    """

    tag: str
    value: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", normalize_tag(self.tag))
        object.__setattr__(self, "value", str(self.value))

    def as_tuple(self) -> Tuple[str, str]:
        return (self.tag, self.value)

    def __str__(self) -> str:  # e.g. "FULLTEXT/vacation"
        return f"{self.tag}/{self.value}"

    @classmethod
    def parse(cls, text: str) -> "TagValue":
        """Parse the ``TAG/value`` spelling used in the paper's examples."""
        if "/" not in text:
            raise ValueError(f"expected TAG/value, got {text!r}")
        tag, value = text.split("/", 1)
        return cls(tag=tag, value=value)
