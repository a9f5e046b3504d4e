"""The hFAD core: the paper's primary contribution.

"There are two main components to the native hFAD API.  The naming interfaces
map tagged search-terms to objects.  The access interfaces manipulate an
object, once it has been located." (Section 3.1)

* :mod:`repro.core.naming` — the naming interfaces: vectors of tag/value
  pairs resolved as conjunctions, with every result being a set of object ids.
* :mod:`repro.core.access` — a file-like handle over the access interfaces
  (the facade's POSIX-compatible ``read`` and ``write`` plus the new
  ``insert`` and two-argument ``truncate``).
* :mod:`repro.core.query` — boolean queries over tags (AND/OR/NOT) and the
  selectivity-based planner (the paper's third open question).
* :mod:`repro.core.filesystem` — :class:`HFADFileSystem`, the facade that
  wires the OSD, the index stores and both interface families together; this
  is the class examples and the POSIX veneer build on.

The paper leaves transactionality open ("the OSD may be transactional, but
this is an implementation decision").  Here it has one owner,
:class:`~repro.recovery.RecoveryManager`: every facade operation is one WAL
transaction, and ``with fs.begin(): ...`` makes a group of them one.
"""

from repro.core.access import ObjectHandle
from repro.core.filesystem import HFADFileSystem
from repro.core.naming import NamingInterface
from repro.core.query import And, Not, Or, Query, QueryPlanner, TagTerm, parse_query

__all__ = [
    "HFADFileSystem",
    "NamingInterface",
    "ObjectHandle",
    "Query",
    "TagTerm",
    "And",
    "Or",
    "Not",
    "QueryPlanner",
    "parse_query",
]
