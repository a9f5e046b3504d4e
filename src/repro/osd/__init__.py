"""Object-based storage device (OSD) layer.

"At its lowest level, hFAD resembles an object-based storage device (OSD).
Storage objects have a unique ID, and higher layers of the system access
these objects by their ID.  Unlike traditional OSDs, our objects are fully
byte-accessible: not only can you read bytes from the object, but you can
insert bytes into the middle of objects, remove bytes from the middle, etc."
(paper, Section 3).

This package implements that layer:

* :mod:`repro.osd.metadata` — per-object metadata (security attributes,
  access/modification times, size), the paper's Section 3.3.
* :mod:`repro.osd.extent_map` — each object's map from logical byte offsets
  to on-device extents, the representation described in Section 3.4
  ("btree databases whose keys are file offsets and whose data items are the
  disk addresses and lengths corresponding to those offsets"), kept as one
  key range per object of the store's master btree.
* :mod:`repro.osd.object_store` — the OSD itself: object create/delete,
  byte-level read/write, and the novel ``insert``/``remove_range`` calls that
  grow and shrink objects from the middle.
"""

from repro.osd.metadata import ObjectMetadata
from repro.osd.extent_map import ExtentMap, ObjectExtent
from repro.osd.object_store import ObjectStore

__all__ = ["ObjectMetadata", "ExtentMap", "ObjectExtent", "ObjectStore"]
