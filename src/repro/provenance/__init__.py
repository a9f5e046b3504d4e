"""Provenance and application tagging.

Table 1's "Applications" row says applications tag items with the application
name (APP) and the user who ran the application (USER); the paper's own prior
work on provenance-aware systems ("Layering in provenance systems", cited as
[3]) motivates tracking where data came from.  This package provides both:

* :class:`~repro.provenance.tagger.ApplicationContext` /
  :class:`~repro.provenance.tagger.ProvenanceTagger` — a context-manager that
  stamps every object created inside it with APP/USER names automatically;
* a derivation graph (``derive``) recording which objects were produced from
  which as ``SOURCE/<oid>`` names on the derived object, so lineage is as
  durable as any other name, with ancestor/descendant queries.
"""

from repro.provenance.tagger import ApplicationContext, ProvenanceRecord, ProvenanceTagger

__all__ = ["ProvenanceTagger", "ApplicationContext", "ProvenanceRecord"]
