"""Exporters: registry/stats snapshots as JSON and Prometheus text.

``fs.stats()`` deliberately returns live Python objects (dataclasses, stat
structs) so programmatic callers keep attribute access; these helpers turn
that tree into interchange formats:

* :func:`to_jsonable` / :func:`stats_to_json` — a lossless-enough JSON view
  (dataclasses become dicts, sets become sorted lists, anything opaque
  becomes its ``str``);
* :func:`prometheus_text` — the Prometheus text exposition format.  Nested
  dicts flatten into underscore-joined metric names
  (``hfad_naming_queries 42``); histogram snapshots (the dicts
  :meth:`~repro.telemetry.registry.Histogram.snapshot` produces) are
  recognised structurally and emitted as real Prometheus histograms with
  cumulative ``_bucket{le="..."}`` series.  Every scalar sample gets a
  ``# TYPE`` line: samples under a registry snapshot's ``counters`` /
  ``gauges`` sections are typed accordingly, everything else (the layers'
  point-in-time stat structs) conservatively as ``gauge``.  Pass the registry itself to also emit ``# HELP`` lines from
  instrument descriptions.
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Dict, Iterator, List, Optional, Tuple

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-serializable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def stats_to_json(stats: Dict[str, object], indent: int = 2) -> str:
    """Render a ``fs.stats()``-shaped dict (or any dict) as JSON."""
    return json.dumps(to_jsonable(stats), indent=indent, sort_keys=True)


def _sanitize(part: str) -> str:
    part = _NAME_OK.sub("_", str(part))
    return part or "_"


def _is_histogram_snapshot(value: dict) -> bool:
    return ("count" in value and "sum" in value
            and isinstance(value.get("buckets"), dict))


def _bucket_bound(label: str) -> float:
    # labels are "le_<bound:g>" (see Histogram.snapshot)
    return float(label[3:]) if label.startswith("le_") else float("inf")


def _histogram_lines(name: str, snap: dict) -> List[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for label, count in sorted(snap["buckets"].items(),
                               key=lambda item: _bucket_bound(item[0])):
        cumulative += count
        lines.append(f'{name}_bucket{{le="{_bucket_bound(label):g}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {snap["count"]}')
    lines.append(f'{name}_sum {snap["sum"]:g}')
    lines.append(f'{name}_count {snap["count"]}')
    return lines


#: registry-snapshot section key -> the Prometheus type of its members.
_REGISTRY_KINDS = {"counters": "counter", "gauges": "gauge",
                   "histograms": "histogram"}


def _walk(prefix: str, value, kind: Optional[str] = None,
          instrument: Optional[str] = None,
          ) -> Iterator[Tuple[str, object, Optional[str], Optional[str]]]:
    """Flatten to ``(name, numeric-or-histogram, kind, instrument)`` samples.

    ``kind`` is the Prometheus type when it is structurally known (the
    sample sits under a registry snapshot's ``counters``/``gauges``
    section); ``instrument`` is the registry instrument name the sample
    came from (the ``# HELP`` lookup key), when there is one.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        if _is_histogram_snapshot(value):
            yield prefix, value, "histogram", instrument
            return
        # A registry snapshot is recognised structurally: a dict carrying
        # all three instrument sections types its members.
        is_registry = all(section in value for section in _REGISTRY_KINDS)
        for key, item in value.items():
            if is_registry and key in _REGISTRY_KINDS and isinstance(item, dict):
                section = f"{prefix}_{_sanitize(key)}"
                section_kind = _REGISTRY_KINDS[key]
                for name, entry in item.items():
                    yield from _walk(f"{section}_{_sanitize(name)}", entry,
                                     kind=section_kind, instrument=name)
            else:
                yield from _walk(f"{prefix}_{_sanitize(key)}", item,
                                 kind=kind, instrument=instrument)
        return
    if isinstance(value, bool):
        yield prefix, int(value), kind, instrument
        return
    if isinstance(value, (int, float)):
        yield prefix, value, kind, instrument
        return
    # strings, lists, None, opaque objects: not representable as a sample.


def prometheus_text(stats: Dict[str, object], namespace: str = "hfad",
                    registry=None) -> str:
    """Render a stats/registry snapshot in Prometheus text format.

    ``registry`` (a :class:`~repro.telemetry.registry.MetricsRegistry`)
    is optional; when given, its instrument descriptions become ``# HELP``
    lines for the corresponding samples.
    """
    described = registry.describe() if registry is not None else {}
    lines: List[str] = []
    for name, value, kind, instrument in sorted(
            _walk(_sanitize(namespace), stats), key=lambda sample: sample[0]):
        help_text = ""
        if instrument is not None:
            entry = described.get(instrument)
            if entry is not None:
                help_text = entry[1].replace("\\", "\\\\").replace("\n", " ")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        if isinstance(value, dict):
            lines.extend(_histogram_lines(name, value))
        else:
            lines.append(f"# TYPE {name} {kind or 'gauge'}")
            lines.append(f"{name} {value:g}")
    return "\n".join(lines) + "\n"
