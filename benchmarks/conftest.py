"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md /
EXPERIMENTS.md.  Two kinds of output are produced:

* pytest-benchmark timings (the ``benchmark`` fixture) for the operations the
  experiment is about, and
* a printed result table (rows of counters: index traversals, device reads,
  conflicts, ...) — the "same rows the paper would report" part.  Run with
  ``-s`` to see the tables inline; a full run also records every row, as
  passed, under ``metrics[<table title>]`` of the module's
  ``BENCH_<experiment>.json`` snapshot (:func:`emit_table` is the one way a
  bench records a number).

Smoke mode: setting ``BENCH_SMOKE=1`` shrinks corpora and repetition counts
(:func:`scaled`) so CI can execute every benchmark end to end in seconds and
perf scripts cannot silently rot.  Smoke numbers are *not* meaningful
measurements — they only prove the scripts still run and their invariants
still hold — so a smoke run writes no snapshot.  When pytest-benchmark is not
installed, a no-op ``benchmark`` fixture (one plain call, no timing) keeps
the modules importable.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, Sequence

import pytest

from repro.core import HFADFileSystem
from repro.hierarchical import DesktopSearchEngine, FFSFileSystem
from repro.telemetry import to_jsonable
from repro.workloads import load_into_ffs, load_into_hfad, mixed_corpus

#: per-run JSON metric snapshots land next to the repo root as
#: ``BENCH_<experiment>.json`` (one file per bench module) so successive
#: runs leave a comparable trajectory of numbers, not just prose tables.
SNAPSHOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: reduced-size mode for CI smoke runs (see module docstring).
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: bench-module stem (e.g. ``e10_streaming_exec``) -> its snapshot record.
_BENCH_RECORDS: Dict[str, dict] = {}
_CURRENT_STEM: list = [None]


def _record_for(stem: str) -> dict:
    record = _BENCH_RECORDS.get(stem)
    if record is None:
        record = {"experiment": stem, "smoke": SMOKE, "metrics": {}, "tests": {}}
        _BENCH_RECORDS[stem] = record
    return record


def pytest_runtest_setup(item):
    stem = os.path.splitext(os.path.basename(str(item.fspath)))[0]
    if stem.startswith("bench_"):
        _CURRENT_STEM[0] = stem[len("bench_"):]


def pytest_runtest_logreport(report):
    stem = _CURRENT_STEM[0]
    if stem is None or report.when != "call":
        return
    test_name = report.nodeid.rsplit("::", 1)[-1]
    _record_for(stem)["tests"][test_name] = {
        "outcome": report.outcome,
        "duration_s": round(report.duration, 6),
    }


def pytest_sessionfinish(session):
    if SMOKE:
        return  # the tracked snapshots are full-mode measurements
    for stem, record in _BENCH_RECORDS.items():
        record["written_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        path = os.path.join(SNAPSHOT_DIR, f"BENCH_{stem}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")


def scaled(full, smoke):
    """Pick the full-size or smoke-size value for a benchmark constant."""
    return smoke if SMOKE else full


try:  # pragma: no cover - depends on the environment
    import pytest_benchmark  # noqa: F401 — probe only
except ImportError:  # pragma: no cover
    class _OneShotBenchmark:
        """Fallback when pytest-benchmark is absent: run the callable once.

        Mirrors the two entry points the bench modules use — plain
        ``benchmark(fn)`` and ``benchmark.pedantic(fn, rounds=, ...)`` —
        without any timing machinery.
        """

        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, **_options):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _OneShotBenchmark()


def emit_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format, print and record one experiment's result table.

    The snapshot gets each row as a ``{header: value}`` dict with the values
    as passed (so pass numbers, not formatted strings); ``str()`` is for the
    printed table only.
    """
    rows = [list(row) for row in rows]
    stem = _CURRENT_STEM[0]
    if stem is not None:
        _record_for(stem)["metrics"][title] = to_jsonable(
            [dict(zip(headers, row)) for row in rows])
    cells = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    text = "\n" + "\n".join(lines) + "\n"
    print(text)
    return text


@pytest.fixture(scope="session")
def corpus():
    """The shared mixed corpus (photos + mail + documents)."""
    return mixed_corpus(
        photos=scaled(120, 30),
        mails=scaled(120, 30),
        documents=scaled(60, 15),
        seed=42,
    )


@pytest.fixture(scope="session")
def hfad_with_corpus(corpus):
    """An hFAD instance pre-loaded with the shared corpus.

    The query-result cache is disabled here: these experiments measure index
    traversal and naming-operation cost, and a repeated `fs.find` would
    otherwise time a cache probe after the first iteration.
    """
    fs = HFADFileSystem(num_blocks=1 << 17, query_cache_entries=0)
    oid_by_path = load_into_hfad(fs, corpus)
    yield fs, oid_by_path
    fs.close()


@pytest.fixture(scope="session")
def ffs_with_corpus(corpus):
    """An FFS baseline instance pre-loaded with the same corpus."""
    fs = FFSFileSystem(num_blocks=1 << 17)
    load_into_ffs(fs, corpus)
    return fs


@pytest.fixture(scope="session")
def desktop_search(ffs_with_corpus):
    """A desktop-search engine crawled over the FFS corpus."""
    engine = DesktopSearchEngine(ffs_with_corpus)
    engine.crawl()
    return engine
