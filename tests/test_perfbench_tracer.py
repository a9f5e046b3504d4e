"""The benchmark's tracer still finds every engine entry point it wraps.

``perfbench/trace.py`` patches named functions and methods across the engine
and refuses to install if one is gone, so renaming or deleting a traced name
breaks traced benchmark runs (``perfbench/run.py --trace 1``).  This guard
keeps that failure in the ordinary test run.
"""

import pathlib
import sys

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import Tracer  # noqa: E402
from repro.core.query import QueryPlanner  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = QueryPlanner.__dict__["estimate"]
    tracer = Tracer()
    try:
        tracer.install()
        assert QueryPlanner.__dict__["estimate"] is not original
    finally:
        tracer.uninstall()
    assert QueryPlanner.__dict__["estimate"] is original
