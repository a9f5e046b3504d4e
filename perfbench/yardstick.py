"""A yardstick for how fast this machine runs Python at this moment.

The reference box does not run at one speed.  The same pure-Python loop takes
anything from 1x to 2x as long from one minute to the next (neighbours on
the host; measured, see README "Why times are scaled"), and an engine that
is nothing but Python slows down with it: two runs of identical code differ
by 20-70 % in wall time, while ``time x speed`` repeats within a few per cent.

So every time the benchmark reports is *scaled*: the harness interleaves
:func:`spin` — a fixed mix of the things the engine does (dict inserts,
``struct`` packing, slicing, CRC-32, a sort) — with the measured work,
outside every timed interval, and multiplies each interval by
``REFERENCE_S / (mean of the spins before and after it)``.  A reported
millisecond is therefore a millisecond on a machine on which ``spin()`` takes
``REFERENCE_S``; the unscaled wall and the median spin are printed beside it.
The open loop also *paces* itself by the yardstick: its schedule is written
in reference seconds and stretched by the spin before each slice, so that
it offers the same share of the machine's capacity whatever the machine's
speed — at a fixed wall-clock rate a host running at a third of its speed
turns 16 % utilisation into 60 % and a 4 ms p95 into 25 ms.
"""

from __future__ import annotations

import struct
import time
import zlib

#: what one spin takes on the reference box when nothing else is on the host.
REFERENCE_S = 0.0080

_BLOB = bytes(range(256)) * 64
_PACK = struct.Struct(">QI").pack


def spin(times: int = 1) -> float:
    """Run the fixed loop ``times`` times; returns what one took, in seconds."""
    began = time.perf_counter()
    for _ in range(times):
        table = {}
        for i in range(6000):
            table[_PACK(i * 2654435761 % (1 << 40), i)] = _BLOB[i % 1000:i % 1000 + 64]
            if i % 8 == 0:
                zlib.crc32(_BLOB)
        for key in sorted(table):
            table[key]
    return (time.perf_counter() - began) / times


def factor(before: float, after: float) -> float:
    """What to multiply an interval by that ran between two spins."""
    return REFERENCE_S / ((before + after) / 2)
