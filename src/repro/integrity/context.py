"""Shared integrity state: counters, quarantine and the retrying read path.

One :class:`IntegrityContext` is shared by every page store of a filesystem
instance.  It owns:

* the :class:`IntegrityStats` counter block surfaced through
  ``fs.stats()["integrity"]`` — plain attribute increments on the hot paths,
  read only when a snapshot is asked for, so ``telemetry=False`` pays
  nothing extra;
* the **quarantine** — page ids whose device bytes failed verification and
  could not (yet) be repaired.  Reads of a quarantined page fail fast with
  :class:`~repro.errors.CorruptionError` instead of re-reading and
  re-verifying damaged bytes; the scrubber releases a page once a repair
  verifies.  Cached (in-pool) copies keep serving — they are the last good
  image and the scrubber's first repair source;
* the bounded-retry device read used on every page-in (and by the scrubber),
  parameterized by a :class:`~repro.integrity.retry.RetryPolicy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Set

from repro.errors import TransientDeviceError
from repro.integrity.retry import RetryPolicy, retrying
from repro.opcontext import current_operation


@dataclass
class IntegrityStats:
    """Counters for checksum, retry, scrub and degradation activity."""

    #: page frames verified on page-in (device reads only; cache hits skip).
    checksum_verifications: int = 0
    #: page frames that failed verification.
    checksum_failures: int = 0
    #: transient device errors observed on the retrying read path.
    transient_errors: int = 0
    #: retries issued (a read that succeeds on attempt 3 counts 2).
    retries: int = 0
    #: reads that recovered after at least one retry.
    transient_recovered: int = 0
    #: reads that exhausted the retry budget.
    retry_exhausted: int = 0
    #: reads rejected because the page was quarantined.
    quarantined_reads: int = 0
    # -- scrubber -----------------------------------------------------------
    scrub_runs: int = 0
    scrub_pages_scanned: int = 0
    scrub_pages_repaired_cache: int = 0
    scrub_pages_repaired_wal: int = 0
    scrub_pages_quarantined: int = 0
    scrub_pages_released: int = 0
    # -- graceful degradation ----------------------------------------------
    #: queries answered via the degraded (rescan) fallback.
    degraded_queries: int = 0
    #: degraded queries whose fallback index is incomplete (some object
    #: bytes were unreadable) — their results are flagged partial.
    partial_results: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "checksum_verifications": self.checksum_verifications,
            "checksum_failures": self.checksum_failures,
            "transient_errors": self.transient_errors,
            "retries": self.retries,
            "transient_recovered": self.transient_recovered,
            "retry_exhausted": self.retry_exhausted,
            "quarantined_reads": self.quarantined_reads,
            "scrub_runs": self.scrub_runs,
            "scrub_pages_scanned": self.scrub_pages_scanned,
            "scrub_pages_repaired_cache": self.scrub_pages_repaired_cache,
            "scrub_pages_repaired_wal": self.scrub_pages_repaired_wal,
            "scrub_pages_quarantined": self.scrub_pages_quarantined,
            "scrub_pages_released": self.scrub_pages_released,
            "degraded_queries": self.degraded_queries,
            "partial_results": self.partial_results,
        }


@dataclass
class IntegrityContext:
    """Per-filesystem integrity state shared by all of its page stores."""

    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    sleep: Callable[[float], None] = time.sleep
    stats: IntegrityStats = field(default_factory=IntegrityStats)
    quarantine: Set[int] = field(default_factory=set)

    # ------------------------------------------------------------ quarantine

    def is_quarantined(self, page_id: int) -> bool:
        return page_id in self.quarantine

    def quarantine_page(self, page_id: int) -> bool:
        """Mark a page's device bytes as bad; True if newly quarantined."""
        if page_id in self.quarantine:
            return False
        self.quarantine.add(page_id)
        return True

    def release_page(self, page_id: int) -> bool:
        """Lift the quarantine after a verified repair or rewrite."""
        if page_id in self.quarantine:
            self.quarantine.discard(page_id)
            return True
        return False

    # ------------------------------------------------------------ device I/O

    def read_blocks(self, device, block: int, nblocks: int) -> bytes:
        """Device read with bounded retry on transient faults."""
        state = {"retried": False}

        def attempt() -> bytes:
            try:
                return device.read_blocks(block, nblocks)
            except TransientDeviceError:
                self.stats.transient_errors += 1
                raise

        def on_retry(_attempt: int) -> None:
            state["retried"] = True
            self.stats.retries += 1
            op = current_operation()
            if op is not None:
                op.integrity_retries += 1

        try:
            raw = retrying(attempt, self.retry_policy, sleep=self.sleep,
                           on_retry=on_retry)
        except TransientDeviceError:
            self.stats.retry_exhausted += 1
            raise
        if state["retried"]:
            self.stats.transient_recovered += 1
        return raw
