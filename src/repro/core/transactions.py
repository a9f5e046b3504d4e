"""Namespace transactions: atomic groups of naming operations.

The paper leaves transactionality open ("in hFAD, the OSD may be
transactional, but this is an implementation decision").  We provide two
complementary mechanisms:

* block-level durability for the OSD lives in :mod:`repro.storage.journal`;
* this module adds *namespace* transactions: a group of naming operations
  (tag additions/removals, object creations) that either all take effect or
  are all rolled back.  They are implemented as an undo log — operations are
  applied eagerly and reverted in reverse order on abort — which is enough to
  keep the index stores consistent when an application assembles a
  multi-step rename/re-tag and changes its mind halfway.

Transactions are not isolated from concurrent readers (hFAD naming results
are explicitly unordered sets, so readers may observe intermediate states);
they provide atomicity of the namespace update only.

When the filesystem runs with ``btree_on_device=True``, each namespace
transaction is additionally bracketed by one WAL transaction
(:class:`~repro.recovery.manager.RecoveryManager`), so the whole group of
operations is atomic across a *crash* too: commit writes one commit marker
covering every page the group touched, and an abort applies the undo
actions and then commits the (no-op) net effect — the redo-only log never
needs to unwind anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.errors import TransactionError

UndoAction = Callable[[], None]


@dataclass
class TransactionStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    undo_actions_run: int = 0


class NamespaceTransaction:
    """An undo-logged group of namespace operations."""

    def __init__(self, manager: "TransactionManager", txid: int) -> None:
        self._manager = manager
        self.txid = txid
        self._undo_log: List[UndoAction] = []
        self.state = "open"
        self._wal_open = False
        recovery = manager.recovery
        if recovery is not None:
            recovery.begin()
            self._wal_open = True

    def _close_wal(self) -> None:
        """Commit the bracketing WAL transaction (commit *and* abort paths:
        an aborted namespace group has already applied its undo operations,
        so its durable net effect is exactly the rolled-back state).

        The flag is cleared only after the WAL commit succeeds: if it
        raises, a retried ``commit()`` must fail loudly again rather than
        silently 'commit' a group that was never made durable."""
        if self._wal_open:
            self._manager.recovery.commit()
            self._wal_open = False

    def _require_open(self) -> None:
        if self.state != "open":
            raise TransactionError(f"transaction {self.txid} is {self.state}")

    def record_undo(self, action: UndoAction) -> None:
        """Register the inverse of an operation that was just applied."""
        self._require_open()
        self._undo_log.append(action)

    def commit(self) -> None:
        """Keep every applied operation and discard the undo log."""
        self._require_open()
        # Durability first: if the WAL commit fails (journal full, device
        # fault) the transaction stays open with its undo log intact, so the
        # caller still observes an un-committed transaction.
        self._close_wal()
        self.state = "committed"
        self._undo_log.clear()
        self._manager.stats.committed += 1

    def abort(self) -> None:
        """Revert every applied operation, newest first (LIFO).

        Undo order matters: later operations may depend on earlier ones
        (create → tag → link), so their inverses must run in reverse.
        """
        self._require_open()
        self.state = "aborted"
        try:
            while self._undo_log:
                action = self._undo_log.pop()
                action()
                self._manager.stats.undo_actions_run += 1
        except BaseException:
            # A failed undo leaves the group half-rolled-back; let the WAL
            # transaction abort (poisoning the durability layer) rather than
            # committing a state neither the user nor the undo log intended.
            if self._wal_open:
                self._wal_open = False
                self._manager.recovery.abort()
            raise
        self._close_wal()
        self._manager.stats.aborted += 1

    @property
    def pending_undo_actions(self) -> int:
        return len(self._undo_log)

    # Context-manager form: commit on success, abort on exception.
    def __enter__(self) -> "NamespaceTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state != "open":
            return False
        if exc_type is None:
            self.commit()
        else:
            self.abort()
        return False


class TransactionManager:
    """Hands out :class:`NamespaceTransaction` objects and tracks statistics.

    :param recovery: optional :class:`~repro.recovery.manager.RecoveryManager`;
        when present every namespace transaction is crash-atomic (one WAL
        transaction brackets the whole group).
    """

    def __init__(self, recovery=None) -> None:
        self._next_txid = 1
        self.recovery = recovery
        self.stats = TransactionStats()

    def begin(self) -> NamespaceTransaction:
        txn = NamespaceTransaction(self, self._next_txid)
        self._next_txid += 1
        self.stats.begun += 1
        return txn
