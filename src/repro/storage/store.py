"""The ``ProfileStore`` interface: an append-only WAL plus snapshots.

The persistence contract the service programs against:

* **WAL** - :meth:`ProfileStore.append` durably logs one mutation
  record (see :mod:`repro.storage.records`) and returns its log
  sequence number (LSN, monotonically increasing from 1).
  :meth:`ProfileStore.replay` streams the records back in LSN order,
  verifying each record's checksum; a damaged record stops the replay
  (torn-tail tolerance - the damage is reported, everything before it
  is recovered).
* **Snapshots** - :meth:`ProfileStore.write_snapshot` atomically
  replaces the current snapshot with a new record stream tagged with
  the LSN it covers; recovery loads the snapshot and replays only the
  WAL records *after* that LSN. :meth:`ProfileStore.compact_wal`
  optionally drops the covered prefix.

The implementation is :class:`~repro.storage.jsonl.JsonlProfileStore`
(flat JSON-lines files). It is safe for concurrent use from many
threads: every operation runs under one internal mutex at lock level
``store`` (45) - below the service's user/registry locks that are held
while appending, above only the metrics locks (see
:mod:`repro.concurrency.locks`).

Fault sites ``storage.append``, ``storage.replay`` and
``storage.snapshot`` are planted in the shared entry points, so the
chaos harness can fail persistence exactly like any other component.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Mapping

from repro.concurrency.locks import LEVEL_STORE, Mutex
from repro.faults.registry import get_fault_registry
from repro.obs.metrics import get_registry

__all__ = ["ProfileStore", "WalReplay"]


class WalReplay:
    """An iterator over ``(lsn, record)`` pairs with damage accounting.

    Iterating yields checksum-verified records in LSN order and stops
    at the first damaged/torn record. After (or during) iteration,
    :attr:`torn_tail` reports whether a damaged record cut the replay
    short and :attr:`error` carries its decode error.
    """

    def __init__(self, source: Iterator[tuple[int, dict]]) -> None:
        self._source = source
        self.records_read = 0
        self.torn_tail = False
        self.error: Exception | None = None

    def __iter__(self) -> Iterator[tuple[int, dict]]:
        from repro.exceptions import StorageError

        while True:
            try:
                lsn, data = next(self._source)
            except StopIteration:
                return
            except StorageError as error:
                # A torn or corrupt record: everything before it is
                # valid, nothing after it is trusted.
                self.torn_tail = True
                self.error = error
                registry = get_registry()
                if registry.enabled:
                    registry.inc("storage.torn_tails")
                return
            self.records_read += 1
            yield lsn, data


class ProfileStore(ABC):
    """Durable WAL + snapshot storage behind a small uniform surface.

    Subclasses implement the raw primitives (``_append_records``,
    ``_replay_records``, ...); the shared entry points here add the fault
    sites, metrics and locking discipline, so chaos testing reaches
    every store operation through one surface.
    """

    def __init__(self) -> None:
        self._lock = Mutex(level=LEVEL_STORE, name="storage.store")

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------
    def append(self, record: Mapping) -> int:
        """Durably log one mutation record; returns its LSN.

        Raises:
            StorageError: If the record is malformed or the backend
                write fails.
        """
        return self.append_many([record])

    def append_many(self, records: Iterable[Mapping]) -> int:
        """Log a batch of records in one backend write; returns the
        last LSN (the bulk-registration fast path)."""
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("storage.append")
        records = list(records)
        from repro.storage.records import validate_record

        for record in records:
            validate_record(record)
        with self._lock:
            last = self._append_records(records)
        registry = get_registry()
        if registry.enabled:
            registry.inc("storage.appends", len(records))
        return last

    def replay(self, after: int = 0) -> WalReplay:
        """Stream WAL records with ``lsn > after`` in order.

        Returns a :class:`WalReplay`; see its docs for torn-tail
        accounting.
        """
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("storage.replay")
        registry = get_registry()
        if registry.enabled:
            registry.inc("storage.replays")
        return WalReplay(self._replay_records(after))

    @abstractmethod
    def last_lsn(self) -> int:
        """The LSN of the newest durable WAL record (0 when empty)."""

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def write_snapshot(self, records: Iterable[Mapping], lsn: int) -> None:
        """Atomically replace the snapshot with ``records`` as of ``lsn``.

        The stream is consumed once; on any failure the previous
        snapshot must remain intact (write-then-swap).
        """
        faults = get_fault_registry()
        if faults.enabled:
            faults.fire("storage.snapshot")
        with self._lock:
            self._write_snapshot_records(records, lsn)
        registry = get_registry()
        if registry.enabled:
            registry.inc("storage.snapshots")

    @abstractmethod
    def load_snapshot(self) -> tuple[int, Iterator[dict]] | None:
        """The current snapshot as ``(covered_lsn, record_iterator)``,
        or ``None`` when no snapshot has been written.

        Raises:
            StorageError: If the snapshot is damaged (snapshots are
                swapped in atomically, so damage is never expected).
        """

    @abstractmethod
    def compact_wal(self, upto: int) -> int:
        """Drop WAL records with ``lsn <= upto`` (they are covered by a
        snapshot); returns how many records were dropped."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abstractmethod
    def flush(self) -> None:
        """Push buffered writes to the OS (eviction calls this)."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release file handles/connections."""

    def __enter__(self) -> "ProfileStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Backend primitives
    # ------------------------------------------------------------------
    @abstractmethod
    def _append_records(self, records: list[Mapping]) -> int:
        """Durably write validated records; returns the last LSN."""

    @abstractmethod
    def _replay_records(self, after: int) -> Iterator[tuple[int, dict]]:
        """Yield verified ``(lsn, record)`` pairs; raise
        :class:`~repro.exceptions.StorageError` at a damaged record."""

    @abstractmethod
    def _write_snapshot_records(self, records: Iterable[Mapping], lsn: int) -> None:
        """Write and atomically publish the snapshot stream."""
