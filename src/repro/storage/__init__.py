"""Durable profile persistence: WAL + snapshots behind ``ProfileStore``.

The paper's profiles are an in-memory model; this package gives the
serving layer (:mod:`repro.service`) a crash-safe home for them so a
deployment can page millions of registered users in and out of RAM:

* :mod:`repro.storage.records` - the checksummed mutation-record
  format shared by WAL and snapshots, plus the one idempotent
  interpreter (:func:`~repro.storage.records.apply_record`).
* :mod:`repro.storage.store` - the abstract
  :class:`~repro.storage.store.ProfileStore` (append / replay /
  write_snapshot / compact_wal) with fault sites and metrics built in.
* :mod:`repro.storage.jsonl` - the store itself
  (:class:`~repro.storage.jsonl.JsonlProfileStore`: flat JSON-lines
  WAL and snapshot files).
* :mod:`repro.storage.recovery` - snapshot-plus-replay recovery into
  pure data (:class:`~repro.storage.recovery.RecoveredState`) and the
  inverse :func:`~repro.storage.recovery.snapshot_records` stream.

See ``docs/persistence.md`` for the design walk-through.
"""

from repro.storage.jsonl import JsonlProfileStore
from repro.storage.records import (
    OPS,
    apply_record,
    decode_envelope,
    encode_envelope,
    record_crc,
    validate_record,
)
from repro.storage.recovery import RecoveredState, recover_state, snapshot_records
from repro.storage.store import ProfileStore, WalReplay

__all__ = [
    "OPS",
    "JsonlProfileStore",
    "ProfileStore",
    "RecoveredState",
    "WalReplay",
    "apply_record",
    "decode_envelope",
    "encode_envelope",
    "record_crc",
    "recover_state",
    "snapshot_records",
    "validate_record",
]
