"""WAL/snapshot record format: checksummed, self-describing edit ops.

The persistence layer logs **profile mutations**, not object graphs:
each record is a plain dict with an ``"op"`` tag naming one of the
service's durable mutations, referencing profiles and preferences in
the :mod:`repro.io.serialize` dict formats. The same record vocabulary
is used by the WAL (one record per mutation) and by snapshots (a
snapshot is simply a replayable stream of ``register``/``import``
records), so recovery needs exactly one interpreter:
:func:`apply_record`.

On disk every record is wrapped in an **envelope** carrying a log
sequence number and a CRC-32 checksum of the canonically-serialised
payload::

    {"lsn": 17, "crc": 3735928559, "data": {"op": "add", ...}}

:func:`encode_envelope`/:func:`decode_envelope` implement the wrapping;
a record whose checksum does not match (a torn write, a flipped bit)
raises :class:`~repro.exceptions.StorageError` so the store can stop a
replay at the first damaged record instead of rebuilding garbage.

Replay is **idempotent** by construction: re-applying an ``add`` whose
preference is already present, a ``remove`` whose preference is already
gone, or an ``update`` that already happened is a no-op. Idempotency is
what makes the snapshot-vs-WAL overlap harmless - a snapshot taken at
LSN *n* may already include the effect of record *n*, and replaying
record *n* on top of it must not corrupt the profile.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable, Mapping, MutableMapping

from repro.exceptions import StorageError

__all__ = [
    "OPS",
    "apply_record",
    "canonical_payload",
    "decode_envelope",
    "encode_envelope",
    "record_crc",
    "validate_record",
]

#: The durable mutation vocabulary. ``register``/``unregister`` change
#: the user directory; ``add``/``remove``/``update`` edit one profile;
#: ``import`` replaces a whole profile (also how snapshots encode a
#: materialised non-default profile).
OPS = ("register", "unregister", "add", "remove", "update", "import")

#: op -> the payload fields it must carry besides ``op`` and ``user``.
_REQUIRED: dict[str, tuple[str, ...]] = {
    "register": ("persona",),
    "unregister": (),
    "add": ("preference",),
    "remove": ("preference",),
    "update": ("preference", "score"),
    "import": ("profile",),
}


def validate_record(data: Mapping) -> None:
    """Reject structurally malformed records before they hit the log.

    Raises:
        StorageError: On an unknown op or a missing required field.
    """
    op = data.get("op")
    if op not in OPS:
        raise StorageError(f"unknown WAL op {op!r}; expected one of {OPS}")
    if not data.get("user"):
        raise StorageError(f"WAL record {op!r} is missing its user id")
    for field in _REQUIRED[op]:
        if field not in data:
            raise StorageError(f"WAL record {op!r} is missing field {field!r}")


def canonical_payload(data: Mapping) -> str:
    """The canonical JSON serialisation the checksum is computed over.

    Sorted keys and tight separators make the serialisation a pure
    function of the record's content, so the CRC computed at append
    time can be re-verified from the parsed record at replay time.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def record_crc(data: Mapping) -> int:
    """CRC-32 of the record's canonical serialisation."""
    return zlib.crc32(canonical_payload(data).encode("utf-8"))


def encode_envelope(lsn: int, data: Mapping) -> str:
    """One checksummed on-disk line for ``data`` at ``lsn``."""
    return json.dumps(
        {"lsn": lsn, "crc": record_crc(data), "data": data},
        sort_keys=True,
        separators=(",", ":"),
    )


def decode_envelope(text: str) -> tuple[int, dict]:
    """Parse and verify one envelope produced by :func:`encode_envelope`.

    Raises:
        StorageError: If the envelope is unparsable, incomplete, or its
            checksum does not match the payload (a torn or corrupt
            record).
    """
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as error:
        raise StorageError(f"unparsable WAL record: {error}") from error
    if (
        not isinstance(envelope, dict)
        or not isinstance(envelope.get("lsn"), int)
        or not isinstance(envelope.get("crc"), int)
        or not isinstance(envelope.get("data"), dict)
    ):
        raise StorageError("malformed WAL envelope (need lsn/crc/data)")
    data = envelope["data"]
    if record_crc(data) != envelope["crc"]:
        raise StorageError(
            f"WAL record {envelope['lsn']} failed its checksum (torn or "
            "corrupt write)"
        )
    return envelope["lsn"], data


def _profile_with_preferences(profile: Mapping, preferences: list) -> dict:
    """A fresh profile dict sharing everything but the preference list."""
    updated = dict(profile)
    updated["preferences"] = preferences
    return updated


def _materialize(
    user: str,
    directory: Mapping[str, Mapping],
    overrides: Mapping[str, Mapping],
    baseline: Callable[[str, Mapping], dict] | None,
) -> dict:
    """The user's current serialized profile, from override or baseline."""
    override = overrides.get(user)
    if override is not None:
        return _profile_with_preferences(override, list(override["preferences"]))
    if baseline is None:
        raise StorageError(
            f"edit record for user {user!r} needs a baseline profile, but "
            "no baseline factory was supplied to recovery"
        )
    persona = directory.get(user)
    if persona is None:
        raise StorageError(f"edit record for unregistered user {user!r}")
    base = baseline(user, persona)
    return _profile_with_preferences(base, list(base["preferences"]))


def apply_record(
    data: Mapping,
    directory: MutableMapping[str, dict],
    overrides: MutableMapping[str, dict],
    baseline: Callable[[str, Mapping], dict] | None = None,
) -> None:
    """Fold one record into the pure-data recovered state.

    ``directory`` maps user id to the persona payload of its
    ``register`` record; ``overrides`` maps user id to the serialized
    profile of every user whose profile differs from their persona
    default. ``baseline(user, persona)`` supplies the serialized
    *default* profile when an edit record targets a user with no
    override yet (the service passes its default-profile builder; see
    :func:`repro.storage.recovery.recover_state`).

    Application is idempotent - see the module docstring.
    """
    validate_record(data)
    op = data["op"]
    user = data["user"]
    if op == "register":
        # Idempotent: a replayed register never clobbers later state.
        if user not in directory:
            directory[user] = dict(data["persona"])
        return
    if op == "unregister":
        directory.pop(user, None)
        overrides.pop(user, None)
        return
    if op == "import":
        if user not in directory:
            raise StorageError(f"import record for unregistered user {user!r}")
        overrides[user] = data["profile"]
        return

    profile = _materialize(user, directory, overrides, baseline)
    preferences = profile["preferences"]
    if op == "add":
        preference = data["preference"]
        if preference not in preferences:
            preferences.append(preference)
    elif op == "remove":
        preference = data["preference"]
        if preference in preferences:
            preferences.remove(preference)
    else:  # update: remove the old version, append the re-scored one.
        old = data["preference"]
        replacement = dict(old)
        replacement["score"] = data["score"]
        if old in preferences:
            preferences.remove(old)
            preferences.append(replacement)
        elif replacement not in preferences:
            # Neither old nor new present: the update's add half.
            preferences.append(replacement)
    overrides[user] = profile
