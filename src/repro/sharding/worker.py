"""Shard worker: one process, one :class:`PersonalizationService`.

A worker is spawned by the router (``multiprocessing`` *spawn* context,
so it is a fresh interpreter, not a fork of the router's state), builds
its own copy of the deterministic dataset from the spec's seed, binds a
listening TCP socket on ``127.0.0.1``, reports the assigned port back
through its ready pipe and then serves frames (see
:mod:`repro.sharding.protocol`) until told to shut down.

**Cold start from the shared WAL.** When the spec names a ``wal_root``,
the worker opens the router's :class:`JsonlProfileStore` *read-only*
(no repair, no append handle - the router is the single writer),
replays snapshot + WAL into a
:class:`~repro.storage.recovery.RecoveredState`, closes the store and
seeds its service from the recovered population via the service's
``recover_from`` path. The same routine serves the ``resync`` op, which
is how a rebalance brings a surviving worker up to date with edits that
were originally routed elsewhere: every durable mutation was WAL-
appended by the router *before* it was forwarded, so the WAL is always
a complete history and a rebuilt worker needs no per-edit catch-up.

**Exactly-once application.** Each request carries a router-assigned
``rid``; the worker keeps an LRU of recently served rids and answers a
repeat with the cached reply, flagged ``duplicate``. Retries after a
worker death re-send the same rid, so at-least-once delivery from the
router becomes at-most-once application here.

**Simulated I/O wait.** A spec with ``io_wait_ms`` above zero makes
each query sleep that long (releasing the GIL, like a remote row-store
fetch) before the CPU-bound contextual query. It is a
:class:`~repro.sharding.router.ShardRouter` keyword and defaults to
``0``: the ``sharded_wire`` benchmark workload keeps it there, and the
deadline tests raise it to make a worker slower than a request budget.
"""

from __future__ import annotations

import json
import socket
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from multiprocessing.connection import Connection

from repro.concurrency.executor import ConcurrentQueryExecutor
from repro.context.environment import ContextEnvironment
from repro.context.state import ContextState
from repro.db.poi import generate_poi_relation
from repro.exceptions import (
    ProtocolError,
    ReproError,
    RequestTimeout,
    StorageError,
)
from repro.io.serialize import preference_from_dict, profile_to_dict
from repro.query.executor import QueryResult
from repro.resilience import Deadline, deadline_scope
from repro.service.personalization import PersonalizationService
from repro.sharding.protocol import FaultyConnection
from repro.storage.jsonl import JsonlProfileStore
from repro.storage.recovery import recover_state
from repro.workloads.users import Persona, default_profile, study_environment

__all__ = ["WorkerSpec", "ranking_pairs", "worker_main"]


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its serving stack.

    The spec crosses the spawn boundary as a plain dict
    (:meth:`to_payload`/:meth:`from_payload`), so every field is
    JSON-ready.

    Attributes:
        name: Worker name; also its node name on the router's ring.
        num_rows: Size of the deterministic POI relation to generate.
        data_seed: Seed for the relation (identical in every worker
            and in the single-process twin, so rankings agree).
        cache_capacity: Per-user result-cache capacity (``None``
            disables caching).
        io_wait_ms: Simulated per-query I/O wait (see module doc).
        worker_threads: Threads serving one ``query_batch`` inside the
            worker (the existing concurrency layer over this shard);
            ``1`` processes the batch sequentially.
        dedup_capacity: Recently-served request ids remembered for
            exactly-once replies.
        wal_root: Directory of the router's shared profile store;
            ``None`` starts the worker empty (registrations are then
            forwarded by the router).
    """

    name: str
    num_rows: int = 200
    data_seed: int = 7
    cache_capacity: int | None = 128
    io_wait_ms: float = 0.0
    worker_threads: int = 2
    dedup_capacity: int = 4096
    wal_root: str | None = None

    def to_payload(self) -> dict:
        """The spec as a JSON-ready dict (spawn-boundary format)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> WorkerSpec:
        """Rebuild a spec from :meth:`to_payload` output."""
        return cls(**payload)


def ranking_pairs(result: QueryResult) -> list[list[object]]:
    """A result's ranking as wire-ready ``[pid, score]`` pairs.

    Scores are rounded to 12 decimals, so a pair list survives a JSON
    round-trip and compares exactly against a reference service's
    rankings passed through the same function.
    """
    return [
        [item.row.get("pid", -1), round(item.score, 12)]
        for item in result.results
    ]


def _build_service(spec: WorkerSpec) -> PersonalizationService:
    """Build (or rebuild, for ``resync``) the worker's service.

    With a ``wal_root``, the population is recovered through a
    read-only store view; the store is closed again immediately - the
    worker holds no file handle between resyncs.
    """
    environment = study_environment()
    relation = generate_poi_relation(spec.num_rows, seed=spec.data_seed)
    recovered = None
    if spec.wal_root is not None:
        store = JsonlProfileStore(spec.wal_root, read_only=True)
        try:
            recovered = recover_state(
                store,
                lambda user_id, persona: _baseline_profile(
                    environment, persona
                ),
            )
        finally:
            store.close()
    return PersonalizationService(
        environment,
        relation,
        cache_capacity=spec.cache_capacity,
        recover_from=recovered,
    )


def _baseline_profile(environment: ContextEnvironment, persona: dict) -> dict:
    """Serialized default profile for a recovered persona payload."""
    return profile_to_dict(default_profile(Persona(**persona), environment))


class _Dedup:
    """LRU of recently served request ids -> cached reply payloads."""

    def __init__(self, capacity: int) -> None:
        self._capacity = max(1, capacity)
        self._replies: OrderedDict[str, dict] = OrderedDict()
        self.hits = 0

    def get(self, rid: str) -> dict | None:
        reply = self._replies.get(rid)
        if reply is not None:
            self._replies.move_to_end(rid)
            self.hits += 1
        return reply

    def put(self, rid: str, reply: dict) -> None:
        self._replies[rid] = reply
        self._replies.move_to_end(rid)
        while len(self._replies) > self._capacity:
            self._replies.popitem(last=False)

    def __len__(self) -> int:
        return len(self._replies)


class _WorkerRuntime:
    """The per-process serving state behind the frame loop."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.service = _build_service(spec)
        self.dedup = _Dedup(spec.dedup_capacity)
        self.queries_served = 0
        self.edits_applied = 0
        self.resyncs = 0
        self.timed_out = 0
        self._io_wait = max(0.0, spec.io_wait_ms) / 1000.0
        self._deadline: Deadline | None = None

    # ------------------------------------------------------------------
    # Request handlers (one per protocol op)
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> tuple[dict, bool]:
        """Serve one request; returns ``(reply, keep_running)``.

        A ``deadline_ms`` on the request becomes this request's worker-
        side deadline: queries check it before starting and run under a
        ``deadline_scope``, so a router budget propagates into the
        shard's own degradation ladder. A ``Deadline`` is read-only
        after construction, so sharing one across the batch's pool
        threads is safe.
        """
        deadline_ms = request.get("deadline_ms")
        self._deadline = (
            Deadline.after(deadline_ms / 1000.0)
            if isinstance(deadline_ms, (int, float)) and deadline_ms > 0
            else None
        )
        op = request.get("op")
        if op == "ping":
            return self._ping(), True
        if op == "query_batch":
            return self._query_batch(request), True
        if op == "edit":
            return self._edit(request), True
        if op == "resync":
            return self._resync(), True
        if op == "stats":
            return self._stats(), True
        if op == "shutdown":
            return {"ok": True, "name": self.spec.name}, False
        return {"ok": False, "error": f"unknown op {op!r}"}, True

    def _ping(self) -> dict:
        return {
            "ok": True,
            "name": self.spec.name,
            "users": len(self.service),
        }

    def _query_batch(self, request: dict) -> dict:
        """Serve one batch; fresh requests fan out over the shard's
        thread pool (the same concurrency layer the single-process
        service uses), so this worker's I/O waits overlap each other as
        well as other workers'."""
        entries = list(request.get("requests", ()))
        results: list[dict | None] = [None] * len(entries)
        fresh: list[tuple[int, list]] = []
        for position, entry in enumerate(entries):
            cached = self.dedup.get(entry[0])
            if cached is not None:
                results[position] = {**cached, "duplicate": True}
            else:
                fresh.append((position, entry))
        threads = min(self.spec.worker_threads, len(fresh))
        if threads > 1:
            jobs = [
                self._query_job(rid, user_id, values, top_k)
                for _, (rid, user_id, values, top_k) in fresh
            ]
            with ConcurrentQueryExecutor(max_workers=threads) as executor:
                outcomes = executor.run(jobs)
            replies = [
                outcome.result
                if outcome.ok and isinstance(outcome.result, dict)
                else {
                    "rid": entry[0],
                    "ok": False,
                    "error": str(outcome.error),
                }
                for outcome, (_, entry) in zip(outcomes, fresh)
            ]
        else:
            replies = [
                self._query_one(rid, user_id, values, top_k)
                for _, (rid, user_id, values, top_k) in fresh
            ]
        for (position, entry), reply in zip(fresh, replies):
            self.dedup.put(entry[0], reply)
            results[position] = reply
        # Counted here, not in the per-query path: the fresh replies
        # may have been produced on pool threads.
        self.queries_served += sum(1 for reply in replies if reply.get("ok"))
        return {"ok": True, "results": results}

    def _query_job(
        self, rid: str, user_id: str, values: list, top_k: int | None
    ):
        def run() -> dict:
            return self._query_one(rid, user_id, values, top_k)

        return run

    def _query_one(
        self, rid: str, user_id: str, values: list, top_k: int | None
    ) -> dict:
        deadline = self._deadline
        if self._io_wait:
            time.sleep(self._io_wait)
        try:
            if deadline is not None:
                deadline.check("shard.query")
            state = ContextState(self.service.environment, values)
            with deadline_scope(deadline):
                result = self.service.query_at(user_id, state, top_k=top_k)
        except RequestTimeout as error:
            # Typed before the broad handler: an exhausted router budget
            # is a distinct, reportable outcome, not a generic failure.
            self.timed_out += 1
            return {
                "rid": rid,
                "ok": False,
                "timed_out": True,
                "error": str(error),
            }
        except ReproError as error:
            return {"rid": rid, "ok": False, "error": str(error)}
        return {
            "rid": rid,
            "ok": True,
            "duplicate": False,
            "ranking": ranking_pairs(result),
            "degradation": result.degradation,
        }

    def _edit(self, request: dict) -> dict:
        rid = request.get("rid", "")
        cached = self.dedup.get(rid)
        if cached is not None:
            return {**cached, "duplicate": True}
        record = request.get("record") or {}
        try:
            self._apply_record(record)
        except (ReproError, StorageError) as error:
            reply = {"rid": rid, "ok": False, "error": str(error)}
        else:
            self.edits_applied += 1
            reply = {"rid": rid, "ok": True, "duplicate": False}
        self.dedup.put(rid, reply)
        return reply

    def _apply_record(self, record: dict) -> None:
        """Apply one WAL-vocabulary record to the live service."""
        op = record.get("op")
        user = record.get("user", "")
        service = self.service
        if op == "register":
            service.register(user, Persona(**record["persona"]))
        elif op == "unregister":
            service.unregister(user)
        elif op == "add":
            service.add_preference(
                user, preference_from_dict(record["preference"])
            )
        elif op == "remove":
            service.delete_preference(
                user, preference_from_dict(record["preference"])
            )
        elif op == "update":
            service.update_preference(
                user,
                preference_from_dict(record["preference"]),
                record["score"],
            )
        elif op == "import":
            service.import_profile(user, json.dumps(record["profile"]))
        else:
            raise ReproError(f"unknown edit record op {op!r}")

    def _resync(self) -> dict:
        """Rebuild the service from the shared WAL (rebalance path)."""
        self.service.close()
        self.service = _build_service(self.spec)
        self.resyncs += 1
        return {"ok": True, "name": self.spec.name, "users": len(self.service)}

    def _stats(self) -> dict:
        return {
            "ok": True,
            "name": self.spec.name,
            "users": len(self.service),
            "queries_served": self.queries_served,
            "edits_applied": self.edits_applied,
            "resyncs": self.resyncs,
            "timed_out": self.timed_out,
            "dedup_hits": self.dedup.hits,
            "dedup_entries": len(self.dedup),
            "paging": self.service.paging_statistics(),
        }


def _serve_connection(conn: socket.socket, runtime: _WorkerRuntime) -> bool:
    """Serve frames on one router connection until EOF or shutdown.

    The socket is wrapped in a :class:`FaultyConnection`, so a fault
    plan activated inside the worker process exercises the worker end
    of the wire too; with the registry disabled (the normal case) the
    wrapper is a strict passthrough. Every reply echoes the request's
    ``rid`` - the router discards frames whose rid does not match the
    exchange in flight, which is how duplicated or stale frames are
    shed without desynchronising the stream.

    Returns ``True`` to keep accepting (router went away cleanly),
    ``False`` after a ``shutdown`` op.
    """
    link = FaultyConnection(conn)
    while True:
        request = link.recv_frame()
        if request is None:
            return True
        reply, keep_running = runtime.handle(request)
        if "rid" in request:
            reply["rid"] = request["rid"]
        link.send_frame(reply)
        if not keep_running:
            return False


def worker_main(spec_payload: dict, ready: Connection) -> None:
    """Process entry point: build the stack, report the port, serve.

    Args:
        spec_payload: A :meth:`WorkerSpec.to_payload` dict.
        ready: Pipe to the router; receives ``{"port": ...}`` once the
            socket is listening (or ``{"error": ...}`` if the build
            failed, so the router can fail fast instead of timing out).
    """
    spec = WorkerSpec.from_payload(spec_payload)
    try:
        runtime = _WorkerRuntime(spec)
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        server.listen(1)
    except (ReproError, OSError) as error:
        ready.send({"error": f"{type(error).__name__}: {error}"})
        ready.close()
        return
    ready.send({"port": server.getsockname()[1], "name": spec.name})
    ready.close()
    try:
        running = True
        while running:
            conn, _ = server.accept()
            try:
                running = _serve_connection(conn, runtime)
            except (ProtocolError, OSError):
                # A poisoned stream: drop the connection; the router
                # will reconnect or declare this worker dead.
                pass
            finally:
                conn.close()
    finally:
        server.close()
        runtime.service.close()
