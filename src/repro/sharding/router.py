"""Shard router: the consistent-hash front-end over worker processes.

:class:`ShardRouter` spawns ``num_workers`` worker processes (see
:mod:`repro.sharding.worker`), places them on a
:class:`~repro.sharding.hashring.ConsistentHashRing` and serves the
:class:`PersonalizationService` surface by forwarding each request to
the worker owning its user id, over one persistent framed TCP
connection per worker.

**Single-writer durability.** With a ``wal_root``, the router owns the
*only* writable handle on the shared :class:`JsonlProfileStore`: every
durable mutation (``register``/edit records in the WAL vocabulary of
:mod:`repro.storage.records`) is appended to the WAL **before** it is
forwarded to the owning worker. Workers only ever open the store
read-only, to cold-start or resync. The ordering is what makes
rebalancing after a worker death trivially correct: the WAL is a
complete mutation history at all times, so a surviving worker that
re-replays it has every edit - including those whose forwarding was
interrupted by the crash - and nothing needs to be replayed over the
wire.

**Failure handling.** Each worker has a
:class:`~repro.resilience.CircuitBreaker`; a socket/protocol failure or
a chaos kill records a failure, and :meth:`check_health` pings through
the breaker's admission gate (so a flapping worker is probed, not
hammered). A worker declared dead is removed from the ring, the
survivors are resynced from the WAL, and the dead shard's in-flight
requests are retried - carrying their original request ids, which the
workers deduplicate - on their new owners.

**Network failures.** The router distinguishes a *connection* failure
from a *process* death by asking the OS whether the worker process is
still alive. A dead process takes
the crash path above; a live-but-unreachable worker (partition, reset,
poisoned stream) instead charges its breaker one failure, has its
connection re-established with exponential backoff and is retried -
**no ring change, no data movement**. Enough consecutive connection
failures open the breaker, which parks the worker without declaring it
dead; when the link heals the next successful exchange closes the
breaker again. While a worker is unreachable its queries are *hedged*
to another live worker (any worker can serve any user once resynced
from the WAL, so the hedge target is resynced first when stale);
hedging also triggers when a worker exceeds its adaptive latency
deadline (an EWMA of its observed batch latencies). Edits that cannot
be forwarded during a partition are already durable (WAL-first), so
they complete as ``applied_via: "wal"`` and the owner is resynced when
its connection heals. Every request carries a ``rid`` and every reply
echoes it, so duplicated or stale frames on a connection are simply
discarded rather than mis-matched to the wrong request. A batch whose
requests are still undelivered after the last dispatch round gets one
``ok: False`` error row per request; it never raises.
:meth:`drain_worker` is the planned-maintenance twin of
:meth:`kill_worker`: stop routing to the worker, flush the WAL, resync
the survivors, then shut the process down cleanly.

**Configuration.** Worker settings (dataset size and seed, cache,
I/O wait, threads, dedup capacity) are :class:`WorkerSpec`
fields, passed through the router's keyword arguments and validated
when the router is built. The ring, breaker, spawn, hedge and probe
tunings are the module constants below; only the retry and reconnect
budgets are per-router.

**Chaos.** The fault sites of :mod:`repro.faults` integrate at two
levels: ``worker.spawn``/``worker.kill`` fire in the spawn and
dispatch paths (a fired kill *really* kills the target process), and
the transport sites (``conn.send``, ``conn.recv``, ``conn.connect``,
``net.partition``) fire inside the
:class:`~repro.sharding.protocol.FaultyConnection` wrapper every frame
travels through, so a seeded plan deterministically exercises the
crash, partition and recovery machinery end to end.

**Lock order.** The router's dispatch lock (level 5, ``router``) is
held across a fan-out; each socket write/read briefly takes that
worker's connection lock (level 7, ``conn``). Connection locks never
nest with each other, and the front-end process holds none of the
service-stack locks - those live in the worker processes.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, replace
from typing import Any

from repro.concurrency.locks import LEVEL_CONN, LEVEL_ROUTER, Mutex
from repro.context.state import ContextState
from repro.exceptions import (
    ProtocolError,
    ShardError,
    WorkerDied,
    WorkerUnreachable,
)
from repro.faults.registry import InjectedFault, get_fault_registry
from repro.obs.metrics import get_registry
from repro.resilience import CircuitBreaker, current_deadline
from repro.sharding.hashring import ConsistentHashRing
from repro.sharding.protocol import FaultyConnection, faulty_connect
from repro.sharding.worker import WorkerSpec, worker_main
from repro.storage.jsonl import JsonlProfileStore
from repro.storage.records import validate_record
from repro.workloads.users import Persona

__all__ = ["ShardRouter"]

#: One logical query on the router surface: user id, context state,
#: top-k cutoff.
Request = tuple[str, ContextState, int | None]

#: Stale/duplicated frames tolerated on a connection while looking for
#: the reply that echoes the expected rid.
_MAX_STALE_FRAMES = 8

#: Virtual nodes per worker on the hash ring.
_REPLICAS = 64
#: Per-worker circuit breaker: consecutive failures that open it, and
#: seconds before an open breaker admits a half-open probe.
_FAILURE_THRESHOLD = 3
_RECOVERY_TIME = 0.5
#: Seconds to wait for a worker's ready handshake (and to connect).
_SPAWN_TIMEOUT = 60.0
#: A worker whose batch reply takes longer than
#: ``max(_HEDGE_TIMEOUT, _HEDGE_FACTOR * ewma)`` seconds is abandoned
#: for the round and its requests are hedged to another worker.
_HEDGE_TIMEOUT = 2.0
_HEDGE_FACTOR = 8.0
#: Per-probe socket timeout for :meth:`ShardRouter.check_health` (a hung
#: worker costs one timeout, not the whole sweep).
_HEALTH_TIMEOUT = 1.0


@contextmanager
def _socket_timeout(
    conn: FaultyConnection, timeout: float | None
) -> Iterator[None]:
    """Apply a socket timeout for one exchange, then restore blocking."""
    conn.settimeout(timeout)
    try:
        yield
    finally:
        if timeout is not None:
            try:
                conn.settimeout(None)
            except OSError:
                pass  # a torn-down socket no longer cares


class _WorkerHandle:
    """The router's view of one worker process."""

    def __init__(
        self,
        spec: WorkerSpec,
        process: multiprocessing.process.BaseProcess,
        port: int,
        conn: FaultyConnection,
        breaker: CircuitBreaker,
        synced_lsn: int = 0,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self.process = process
        self.port = port
        self.conn = conn
        self.breaker = breaker
        self.alive = True
        # True when the worker is known to have missed a durable edit
        # (e.g. WAL-applied during a partition) or a resync failed; the
        # next successful reconnect or dispatch resyncs it first.
        self.stale = False
        # WAL position this worker last cold-started/resynced at; a
        # hedge target behind the WAL head is resynced before use.
        self.synced_lsn = synced_lsn
        # EWMA of observed batch latencies (ms); None until measured.
        self.ewma_ms: float | None = None
        # Last health-probe round trip (ms); None until probed.
        self.probe_ms: float | None = None
        # Guards the socket (one frame in flight per worker at a time).
        self.conn_lock = Mutex(level=LEVEL_CONN, name=f"shard.conn:{spec.name}")


class ShardRouter:
    """Consistent-hash front-end over ``num_workers`` worker processes.

    Args:
        num_workers: Worker processes to spawn on :meth:`start`.
        wal_root: Directory for the shared profile store. The router
            opens it writable (single writer); workers cold-start and
            resync from it read-only. ``None`` runs without
            durability - a dead worker's shard state is then lost and
            retried edits are re-forwarded instead of resynced.
        max_retries: Re-dispatch rounds for requests stranded by a
            worker death before :meth:`query_many` reports them failed.
        reconnect_attempts / reconnect_backoff: Connection
            re-establishment tries per failure and the base (doubling)
            delay between them, seconds.
        retry_backoff: Base (doubling) delay between re-dispatch
            rounds, seconds.
        **worker: :class:`WorkerSpec` fields (``num_rows``,
            ``data_seed``, ``io_wait_ms``, ``worker_threads``...),
            shared by every worker so all serve the same deterministic
            dataset. An unknown field raises ``TypeError`` here, before
            any process spawns.

    An ambient :func:`~repro.resilience.deadline_scope` rides every
    forwarded query and edit as ``deadline_ms``; workers enforce it.

    Example:
        >>> with ShardRouter(4, wal_root=tmp_path) as router:
        ...     router.register("user1", persona)
        ...     replies = router.query_many([("user1", state, 10)])
    """

    def __init__(
        self,
        num_workers: int,
        wal_root: str | None = None,
        max_retries: int = 2,
        reconnect_attempts: int = 3,
        reconnect_backoff: float = 0.05,
        retry_backoff: float = 0.02,
        **worker: Any,
    ) -> None:
        if num_workers < 1:
            raise ShardError(f"num_workers must be >= 1, got {num_workers}")
        self._num_workers = num_workers
        self._spec = WorkerSpec(name="", wal_root=wal_root, **worker)
        self._max_retries = max_retries
        self._ctx = multiprocessing.get_context("spawn")
        self._ring = ConsistentHashRing(replicas=_REPLICAS)
        self._workers: dict[str, _WorkerHandle] = {}
        self._store: JsonlProfileStore | None = (
            None if wal_root is None else JsonlProfileStore(wal_root)
        )
        self._reconnect_attempts = max(1, reconnect_attempts)
        self._reconnect_backoff = max(0.0, reconnect_backoff)
        self._retry_backoff = max(0.0, retry_backoff)
        self._rid_counter = 0
        self.worker_deaths = 0
        self.rebalances = 0
        self.retried_requests = 0
        self.hedged_requests = 0
        self.conn_failures = 0
        self.reconnects = 0
        self.drains = 0
        # Held across a whole fan-out: groups the batch, serialises
        # ring mutations and rebalances against dispatch.
        self._dispatch = Mutex(level=LEVEL_ROUTER, name="shard.router")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> ShardRouter:
        """Spawn the workers and build the ring."""
        if self._workers:
            raise ShardError("router is already started")
        with self._dispatch:
            for index in range(self._num_workers):
                self._spawn_locked(f"w{index}")
        return self

    def __enter__(self) -> ShardRouter:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut workers down cleanly, reap the processes, close the WAL."""
        with self._dispatch:
            for handle in self._workers.values():
                if not handle.alive:
                    continue
                try:
                    self._exchange(handle, {"op": "shutdown"})
                except (WorkerDied, ProtocolError, OSError):
                    pass
                handle.conn.close()
                handle.alive = False
            for handle in self._workers.values():
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
            self._workers.clear()
            if self._store is not None:
                self._store.close()

    def _spawn_locked(self, name: str) -> _WorkerHandle:
        """Spawn one worker, await its handshake, join it to the ring."""
        get_fault_registry().fire("worker.spawn")
        spec = replace(self._spec, name=name)
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(spec.to_payload(), child),
            name=f"repro-shard-{name}",
            daemon=True,
        )
        process.start()
        child.close()
        if not parent.poll(_SPAWN_TIMEOUT):
            process.terminate()
            raise ShardError(f"worker {name!r} missed its ready handshake")
        handshake = parent.recv()
        parent.close()
        if "error" in handshake:
            process.join(timeout=5.0)
            raise ShardError(
                f"worker {name!r} failed to start: {handshake['error']}"
            )
        sock = socket.create_connection(
            ("127.0.0.1", handshake["port"]), timeout=_SPAWN_TIMEOUT
        )
        sock.settimeout(None)
        handle = _WorkerHandle(
            spec,
            process,
            handshake["port"],
            FaultyConnection(sock),
            CircuitBreaker(
                f"worker:{name}",
                failure_threshold=_FAILURE_THRESHOLD,
                recovery_time=_RECOVERY_TIME,
            ),
            synced_lsn=0 if self._store is None else self._store.last_lsn(),
        )
        self._workers[name] = handle
        self._ring.add_node(name)
        return handle

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ring(self) -> ConsistentHashRing:
        """The live hash ring (mutate only via the router)."""
        return self._ring

    @property
    def workers(self) -> tuple[str, ...]:
        """Names of workers currently on the ring."""
        return self._ring.nodes

    @property
    def store(self) -> JsonlProfileStore | None:
        """The shared profile store (router-writable), if durable."""
        return self._store

    def route(self, user_id: str) -> str:
        """The worker currently owning ``user_id``."""
        with self._dispatch:
            return self._ring.node_for(user_id)

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _next_rid(self) -> str:
        self._rid_counter += 1
        return f"r{self._rid_counter}"

    def _deadline_ms(self) -> int | None:
        """The request budget to put on the wire, if any (ms)."""
        deadline = current_deadline()
        if deadline is None:
            return None
        return max(1, int(deadline.remaining() * 1000.0))

    @staticmethod
    def _read_reply(handle: _WorkerHandle, rid: str) -> dict:
        """Read frames until one echoes ``rid`` (conn lock held).

        Stale or duplicated frames left on the stream by earlier faults
        are discarded, never mis-matched to this request.
        """
        for _ in range(_MAX_STALE_FRAMES):
            reply = handle.conn.recv_frame()
            if reply is None:
                raise WorkerDied(
                    f"worker {handle.name!r} closed its connection",
                    worker=handle.name,
                )
            if reply.get("rid") == rid:
                return reply
        raise ProtocolError(
            f"no reply matching rid {rid!r} within "
            f"{_MAX_STALE_FRAMES} frames (desynchronised stream)"
        )

    def _exchange(
        self,
        handle: _WorkerHandle,
        payload: Mapping,
        timeout: float | None = None,
    ) -> dict:
        """One request/reply round trip on a worker's connection.

        Raises:
            WorkerDied: On any socket or protocol failure, timeouts
                included (the connection is poisoned; the caller
                classifies whether the worker itself died).
        """
        payload = dict(payload)
        payload.setdefault("rid", self._next_rid())
        with handle.conn_lock:
            try:
                with _socket_timeout(handle.conn, timeout):
                    handle.conn.send_frame(payload)
                    return self._read_reply(handle, payload["rid"])
            except (ProtocolError, OSError) as error:
                raise WorkerDied(
                    f"worker {handle.name!r} failed mid-exchange: {error}",
                    worker=handle.name,
                ) from error

    def _send_batch(self, handle: _WorkerHandle, payload: Mapping) -> None:
        """Send-only half of a fan-out (replies collected separately)."""
        self._maybe_chaos_kill(handle)
        with handle.conn_lock:
            try:
                handle.conn.send_frame(payload)
            except (ProtocolError, OSError) as error:
                raise WorkerDied(
                    f"worker {handle.name!r} failed on send: {error}",
                    worker=handle.name,
                ) from error

    def _recv_batch(
        self,
        handle: _WorkerHandle,
        rid: str,
        timeout: float | None = None,
    ) -> dict:
        """Receive-only half of a fan-out; waits for the ``rid`` reply.

        Raises:
            TimeoutError: The worker exceeded its hedge deadline (or an
                injected drop ate the reply); the connection is *not*
                consumed further - the caller resets it.
            WorkerDied: On any other socket or protocol failure.
        """
        with handle.conn_lock:
            try:
                with _socket_timeout(handle.conn, timeout):
                    return self._read_reply(handle, rid)
            except TimeoutError:
                raise
            except (ProtocolError, OSError) as error:
                raise WorkerDied(
                    f"worker {handle.name!r} failed on receive: {error}",
                    worker=handle.name,
                ) from error

    def _maybe_chaos_kill(self, handle: _WorkerHandle) -> None:
        """``worker.kill`` fault site: really kill the target process."""
        try:
            get_fault_registry().fire("worker.kill")
        except InjectedFault as fault:
            self._kill_locked(handle.name)
            raise WorkerDied(
                f"worker {handle.name!r} killed by fault injection",
                worker=handle.name,
            ) from fault

    # ------------------------------------------------------------------
    # Connection failure handling
    # ------------------------------------------------------------------
    @staticmethod
    def _failure_is_connection(handle: _WorkerHandle) -> bool:
        """True when a wire failure left the worker *process* alive."""
        return handle.alive and handle.process.is_alive()

    def _reconnect_locked(self, handle: _WorkerHandle) -> bool:
        """Re-establish a worker's connection with exponential backoff.

        Returns ``True`` once connected (the handle's connection is
        replaced); ``False`` when every attempt failed. A successful
        reconnect resyncs a stale worker so edits it missed while
        unreachable (already WAL-durable) become visible before any
        query reaches it.
        """
        handle.conn.close()
        for attempt in range(self._reconnect_attempts):
            if attempt and self._reconnect_backoff:
                time.sleep(self._reconnect_backoff * (2 ** (attempt - 1)))
            try:
                conn = faulty_connect(
                    ("127.0.0.1", handle.port), timeout=_SPAWN_TIMEOUT
                )
            except OSError:
                continue
            with handle.conn_lock:
                handle.conn = conn
            self.reconnects += 1
            get_registry().inc(
                "router.reconnects", labels={"worker": handle.name}
            )
            if handle.stale and not self._resync_one_locked(handle):
                handle.conn.close()
                continue
            return True
        return False

    def _conn_failure_locked(self, handle: _WorkerHandle) -> bool:
        """Charge and repair a connection (not process) failure.

        One breaker failure per incident - repeated incidents open the
        breaker, which parks the worker *without* removing it from the
        ring (no data movement; the link is expected to heal). Returns
        whether the connection was re-established.
        """
        handle.breaker.record_failure()
        self.conn_failures += 1
        get_registry().inc(
            "router.conn_failures", labels={"worker": handle.name}
        )
        return self._reconnect_locked(handle)

    def _resync_one_locked(self, handle: _WorkerHandle) -> bool:
        """Resync one live worker from the WAL; track its freshness."""
        if self._store is None:
            handle.stale = False
            return True
        self._store.flush()
        try:
            self._exchange(handle, {"op": "resync"})
        except WorkerDied:
            handle.stale = True
            return False
        handle.synced_lsn = self._store.last_lsn()
        handle.stale = False
        handle.breaker.record_success()
        return True

    def _ensure_synced_locked(self, handle: _WorkerHandle) -> bool:
        """Bring a hedge target up to the WAL head before it serves.

        Any worker can serve any user *provided* it has replayed every
        durable edit; a target already at the head costs nothing.
        """
        if self._store is None:
            return True
        if not handle.stale and handle.synced_lsn >= self._store.last_lsn():
            return True
        return self._resync_one_locked(handle)

    def _exchange_repaired(self, handle: _WorkerHandle, payload: Mapping) -> dict:
        """:meth:`_exchange` plus reconnect-and-retry on link failures.

        Raises:
            WorkerDied: The worker process is gone (crash path).
            WorkerUnreachable: The process is alive but the link could
                not be repaired (partition still open) - the caller
                must NOT treat this as a death.
        """
        payload = dict(payload)
        payload.setdefault("rid", self._next_rid())
        for _ in range(self._reconnect_attempts + 1):
            try:
                reply = self._exchange(handle, payload)
            except WorkerDied:
                if not self._failure_is_connection(handle):
                    raise
                if not self._conn_failure_locked(handle):
                    break
                continue
            handle.breaker.record_success()
            return reply
        if handle.alive and not handle.process.is_alive():
            raise WorkerDied(
                f"worker {handle.name!r} died while its link was repaired",
                worker=handle.name,
            )
        raise WorkerUnreachable(
            f"worker {handle.name!r} is alive but unreachable "
            f"(link not repaired after {self._reconnect_attempts} attempts)",
            worker=handle.name,
        )

    # ------------------------------------------------------------------
    # Failure handling / rebalancing
    # ------------------------------------------------------------------
    def _kill_locked(self, name: str) -> None:
        """Terminate a worker process (chaos or test-driven crash)."""
        handle = self._workers[name]
        if handle.alive:
            handle.process.terminate()
            handle.process.join(timeout=5.0)
            handle.conn.close()
            handle.alive = False

    def kill_worker(self, name: str) -> None:
        """Crash ``name`` hard (no shutdown frame) - test/chaos hook.

        The death is *not* rebalanced yet: the next dispatch or health
        check discovers it, exactly like an unplanned crash.
        """
        with self._dispatch:
            if name not in self._workers:
                raise ShardError(f"unknown worker {name!r}")
            self._kill_locked(name)

    def _on_worker_death_locked(self, name: str) -> None:
        """Bookkeeping once a worker is declared dead: breaker, ring.

        A terminated process is a total failure, so the breaker is
        tripped all the way open rather than charged a single failure.
        """
        handle = self._workers[name]
        for _ in range(handle.breaker.failure_threshold):
            handle.breaker.record_failure()
        self._kill_locked(name)
        if name in self._ring:
            self._ring.remove_node(name)
            self.worker_deaths += 1
            get_registry().inc("router.worker_deaths", labels={"worker": name})

    def _rebalance_locked(self, dead: Iterable[str]) -> None:
        """Re-home the dead shards: resync every survivor from the WAL.

        A survivor that dies *during* its resync is folded into the
        same rebalance, so the loop only finishes with every ring
        member fully resynced. Without a WAL there is nothing to
        resync from; the survivors keep serving their own shards and
        re-routed users start from their default profiles when
        re-registered.
        """
        for name in dead:
            self._on_worker_death_locked(name)
        if not self._ring:
            raise ShardError("all workers are dead; cannot rebalance")
        if self._store is not None:
            self._store.flush()
            while True:
                failed: list[str] = []
                for name in self._ring.nodes:
                    handle = self._workers[name]
                    try:
                        self._exchange_repaired(handle, {"op": "resync"})
                    except WorkerUnreachable:
                        # Alive behind a partition: keep it on the ring
                        # but flag it stale, so the reconnect that heals
                        # the link resyncs it before it serves again.
                        handle.stale = True
                        continue
                    except WorkerDied:
                        failed.append(name)
                        continue
                    handle.synced_lsn = self._store.last_lsn()
                    handle.stale = False
                if not failed:
                    break
                for name in failed:
                    self._on_worker_death_locked(name)
                if not self._ring:
                    raise ShardError(
                        "all workers are dead; cannot rebalance"
                    )
        self.rebalances += 1
        get_registry().inc("router.rebalances")

    def respawn_worker(self, name: str) -> None:
        """Bring a dead worker back: fresh process, cold-start, resync.

        The rejoining worker recovers the full WAL, so it is current
        the moment it joins; the *other* workers are then resynced too,
        because the ring change re-homes users whose state on the new
        owner would otherwise be stale.
        """
        with self._dispatch:
            handle = self._workers.get(name)
            if handle is None:
                raise ShardError(f"unknown worker {name!r}")
            if handle.alive:
                raise ShardError(f"worker {name!r} is still alive")
            del self._workers[name]
            self._spawn_locked(name)
            if self._store is not None:
                self._store.flush()
                for other in self._ring.nodes:
                    if other != name:
                        self._resync_one_locked(self._workers[other])
            self.rebalances += 1
            get_registry().inc("router.rebalances")

    def drain_worker(self, name: str) -> dict:
        """Gracefully remove ``name``: hand its shard off, then stop it.

        The planned-maintenance twin of :meth:`kill_worker`: new work
        stops routing to the worker (ring removal under the dispatch
        lock, so no batch is in flight), the WAL is flushed and every
        survivor resynced - the drained shard's users are current on
        their new owners before the worker is asked to shut down with
        a clean ``shutdown`` frame. No breaker trip, no
        ``worker_deaths``; :meth:`respawn_worker` can bring the worker
        back later.

        Returns a drain report (survivors, resynced count, WAL lsn).
        """
        with self._dispatch:
            handle = self._workers.get(name)
            if handle is None:
                raise ShardError(f"unknown worker {name!r}")
            if not handle.alive:
                raise ShardError(f"cannot drain dead worker {name!r}")
            if name in self._ring:
                if len(self._ring) == 1:
                    raise ShardError(
                        f"cannot drain {name!r}: it is the last worker"
                    )
                self._ring.remove_node(name)
            resynced = []
            if self._store is not None:
                self._store.flush()
                for other in self._ring.nodes:
                    if self._resync_one_locked(self._workers[other]):
                        resynced.append(other)
            else:
                resynced = list(self._ring.nodes)
            try:
                self._exchange(handle, {"op": "shutdown"})
            except WorkerDied:
                pass  # already going away; the terminate below reaps it
            handle.conn.close()
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.alive = False
            self.drains += 1
            get_registry().inc("router.drains", labels={"worker": name})
            return {
                "drained": name,
                "survivors": list(self._ring.nodes),
                "resynced": resynced,
                "wal_last_lsn": (
                    None if self._store is None else self._store.last_lsn()
                ),
            }

    def check_health(self) -> dict[str, dict]:
        """Ping every worker through its breaker's admission gate.

        Each probe runs under a bounded socket timeout
        (``_HEALTH_TIMEOUT``), so one hung-but-alive worker costs a
        single timeout instead of stalling the whole sweep; its probe
        is charged to the breaker as a connection failure and the link
        is re-established, but the worker is *not* declared dead. A
        dead worker is rebalanced away; a healthy ping records a
        breaker success (closing a half-open breaker) and its round
        trip is reported as ``probe_ms`` (also surfaced by
        :meth:`stats`).
        """
        with self._dispatch:
            report: dict[str, dict] = {}
            dead: list[str] = []
            for name, handle in sorted(self._workers.items()):
                row = {
                    "alive": handle.alive,
                    "breaker": handle.breaker.state,
                    "on_ring": name in self._ring,
                    "probe_ms": None,
                }
                if not handle.alive and name in self._ring:
                    # Known-dead locally but never rebalanced (e.g. a
                    # hard kill with no dispatch since): rebalance now.
                    dead.append(name)
                elif handle.alive and handle.breaker.allow():
                    probe_started = time.perf_counter()
                    try:
                        reply = self._exchange(
                            handle, {"op": "ping"},
                            timeout=_HEALTH_TIMEOUT,
                        )
                    except WorkerDied:
                        if self._failure_is_connection(handle):
                            self._conn_failure_locked(handle)
                            row["unreachable"] = True
                        else:
                            dead.append(name)
                            row["alive"] = False
                        handle.probe_ms = None
                    else:
                        handle.breaker.record_success()
                        handle.probe_ms = (
                            time.perf_counter() - probe_started
                        ) * 1000.0
                        row["users"] = reply.get("users")
                        row["probe_ms"] = handle.probe_ms
                    row["breaker"] = handle.breaker.state
                report[name] = row
            if dead:
                self._rebalance_locked(dead)
                for name in dead:
                    report[name]["breaker"] = self._workers[name].breaker.state
                    report[name]["on_ring"] = False
            return report

    # ------------------------------------------------------------------
    # Service surface
    # ------------------------------------------------------------------
    def register(self, user_id: str, persona: Persona) -> dict:
        """Register a user on their shard (WAL first, then forward)."""
        return self.apply_edit(
            {"op": "register", "user": user_id, "persona": asdict(persona)}
        )

    def register_many(self, users: Iterable[tuple[str, Persona]]) -> int:
        """Register a population; returns the number registered."""
        count = 0
        for user_id, persona in users:
            self.register(user_id, persona)
            count += 1
        return count

    def apply_edit(self, record: Mapping) -> dict:
        """Apply one WAL-vocabulary mutation record.

        The record is validated and WAL-appended *before* forwarding;
        if the owning worker dies mid-forward the rebalance resyncs the
        new owner from the WAL, which already contains this record, so
        the edit survives without a re-send (``applied_via: resync``).
        """
        record = dict(record)
        validate_record(record)
        with self._dispatch:
            if self._store is not None:
                self._store.append(record)
            rid = self._next_rid()
            payload: dict = {"op": "edit", "rid": rid, "record": record}
            deadline_ms = self._deadline_ms()
            if deadline_ms is not None:
                payload["deadline_ms"] = deadline_ms
            for attempt in range(self._max_retries + 1):
                if attempt and self._retry_backoff:
                    time.sleep(self._retry_backoff * (2 ** (attempt - 1)))
                owner = self._ring.node_for(record["user"])
                handle = self._workers[owner]
                try:
                    self._maybe_chaos_kill(handle)
                    reply = self._exchange_repaired(handle, payload)
                except WorkerUnreachable:
                    # The owner is alive behind a partition. The record
                    # is already durable (WAL-first); flag the owner so
                    # the reconnect that heals the link resyncs it, and
                    # report the WAL as the application vehicle.
                    handle.stale = True
                    if self._store is not None:
                        return {"rid": rid, "ok": True, "applied_via": "wal"}
                    if attempt >= self._max_retries:
                        raise ShardError(
                            f"edit {rid} undeliverable: worker {owner!r} "
                            "unreachable and no WAL to fall back on"
                        )
                    self.retried_requests += 1
                    continue
                except WorkerDied as death:
                    self._rebalance_locked([owner])
                    if self._store is not None:
                        # Already durable; the resync applied it.
                        return {
                            "rid": rid,
                            "ok": True,
                            "applied_via": "resync",
                        }
                    if attempt >= self._max_retries:
                        raise ShardError(
                            f"edit {rid} undeliverable: {death}"
                        ) from death
                    self.retried_requests += 1
                    continue
                if not reply.get("ok", False):
                    raise ShardError(
                        f"worker {owner!r} rejected edit {rid}: "
                        f"{reply.get('error')}"
                    )
                reply.setdefault("applied_via", "forward")
                return reply
        raise ShardError(f"edit {rid} undeliverable")  # pragma: no cover

    def query_many(self, requests: Sequence[Request]) -> list[dict]:
        """Fan a batch of queries out to their shards; gather replies.

        Dispatch is two-phase per round: all per-worker batch frames
        are sent, then all replies are collected, so workers execute
        their shards concurrently. Requests stranded by a death keep
        their request ids and are re-dispatched after the rebalance;
        workers deduplicate on the id, so a request is never *applied*
        twice even when it is *delivered* twice.

        Returns one reply dict per request, in request order, each with
        ``ok``/``ranking``/``duplicate``/``worker`` fields.
        """
        registry = get_registry()
        started = time.perf_counter()
        with self._dispatch:
            order: list[str] = []
            pending: dict[str, tuple[str, list, int | None]] = {}
            for user_id, state, top_k in requests:
                rid = self._next_rid()
                order.append(rid)
                pending[rid] = (user_id, list(state.values), top_k)
            results: dict[str, dict] = {}
            for round_index in range(self._max_retries + 1):
                if not pending:
                    break
                if round_index:
                    self.retried_requests += len(pending)
                    registry.inc("router.retries", value=len(pending))
                    if self._retry_backoff:
                        time.sleep(
                            self._retry_backoff * (2 ** (round_index - 1))
                        )
                self._dispatch_round_locked(pending, results, registry)
            # Degrade per request instead of failing the batch: callers
            # get a typed failure row and the availability accounting
            # stays per-request.
            for rid in pending:
                results[rid] = {
                    "rid": rid,
                    "ok": False,
                    "duplicate": False,
                    "error": (
                        "undeliverable after "
                        f"{self._max_retries + 1} dispatch rounds"
                    ),
                }
        registry.observe(
            "router.batch.seconds", time.perf_counter() - started
        )
        return [results[rid] for rid in order]

    def _route_target_locked(self, user_id: str) -> str:
        """The worker a request should go to *this round*.

        The ring owner, unless it is known to be unusable right now
        (dead handle awaiting rebalance, or a breaker that does not
        admit traffic); then the first usable worker in ring order
        serves as the hedge target.
        """
        owner = self._ring.node_for(user_id)
        handle = self._workers[owner]
        if handle.alive and handle.breaker.allow():
            return owner
        for name in self._ring.nodes:
            if name == owner:
                continue
            other = self._workers[name]
            if other.alive and other.breaker.allow():
                return name
        return owner

    @staticmethod
    def _hedge_deadline(handle: _WorkerHandle) -> float:
        """Adaptive per-worker reply deadline for one batch, seconds."""
        if handle.ewma_ms is None:
            return _HEDGE_TIMEOUT
        return max(_HEDGE_TIMEOUT, _HEDGE_FACTOR * handle.ewma_ms / 1000.0)

    def _dispatch_round_locked(
        self,
        pending: dict[str, tuple[str, list, int | None]],
        results: dict[str, dict],
        registry,
    ) -> None:
        """One send-all / receive-all round over the current ring.

        Requests for an unusable owner are hedged to another worker (resynced from the WAL first when stale), a
        worker that misses its adaptive reply deadline is abandoned for
        the round (its connection is reset so no stale reply can
        desynchronise later rounds), and connection failures repair the
        link instead of declaring a death.
        """
        known_dead = [
            name for name in self._ring.nodes if not self._workers[name].alive
        ]
        if known_dead:
            # A crashed worker still on the ring (kill_worker, or a
            # death discovered between rounds) is rebalanced before
            # routing - hedging is for *unreachable* workers, it must
            # never hide a real death from the ring.
            self._rebalance_locked(known_dead)
        groups: dict[str, list[list]] = {}
        for rid, (user_id, values, top_k) in pending.items():
            target = self._route_target_locked(user_id)
            if target != self._ring.node_for(user_id):
                self.hedged_requests += 1
                registry.inc("router.hedged", labels={"worker": target})
            groups.setdefault(target, []).append([rid, user_id, values, top_k])
        deadline_ms = self._deadline_ms()
        sent: list[tuple[str, str]] = []
        dead: list[str] = []
        for target, batch in groups.items():
            handle = self._workers[target]
            hedged_into = any(
                self._ring.node_for(entry[1]) != target for entry in batch
            )
            if (hedged_into or handle.stale) and not self._ensure_synced_locked(
                handle
            ):
                if self._failure_is_connection(handle):
                    # Repair the link now (reconnect + resync ride the
                    # same path), else a closed connection would fail
                    # the resync forever and strand the batch.
                    self._conn_failure_locked(handle)
                else:
                    dead.append(target)
                continue  # requests stay pending for the next round
            payload: dict = {
                "op": "query_batch",
                "rid": self._next_rid(),
                "requests": batch,
            }
            if deadline_ms is not None:
                payload["deadline_ms"] = deadline_ms
            try:
                self._send_batch(handle, payload)
            except WorkerDied:
                if self._failure_is_connection(handle):
                    self._conn_failure_locked(handle)
                else:
                    dead.append(target)
            else:
                sent.append((target, payload["rid"]))
        for target, batch_rid in sent:
            handle = self._workers[target]
            shard_started = time.perf_counter()
            try:
                reply = self._recv_batch(
                    handle, batch_rid, timeout=self._hedge_deadline(handle)
                )
            except TimeoutError:
                # Missed its reply deadline (slow, partitioned or the
                # reply was dropped): abandon the batch for this round
                # and reset the link so the late reply cannot poison a
                # later exchange. The rid-dedup LRU on the workers
                # keeps the re-dispatch exactly-once.
                self._conn_failure_locked(handle)
                registry.inc("router.hedge_timeouts", labels={"worker": target})
                continue
            except WorkerDied:
                if self._failure_is_connection(handle):
                    self._conn_failure_locked(handle)
                else:
                    dead.append(target)
                continue
            handle.breaker.record_success()
            elapsed = time.perf_counter() - shard_started
            ewma = 0.0 if handle.ewma_ms is None else 0.8 * handle.ewma_ms
            handle.ewma_ms = ewma + (
                0.2 if handle.ewma_ms is not None else 1.0
            ) * (elapsed * 1000.0)
            registry.observe(
                "router.worker.seconds", elapsed, labels={"worker": target}
            )
            for row in reply.get("results", ()):
                rid = row.get("rid")
                if rid in pending:
                    row["worker"] = target
                    results[rid] = row
                    del pending[rid]
            registry.inc(
                "router.requests",
                value=len(reply.get("results", ())),
                labels={"worker": target},
            )
        if dead:
            self._rebalance_locked(dead)

    def stats(self) -> dict[str, object]:
        """Router counters plus per-worker ``stats`` rows.

        Each worker row carries ``probe_latency_ms``: the last
        :meth:`check_health` ping round-trip for that worker (``None``
        until a probe has succeeded).
        """
        with self._dispatch:
            workers = {}
            for name in self._ring.nodes:
                handle = self._workers[name]
                try:
                    row = self._exchange(handle, {"op": "stats"})
                except (WorkerDied, WorkerUnreachable):
                    row = {"ok": False, "error": "unreachable"}
                row["probe_latency_ms"] = handle.probe_ms
                workers[name] = row
            return {
                "workers": workers,
                "ring": {
                    "nodes": list(self._ring.nodes),
                    "replicas": self._ring.replicas,
                },
                "worker_deaths": self.worker_deaths,
                "rebalances": self.rebalances,
                "retried_requests": self.retried_requests,
                "hedged_requests": self.hedged_requests,
                "conn_failures": self.conn_failures,
                "reconnects": self.reconnects,
                "drains": self.drains,
                "wal_last_lsn": (
                    None if self._store is None else self._store.last_lsn()
                ),
            }

    def __repr__(self) -> str:
        return (
            f"ShardRouter({len(self._ring)}/{self._num_workers} workers "
            f"live, durable={self._store is not None})"
        )
