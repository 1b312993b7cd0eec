"""Spans around calls into each layer's public functions, from outside.

A traced trial wraps the entry points of every layer the workloads
touch. While an operation is open, each call into a wrapped function
records one span: its name, its parent span and the operation it
belongs to. A span's self amount is its own amount minus what its child
spans cover, so the layers add up to the operation's total.

A tracer either times spans or counts in them, never both. A timing
tracer records start and end times, and the per-layer times are self
microseconds per operation. A counting tracer hands the program an
:class:`~repro.tree.counters.AccessCounter` and records the cells each
span touched, plus counts measured at span boundaries (rows ranked,
cache hits, reply bytes). Cell accounting is work the program does only
when asked, and it would slow the very layers being timed.

Spans are kept in one array of machine integers rather than one object
per span: tens of thousands of retained span objects would make the
garbage collector, and so the traced operations, slower. The wrappers
need no change to the program, and write nothing until the trial ends.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from collections import Counter
from collections.abc import Callable
from pathlib import Path

from repro.db.relation import Relation
from repro.query import executor as executor_module
from repro.query import rank as rank_module
from repro.query.executor import ContextualQueryExecutor, QueryResult
from repro.resolution.resolver import ContextResolver
from repro.service.personalization import PersonalizationService
from repro.sharding import protocol
from repro.sharding.protocol import FaultyConnection
from repro.sharding.router import ShardRouter
from repro.storage.store import ProfileStore
from repro.tree.counters import AccessCounter
from repro.tree.query_tree import ContextQueryTree

#: Span name -> the per-layer metric its self time feeds.
SPAN_METRICS = {
    "service.query": "service.self_us",
    "service.edit": "service.self_us",
    "query.execute": "query.execute_self_us",
    "query.rank_rows": "query.rank_rows_self_us",
    "query.top": "query.top_us",
    "resolution.resolve": "resolution.resolve_us",
    "tree.cache_get": "tree.cache_us",
    "tree.cache_put": "tree.cache_us",
    "tree.invalidate": "tree.invalidate_us",
    "db.select": "db.select_us",
    "storage.append": "storage.append_us",
    "sharding.query_many": "sharding.router_self_us",
    "sharding.encode": "sharding.encode_us",
    "sharding.decode": "sharding.decode_us",
    "sharding.recv": "sharding.wait_us",
}

_RECORD = 5  # span id, name id, parent id, amount at start, amount at end


class Tracer:
    """Records spans from wrapped callables; restores them on exit.

    The workloads call the program from one thread, so one stack of
    open spans serves every wrapper. Span ids grow in the order spans
    open, so a parent's id is below its children's. Each closed span
    appends one record of :data:`_RECORD` integers to ``records``; the
    amounts are nanosecond clock readings, or the access counter's
    cells when ``count_cells`` is set. ``ops`` maps each operation's
    root span to its name id and the operation id.
    """

    def __init__(self, count_cells: bool = False) -> None:
        self.count_cells = count_cells
        self.names: list[str] = []
        self.records = array("q")
        self.ops: dict[int, tuple[int, int]] = {}
        self.counts: Counter[str] = Counter()
        self.counter = AccessCounter()
        self._next_id = itertools.count().__next__
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []
        self._root_start = 0
        self._amount = (lambda: self.counter.cells) if count_cells else time.perf_counter_ns

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable[[tuple, object], None] | None = None,
        defaults: dict | None = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``
        made while an operation is open.

        ``after(args, result)`` runs once the call returned, for counts
        measured at the same boundary; ``defaults`` are keyword
        arguments passed when the caller leaves them out.
        """
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        stack, records, next_id, amount = self._stack, self.records, self._next_id, self._amount

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            if defaults:
                kwargs = {**defaults, **kwargs}
            span = next_id()
            parent = stack[-1]
            stack.append(span)
            start = amount()
            try:
                result = original(*args, **kwargs)
            finally:
                records.extend((span, name_id, parent, start, amount()))
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, attr in vars(owner), vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def begin(self, op: int, kind: str) -> None:
        """Open operation ``op``: its root span parents every layer span."""
        span = self._next_id()
        self.ops[span] = self._name_id(f"op.{kind}"), op
        self._stack.append(span)
        self._root_start = self._amount()

    def end(self) -> None:
        """Close the open operation."""
        end = self._amount()
        span = self._stack.pop()
        self.records.extend((span, self.ops[span][0], -1, self._root_start, end))

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        """``(name, parent, start, amount, self amount)`` per span id."""
        records = self.records
        spans: list = [None] * (len(records) // _RECORD)
        for offset in range(0, len(records), _RECORD):
            span, name_id, parent, start, end = records[offset : offset + _RECORD]
            spans[span] = [self.names[name_id], parent, start, end - start, end - start]
        for _, parent, _, amount, _ in spans:
            if parent >= 0:
                spans[parent][4] -= amount
        return [tuple(span) for span in spans]

    def write(self, path: Path) -> None:
        """Write one JSON line per span: name, operation, parent and, in
        microseconds from the first span, start, duration and self time."""
        spans = self.spans()
        origin = spans[0][2] if spans else 0
        ops: list[int] = []
        with open(path, "w", encoding="utf-8") as handle:
            for span, (name, parent, start, amount, own) in enumerate(spans):
                # A parent's id is below its children's.
                ops.append(self.ops[span][1] if parent < 0 else ops[parent])
                record = {"span": span, "name": name, "op": ops[span], "parent": parent,
                          "start_us": (start - origin) / 1e3, "dur_us": amount / 1e3,
                          "self_us": own / 1e3}
                handle.write(json.dumps(record) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    counting = tracer.count_cells
    counts = tracer.counts

    def count_rows(args: tuple, result: list) -> None:
        counts["rows_ranked"] += len(result)

    def count_lookup(args: tuple, result: object) -> None:
        counts["cache_gets"] += 1
        counts["cache_hits"] += result is not None

    def count_reply(args: tuple, result: object) -> None:
        counts["reply_bytes"] += len(args[0])

    def when_counting(callback):
        return callback if counting else None

    tracer.wrap(ContextualQueryExecutor, "execute", "query.execute",
                defaults={"counter": tracer.counter} if counting else None)
    tracer.wrap(PersonalizationService, "query", "service.query")
    tracer.wrap(PersonalizationService, "update_preference", "service.edit")
    # The executor imported rank_rows by name; both bindings are wrapped.
    tracer.wrap(rank_module, "rank_rows", "query.rank_rows", when_counting(count_rows))
    tracer.wrap(executor_module, "rank_rows", "query.rank_rows", when_counting(count_rows))
    tracer.wrap(QueryResult, "top", "query.top")
    tracer.wrap(ContextResolver, "resolve_state", "resolution.resolve")
    tracer.wrap(ContextQueryTree, "get", "tree.cache_get", when_counting(count_lookup))
    tracer.wrap(ContextQueryTree, "put", "tree.cache_put")
    tracer.wrap(ContextQueryTree, "invalidate_covered", "tree.invalidate")
    tracer.wrap(Relation, "select_ids", "db.select")
    tracer.wrap(ProfileStore, "append_many", "storage.append")
    tracer.wrap(ShardRouter, "query_many", "sharding.query_many")
    tracer.wrap(protocol, "encode_frame", "sharding.encode")
    tracer.wrap(protocol, "decode_frame", "sharding.decode", when_counting(count_reply))
    tracer.wrap(FaultyConnection, "recv_frame", "sharding.recv")


def layer_metrics(
    tracer: Tracer, ops: int, edits: int, delta: dict[str, int]
) -> dict[str, float]:
    """Per-layer metrics of ``ops`` traced operations.

    A timing tracer gives the layers' self microseconds per operation
    and the share of operation time no layer covers; a counting tracer
    gives the exact counts, per operation unless named otherwise.
    ``delta`` holds the change of the workload's program counters over
    the traced phase.
    """
    totals: Counter[str] = Counter()
    for name, parent, _, amount, own in tracer.spans():
        totals[SPAN_METRICS.get(name, name)] += own
        if parent < 0:
            totals["op"] += amount
            totals["unattributed"] += own
    if not tracer.count_cells:
        metrics = {metric: totals[metric] / 1e3 / ops for metric in SPAN_METRICS.values()}
        # Operation time no layer span covers: code between the
        # wrapped entry points.
        metrics["trace.unattributed_pct"] = 100.0 * totals["unattributed"] / totals["op"]
        return metrics
    counts = tracer.counts
    return {
        "query.rows_ranked": counts["rows_ranked"] / ops,
        "resolution.cells": totals["resolution.resolve_us"] / ops,
        "tree.hit_rate": (
            counts["cache_hits"] / counts["cache_gets"] if counts["cache_gets"] else 0.0
        ),
        "db.index_cells": tracer.counter.index_cells / ops,
        "db.scan_cells": tracer.counter.scan_cells / ops,
        "storage.wal_bytes": delta.get("wal_bytes", 0) / edits if edits else 0.0,
        "service.hydrations": delta.get("hydrations", 0) * 1000 / ops,
        "sharding.reply_bytes": counts["reply_bytes"] / ops,
        "sharding.retries": float(delta.get("retries", 0)),
    }
