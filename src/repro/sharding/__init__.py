"""Multi-process sharded serving: a consistent-hash front-end.

The package scales the single-process
:class:`~repro.service.personalization.PersonalizationService` across
worker *processes*:

* :mod:`repro.sharding.hashring` - the consistent-hash ring assigning
  user ids to workers (virtual nodes, minimal movement on loss);
* :mod:`repro.sharding.protocol` - the length-prefixed, checksummed
  JSON frame format on the router <-> worker wire;
* :mod:`repro.sharding.worker` - the worker process: one full service
  stack over its shard, cold-started from the shared WAL;
* :mod:`repro.sharding.router` - the front-end: spawning, routing,
  health checks, chaos kills and WAL-backed rebalancing.

See ``docs/sharding.md`` for the design.
"""

from repro.sharding.hashring import ConsistentHashRing
from repro.sharding.protocol import (
    MAX_FRAME_BYTES,
    REQUEST_OPS,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.sharding.router import ShardRouter
from repro.sharding.worker import WorkerSpec, worker_main

__all__ = [
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "ConsistentHashRing",
    "ShardRouter",
    "WorkerSpec",
    "decode_frame",
    "encode_frame",
    "recv_frame",
    "send_frame",
    "worker_main",
]
