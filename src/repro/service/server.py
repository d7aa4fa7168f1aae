"""The single-node service: the serving event loop at one shard × one replica.

:class:`LinkStatusService` serves one
:class:`~repro.service.index.LinkStatusIndex` through
:class:`~repro.service.cluster.ClusterService`'s event loop with a
1-shard × 1-replica topology — admission → batcher → cache → index,
with no routing to speak of. Every response (status, body, *and*
virtual latency) is a pure function of ``(index, config, workload,
faults)``. Its telemetry is that of the one-replica fleet: audit
records name ``shard-0``/``s0r0``, and the registry carries the
``service.replica.s0r0.*`` families next to the rollup.

The shared value types (:class:`ServerConfig`, :class:`Response`,
:class:`ServiceResult`, :func:`answer`, :func:`key_latency_ms`,
:data:`LATENCY_BOUNDS_MS`) live next to the loop and are re-exported
here.
"""

from __future__ import annotations

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .audit import AuditLog
from .cluster import (
    LATENCY_BOUNDS_MS,
    ClusterConfig,
    ClusterResult,
    ClusterService,
    Response,
    ServerConfig,
    ServiceResult,
    answer,
    key_latency_ms,
)
from .faults import ServiceFaultPlan
from .index import LinkStatusIndex
# Kept as a module name so layer tracing can patch it here too.
from .reconfig import apply_delta  # noqa: F401

__all__ = [
    "LATENCY_BOUNDS_MS",
    "LinkStatusService",
    "Response",
    "ServerConfig",
    "ServiceResult",
    "answer",
    "key_latency_ms",
]

#: The single node's topology.
_ONE_BY_ONE = ClusterConfig(n_shards=1, replicas_per_shard=1)


class LinkStatusService(ClusterService):
    """One service instance: a 1-shard × 1-replica fleet."""

    def __init__(
        self,
        index: LinkStatusIndex,
        config: ServerConfig = ServerConfig(),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: ServiceFaultPlan | None = None,
        audit: AuditLog | None = None,
    ) -> None:
        super().__init__(index, config, _ONE_BY_ONE, metrics, tracer, faults, audit)

    def serve(self, requests, mode: str = "serial", swaps=None) -> ClusterResult:
        """Replay a workload; see :meth:`ClusterService.serve`."""
        return super().serve(requests, mode, swaps)
