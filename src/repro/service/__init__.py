"""repro.service — a deterministic link-status query service.

The batch pipeline (:mod:`repro.analysis.study`) answers "what is the
state of every studied link" once, offline. This package turns that
answer into a *serving* system — the shape a production link-repair
bot or dashboard would consume — without giving up the repo's core
property: every response, latency, and overload decision is an exact,
replayable function of ``(study report, config, workload seed)``.

The stack, front to back:

- :class:`~repro.service.workload.WorkloadConfig` /
  :func:`~repro.service.workload.generate_workload` — seeded
  Zipf-over-URLs traffic with Poisson / flash-crowd / diurnal
  arrivals and optional multi-tenant labeling;
- :class:`~repro.service.admission.AdmissionController` — token-bucket
  rate limiting with a bounded FIFO queue and deterministic shedding;
- :class:`~repro.service.batcher.MicroBatcher` — micro-batching with
  duplicate-query coalescing;
- :class:`~repro.service.cache.ResultCache` — LRU + virtual-TTL result
  cache;
- :class:`~repro.service.index.LinkStatusIndex` — the immutable,
  content-hash-versioned snapshot built from a completed study;
- :class:`~repro.service.cluster.ClusterService` — the one serving
  event loop tying them together: the index rendezvous-partitioned
  by registrable domain into N shards × R replicas behind a
  deterministic router (:mod:`repro.service.router`), byte-identical
  across topologies when faults are off and degrading only in latency
  and shed rate under replica-level chaos; traced via :mod:`repro.obs`
  and chaos-testable via :class:`~repro.service.faults.ServiceFaultPlan`;
- :class:`~repro.service.server.LinkStatusService` — the single node,
  that loop at one shard × one replica.
"""

from .admission import AdmissionController, TokenBucket
from .audit import AuditLog, AuditRecord
from .audit import read_jsonl as read_audit_jsonl
from .batcher import Batch, BatchItem, MicroBatcher
from .cache import ResultCache
from .cluster import (
    ClusterConfig,
    ClusterResult,
    ClusterService,
    Response,
    ServerConfig,
    ServiceResult,
    ShardIndex,
    key_latency_ms,
)
from .faults import ReplicaFaultEvent, ServiceFaultPlan, ServiceFaults
from .index import LinkStatusEntry, LinkStatusIndex
from .reconfig import (
    DeltaApply,
    GenerationDelta,
    GenerationSwap,
    RebalancePlan,
    ReconfigError,
    ReconfigEvent,
    Reconfiguration,
    apply_delta,
    normalize_schedule,
    plan_rebalance,
    snapshot_wire_bytes,
)
from .router import (
    POLICIES,
    ReplicaPicker,
    TenantQuotas,
    rendezvous_owner,
    rendezvous_score,
    routing_key,
)
from .server import LinkStatusService
from .workload import PATTERNS, Request, WorkloadConfig, generate_workload

__all__ = [
    "AdmissionController",
    "AuditLog",
    "AuditRecord",
    "Batch",
    "BatchItem",
    "ClusterConfig",
    "ClusterResult",
    "ClusterService",
    "DeltaApply",
    "GenerationDelta",
    "GenerationSwap",
    "LinkStatusEntry",
    "LinkStatusIndex",
    "LinkStatusService",
    "MicroBatcher",
    "PATTERNS",
    "POLICIES",
    "RebalancePlan",
    "ReconfigError",
    "ReconfigEvent",
    "Reconfiguration",
    "ReplicaFaultEvent",
    "ReplicaPicker",
    "Request",
    "Response",
    "ResultCache",
    "ServerConfig",
    "ServiceFaultPlan",
    "ServiceFaults",
    "ServiceResult",
    "ShardIndex",
    "TenantQuotas",
    "TokenBucket",
    "WorkloadConfig",
    "apply_delta",
    "generate_workload",
    "key_latency_ms",
    "normalize_schedule",
    "plan_rebalance",
    "read_audit_jsonl",
    "rendezvous_owner",
    "rendezvous_score",
    "routing_key",
    "snapshot_wire_bytes",
]
