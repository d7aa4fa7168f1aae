"""Tests for repro.service.cluster — sharded, replicated serving.

The contracts pinned here:

- rendezvous (HRW) hashing balances keys over any node set and remaps
  the minimum possible set when nodes join or leave (hypothesis
  property tests);
- routing keys put every studied URL on the shard that holds its
  entry, because both sides derive the registrable domain identically;
- the cluster's answer surface (``Response.to_wire``: status, body,
  index version) and shed set are byte-identical to the single-node
  service for every tested shard/replica count and router policy when
  faults are off — and a 1×1 cluster reproduces the single-node run
  *including timing*;
- request spans nest under their run's root span, however late the
  trace is first read;
- replica-level chaos (crash, partition, slow) degrades latency and
  the shed set only — every mutually-served request returns the same
  bytes, the admission (429) set never moves, and runs replay exactly;
- fault decisions are keyed by (replica, key) — never by arrival
  order or attempt count — so the chaos schedule is invariant to the
  router policy under test (the regression this PR exists to pin);
- per-replica metric families fold into the fleet rollup exactly;
- two replays (slow replicas with delta swaps, crash + partition
  chaos) keep pinned digests over every response field, the metrics
  snapshot and the audit log;
- the routing and fault-schedule memos answer exactly as the direct
  computation and stay bounded.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.obs.export import render_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import (
    AuditLog,
    ClusterConfig,
    ClusterService,
    DeltaApply,
    GenerationDelta,
    LinkStatusIndex,
    LinkStatusService,
    RebalancePlan,
    ServerConfig,
    ServiceFaultPlan,
    ServiceFaults,
    ShardIndex,
    WorkloadConfig,
    generate_workload,
    rendezvous_owner,
    rendezvous_score,
    routing_key,
)
from repro.service.router import ReplicaPicker, TenantQuotas


@pytest.fixture(scope="session")
def service_index(small_report) -> LinkStatusIndex:
    """The index snapshot of the shared small study (read-only)."""
    return LinkStatusIndex.build(small_report)


def mixed_workload(index, n=2000, rps=2500.0, seed=7, **over):
    return generate_workload(
        [entry.url for entry in index.entries],
        WorkloadConfig(
            n_requests=n,
            offered_rps=rps,
            seed=seed,
            aggregate_fraction=0.05,
            unknown_fraction=0.05,
            **over,
        ),
    )


def wire(result):
    return [r.to_wire() for r in result.responses]


# -- rendezvous hashing ----------------------------------------------------------


node_sets = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
    unique=True,
).map(tuple)


def test_rendezvous_score_is_pure_and_64_bit():
    assert rendezvous_score("k", "n") == rendezvous_score("k", "n")
    assert 0 <= rendezvous_score("k", "n") < 2**64
    assert rendezvous_score("k", "n") != rendezvous_score("k", "m")


def test_rendezvous_owner_requires_nodes():
    with pytest.raises(ValueError):
        rendezvous_owner("key", ())


@settings(max_examples=50, deadline=None)
@given(key=st.text(min_size=0, max_size=40), nodes=node_sets)
def test_rendezvous_owner_is_a_member_and_deterministic(key, nodes):
    owner = rendezvous_owner(key, nodes)
    assert owner in nodes
    assert rendezvous_owner(key, nodes) == owner
    # Order of the node tuple must not matter.
    assert rendezvous_owner(key, tuple(reversed(nodes))) == owner


@settings(max_examples=25, deadline=None)
@given(nodes=node_sets, extra=st.text(min_size=1, max_size=12))
def test_rendezvous_minimal_disruption_on_node_add(nodes, extra):
    """Adding a node only pulls keys TO the new node; nothing else moves."""
    if extra in nodes:
        extra = extra + "-new"
    grown = nodes + (extra,)
    keys = [f"key-{i}" for i in range(200)]
    for key in keys:
        before = rendezvous_owner(key, nodes)
        after = rendezvous_owner(key, grown)
        assert after in (before, extra)


@settings(max_examples=25, deadline=None)
@given(nodes=node_sets)
def test_rendezvous_minimal_disruption_on_node_remove(nodes):
    """Removing a node only remaps the keys that node owned."""
    if len(nodes) < 2:
        return
    victim = nodes[0]
    shrunk = nodes[1:]
    for i in range(200):
        key = f"key-{i}"
        before = rendezvous_owner(key, nodes)
        after = rendezvous_owner(key, shrunk)
        if before != victim:
            assert after == before
        else:
            assert after in shrunk


def test_rendezvous_balance_within_bound():
    """Each of 4 nodes owns a reasonable share of a large key set.

    The scores are sha256-uniform, so with 4000 keys over 4 nodes the
    expected share is 25%; the bound is generous (15–35%) because this
    pins "no node is starved or doubled", not a tight concentration
    inequality.
    """
    nodes = tuple(f"shard-{i}" for i in range(4))
    counts = {node: 0 for node in nodes}
    for i in range(4000):
        counts[rendezvous_owner(f"https://host{i}.example/p", nodes)] += 1
    for node, count in counts.items():
        assert 0.15 <= count / 4000 <= 0.35, (node, count)


# -- routing keys ----------------------------------------------------------------


def test_routing_key_matches_entry_domain(service_index):
    """Every studied URL routes by exactly its entry's domain field."""
    for entry in service_index.entries:
        assert routing_key("url", entry.url) == entry.domain


def test_routing_key_kinds():
    assert routing_key("domain", "example.com") == "example.com"
    assert routing_key("bucket_counts", "") == "bucket_counts:"
    assert (
        routing_key("quantile", "posting_year:0.5")
        == "quantile:posting_year:0.5"
    )
    # Unparseable URLs still get a stable key (they 404 on any shard).
    assert routing_key("url", "::") == routing_key("url", "::")


@pytest.fixture(scope="module")
def routing_service(service_index) -> ClusterService:
    """A 4-shard fleet whose routing memo the fuzz tests share."""
    return ClusterService(
        service_index, cluster=ClusterConfig(n_shards=4, replicas_per_shard=1)
    )


#: URL-shaped text: odd schemes, empty and port-only hosts, empty
#: labels, stray dots and slashes — every branch of the URL and PSL
#: parsers' error handling.
url_like = st.builds(
    "{}{}{}".format,
    st.sampled_from(
        ["http://", "https://", "HTTP://", "ftp://", "http:/", "", "http://."]
    ),
    st.text(alphabet="ab.:-ck*!", max_size=12),
    st.text(alphabet="/?#a.", max_size=6),
)
query_kinds = st.sampled_from(
    ["url", "domain", "bucket_counts", "quantile"]
) | st.text(max_size=6)


@settings(max_examples=300, deadline=None)
@given(kind=query_kinds, target=url_like | st.text(max_size=30))
def test_routing_boundary_never_raises(routing_service, kind, target):
    """Arbitrary (kind, target) text routes without raising, to the
    same shard every time, and a memo hit equals the direct answer."""
    key = routing_key(kind, target)
    assert isinstance(key, str)
    assert routing_key(kind, target) == key
    first = routing_service.shard_for(kind, target)
    assert (kind, target) in routing_service._route_memo
    assert routing_service.shard_for(kind, target) == first
    assert first == rendezvous_owner(key, routing_service.shard_ids)


def test_route_memo_is_bounded(service_index):
    """More distinct unknown hosts than the memo holds: the memo stays
    at or under its cap, the ownership table does not grow, and every
    answer still equals the direct computation."""
    from repro.service.cluster import _ROUTE_MEMO_CAP

    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=4, replicas_per_shard=1)
    )
    owned = len(svc._shard_of)
    for i in range(_ROUTE_MEMO_CAP + 500):
        url = f"http://unknown-{i}.invalid/"
        owner = rendezvous_owner(routing_key("url", url), svc.shard_ids)
        assert svc.shard_for("url", url) == owner
        assert len(svc._route_memo) <= _ROUTE_MEMO_CAP
    assert len(svc._shard_of) == owned


def test_route_memo_follows_rebalance(service_index):
    """A memoised route is dropped when a rebalance moves its key."""
    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=2, replicas_per_shard=1)
    )
    entry = service_index.entries[0]
    owner = svc.shard_for("url", entry.url)
    target = next(s for s in svc.shard_ids if s != owner)
    svc.serve(
        mixed_workload(service_index, n=50),
        swaps=[RebalancePlan(at_ms=0.0, moves=((entry.domain, target),))],
    )
    assert svc.shard_for("url", entry.url) == target
    assert svc.shard_for("domain", entry.domain) == target


# -- shard views -----------------------------------------------------------------


def test_shards_partition_the_index_exactly(service_index):
    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=3, replicas_per_shard=1)
    )
    seen = {}
    for shard_id, shard in svc.shards.items():
        assert isinstance(shard, ShardIndex)
        assert shard.version == service_index.version
        for entry in shard.entries:
            assert entry.url not in seen, "entry assigned to two shards"
            seen[entry.url] = shard_id
            # The shard holding an entry is the one its domain hashes to.
            assert (
                rendezvous_owner(entry.domain, svc.shard_ids) == shard_id
            )
    assert len(seen) == len(service_index)


def test_shard_point_queries_are_partition_local(service_index):
    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=2, replicas_per_shard=1)
    )
    entry = service_index.entries[0]
    owner = svc.shard_for("url", entry.url)
    other = next(s for s in svc.shard_ids if s != owner)
    assert svc.shards[owner].lookup(entry.url) is entry
    assert svc.shards[other].lookup(entry.url) is None
    # Aggregates replicate: every shard answers them identically.
    for shard in svc.shards.values():
        assert shard.bucket_counts() == service_index.bucket_counts()
        assert shard.quantile("posting_year", 0.5) == service_index.quantile(
            "posting_year", 0.5
        )


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(replicas_per_shard=0)
    with pytest.raises(ValueError):
        ClusterConfig(policy="random")
    with pytest.raises(ValueError):
        ClusterConfig(max_dispatch_attempts=0)
    with pytest.raises(ValueError):
        ClusterConfig(congestion_ms_per_inflight=-1.0)


# -- faults-off equivalence with the single-node service -------------------------


def test_cluster_equals_single_node_across_topologies(service_index):
    """to_wire bytes and the shed set match for every N×R tested."""
    workload = mixed_workload(service_index)
    single = LinkStatusService(service_index).serve(workload)
    single_wire = wire(single)
    for n_shards in (1, 2, 4):
        for replicas in (1, 2, 3):
            result = ClusterService(
                service_index,
                cluster=ClusterConfig(
                    n_shards=n_shards, replicas_per_shard=replicas
                ),
            ).serve(workload)
            assert wire(result) == single_wire, (n_shards, replicas)
            assert result.shed_ids == single.shed_ids, (n_shards, replicas)


def test_one_by_one_cluster_reproduces_single_node_exactly(service_index):
    """At N=1, R=1 even the virtual timing is identical, per policy."""
    workload = mixed_workload(service_index)
    single = LinkStatusService(service_index).serve(workload)
    for policy in ("round_robin", "least_outstanding", "power_of_two"):
        result = ClusterService(
            service_index,
            cluster=ClusterConfig(
                n_shards=1, replicas_per_shard=1, policy=policy
            ),
        ).serve(workload)
        assert result.responses == single.responses, policy


def test_policies_agree_on_answers(service_index):
    """Replica choice moves latency only, never the answer surface."""
    workload = mixed_workload(service_index)
    cluster = dict(n_shards=2, replicas_per_shard=3)
    runs = {
        policy: ClusterService(
            service_index, cluster=ClusterConfig(policy=policy, **cluster)
        ).serve(workload)
        for policy in ("round_robin", "least_outstanding", "power_of_two")
    }
    wires = {policy: wire(run) for policy, run in runs.items()}
    assert wires["round_robin"] == wires["least_outstanding"]
    assert wires["round_robin"] == wires["power_of_two"]


def test_request_spans_nest_under_their_service_span(service_index):
    """Request spans materialise when the trace is first read; reading
    it inside an unrelated open span must not adopt them."""
    tracer = Tracer()
    ClusterService(
        service_index,
        cluster=ClusterConfig(n_shards=1, replicas_per_shard=1),
        tracer=tracer,
    ).serve(mixed_workload(service_index, n=200))
    with tracer.span("reader") as reader:
        spans = tracer.spans
    roots = [s for s in spans if s.kind == "service"]
    assert len(roots) == 1
    requests = [s for s in spans if s.kind == "service.request"]
    assert len(requests) == 200
    assert {s.parent_id for s in requests} == {roots[0].span_id}
    assert not [s for s in spans if s.parent_id == reader.span_id]


# -- replica-level chaos: degradation is confined --------------------------------


CRASH_PLAN = ServiceFaultPlan(
    seed=5,
    replica_crash=FaultSpec(rate=0.6, permanent=True),
    crash_horizon_ms=600.0,
    crash_duration_ms=150.0,
    catchup_ms=100.0,
    replica_partition=FaultSpec(rate=0.5, permanent=True),
    partition_horizon_ms=600.0,
    partition_duration_ms=120.0,
    replica_slow=FaultSpec(rate=0.4, permanent=True),
)


def assert_chaos_confined(clean, chaotic):
    """Chaos may move latency and add 503s — never answers or 429s."""
    clean_by_id = {r.request_id: r for r in clean.responses}
    for response in chaotic.responses:
        mate = clean_by_id[response.request_id]
        if not response.shed and not mate.shed:
            assert response.to_wire() == mate.to_wire()
    c429 = {r.request_id for r in clean.responses if r.status == 429}
    f429 = {r.request_id for r in chaotic.responses if r.status == 429}
    assert c429 == f429
    extra = set(chaotic.shed_ids) - set(clean.shed_ids)
    assert extra == set(chaotic.unavailable_ids)


def test_replica_crash_chaos_confined_and_replayable(service_index):
    workload = mixed_workload(service_index)
    cluster = ClusterConfig(n_shards=2, replicas_per_shard=2)
    clean = ClusterService(service_index, cluster=cluster).serve(workload)
    chaotic = ClusterService(
        service_index, cluster=cluster, faults=CRASH_PLAN
    ).serve(workload)
    assert chaotic.fault_events, "plan should schedule replica faults"
    assert_chaos_confined(clean, chaotic)
    replay = ClusterService(
        service_index, cluster=cluster, faults=CRASH_PLAN
    ).serve(workload)
    assert chaotic.responses == replay.responses
    assert chaotic.fault_events == replay.fault_events


def test_unrecoverable_shard_sheds_503_deterministically(service_index):
    """With 1 replica/shard, guaranteed crashes, and a tiny dispatch
    budget, some requests give up with a 503 — the same set each run."""
    workload = mixed_workload(service_index, n=1500, rps=2000.0, seed=3)
    plan = ServiceFaultPlan.crashes(
        rate=1.0, seed=9, horizon_ms=400.0, duration_ms=250.0
    )
    cluster = ClusterConfig(
        n_shards=2, replicas_per_shard=1, max_dispatch_attempts=2
    )
    first = ClusterService(service_index, cluster=cluster, faults=plan).serve(
        workload
    )
    assert first.unavailable_ids, "expected some 503 sheds"
    assert set(first.unavailable_ids) <= set(first.shed_ids)
    for rid in first.unavailable_ids:
        assert first.responses[rid].status == 503
    again = ClusterService(service_index, cluster=cluster, faults=plan).serve(
        workload
    )
    assert first.responses == again.responses
    # A generous dispatch budget waits out the crash instead of shedding.
    patient = ClusterService(
        service_index,
        cluster=ClusterConfig(
            n_shards=2, replicas_per_shard=1, max_dispatch_attempts=8
        ),
        faults=plan,
    ).serve(workload)
    assert not patient.unavailable_ids


def test_slow_replica_moves_latency_not_answers(service_index):
    workload = mixed_workload(service_index)
    cluster = ClusterConfig(n_shards=1, replicas_per_shard=2)
    clean = ClusterService(service_index, cluster=cluster).serve(workload)
    slowed = ClusterService(
        service_index,
        cluster=cluster,
        faults=ServiceFaultPlan.slow_replicas(rate=1.0, seed=2, factor=4.0),
    ).serve(workload)
    assert wire(slowed) == wire(clean)
    assert slowed.shed_ids == clean.shed_ids
    assert slowed.latency_quantile(0.99) > clean.latency_quantile(0.99)


# -- replay goldens ---------------------------------------------------------------


def replay_digest(result, metrics, audit) -> str:
    """SHA-256 over every ``Response`` field, the canonical metrics
    snapshot and the audit JSONL of one cluster replay."""
    digest = hashlib.sha256()
    for r in result.responses:
        fields = [
            r.request_id, r.status, r.body, r.arrival_ms, r.start_ms,
            r.completion_ms, r.source, r.index_version,
        ]
        digest.update(
            json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    digest.update(render_json(metrics).encode())
    digest.update("\n".join(audit.lines()).encode())
    return digest.hexdigest()


def observed_replay(index, workload, cluster, plan, config=ServerConfig(),
                    swaps=None):
    metrics, audit = MetricsRegistry(), AuditLog()
    result = ClusterService(
        index, config, cluster, metrics=metrics, faults=plan, audit=audit
    ).serve(workload, swaps=swaps)
    return result, replay_digest(result, metrics, audit)


#: Digests of the two replays below, recorded before the serving loop's
#: routing, fault-schedule, metrics and event-scan memos existed. Any
#: change to a response, a metric or an audit record moves them.
SLOW_DELTA_REPLAY_SHA = (
    "549636b57eb3fbc6121f924abb01a5e8e135f5fb1df42c1f65a5273e2f9e9440"
)
CRASH_PARTITION_REPLAY_SHA = (
    "53c81080cf345941a76dae19cff362076c1676c78244e7c0b074ab481bd554be"
)


def test_slow_replica_delta_replay_golden(service_index):
    """4×2 with one slow replica per shard, an atomic and a drained
    ``DeltaApply`` between generations cut from the shared index."""
    entries = service_index.entries
    gap_days = service_index.gap_days
    g1 = LinkStatusIndex(
        tuple(e for i, e in enumerate(entries) if i % 7 != 3), gap_days
    )
    g2 = LinkStatusIndex(
        tuple(e for i, e in enumerate(entries) if i % 5 != 1), gap_days
    )
    workload = mixed_workload(service_index)
    horizon = workload[-1].arrival_ms
    swaps = [
        DeltaApply(
            at_ms=horizon / 3.0,
            delta=GenerationDelta.between(service_index, g1),
        ),
        DeltaApply(
            at_ms=2.0 * horizon / 3.0,
            drain=True,
            delta=GenerationDelta.between(g1, g2),
        ),
    ]
    result, digest = observed_replay(
        service_index,
        workload,
        ClusterConfig(n_shards=4, replicas_per_shard=2),
        ServiceFaultPlan.slow_replicas(0.5, seed=27),
        config=ServerConfig(cache_capacity=32),
        swaps=swaps,
    )
    assert result.index_versions == (
        service_index.version, g1.version, g2.version
    )
    assert [e.drained_batches for e in result.reconfig_events] == [0, 3]
    assert digest == SLOW_DELTA_REPLAY_SHA


def test_crash_partition_replay_golden(service_index):
    """2×2 under crash + partition + slow chaos, with re-dispatches."""
    result, digest = observed_replay(
        service_index,
        mixed_workload(service_index),
        ClusterConfig(n_shards=2, replicas_per_shard=2),
        CRASH_PLAN,
    )
    assert result.redispatches == 11
    assert len(result.fault_events) == 10
    assert digest == CRASH_PARTITION_REPLAY_SHA


# -- fault decisions are router-policy invariant (the regression) ----------------


def test_fault_schedule_is_invariant_to_router_policy(service_index):
    """The chaos a fleet experiences must not depend on the policy
    under test: same plan + same replicas ⇒ same transition schedule,
    and the served answers agree across policies under chaos too."""
    workload = mixed_workload(service_index)
    runs = {}
    for policy in ("round_robin", "least_outstanding", "power_of_two"):
        runs[policy] = ClusterService(
            service_index,
            cluster=ClusterConfig(
                n_shards=2, replicas_per_shard=2, policy=policy
            ),
            faults=CRASH_PLAN,
        ).serve(workload)
    schedules = {p: r.fault_events for p, r in runs.items()}
    assert schedules["round_robin"] == schedules["least_outstanding"]
    assert schedules["round_robin"] == schedules["power_of_two"]
    base = runs["round_robin"]
    base_by_id = {r.request_id: r for r in base.responses}
    for run in runs.values():
        for response in run.responses:
            mate = base_by_id[response.request_id]
            if not response.shed and not mate.shed:
                assert response.to_wire() == mate.to_wire()


def test_fault_decisions_are_pure_not_attempt_counted():
    """Asking the same question twice returns the same answer.

    The stateful FaultChannel implementation keyed decisions by an
    attempt counter, so a transient (non-permanent) spec faulted the
    first ``depth`` calls and then cleared — meaning *which* calls saw
    the fault depended on how many earlier calls the router's policy
    happened to send that way. The service layer now ignores attempt
    counts entirely: a (replica, key) pair is faulted or it is not.
    """
    plan = ServiceFaultPlan(
        seed=11,
        index_spike=FaultSpec(rate=1.0, max_repeats=2, permanent=False),
        cache_fault=FaultSpec(rate=1.0, max_repeats=2, permanent=False),
    )
    faults = ServiceFaults(plan)
    for key in ("url:http://a.example/", "url:http://b.example/"):
        first = [faults.spike_ms(key), faults.cache_lost(key)]
        for _ in range(5):
            assert [faults.spike_ms(key), faults.cache_lost(key)] == first


def test_key_fault_sets_match_legacy_channel_selection():
    """The pure decisions select exactly the keys the stateful
    FaultChannel selected under the same seed — the rewrite changed
    the mechanism, not the chaos a pinned plan produces."""
    from repro.faults.inject import FaultChannel

    spec = FaultSpec(rate=0.5, permanent=True)
    plan = ServiceFaultPlan(seed=3, cache_fault=spec, index_spike=spec)
    faults = ServiceFaults(plan)
    legacy_cache = FaultChannel(3, "service.cache", spec)
    legacy_spike = FaultChannel(3, "service.index_spike", spec)
    for i in range(300):
        key = f"url:http://host{i}.example/page"
        assert faults.cache_lost(key) == (legacy_cache.depth(key) > 0)
        assert (faults.spike_ms(key) > 0) == (legacy_spike.depth(key) > 0)


def test_replica_windows_are_pure_and_consistent():
    faults = ServiceFaults(
        ServiceFaultPlan.crashes(rate=1.0, seed=4, horizon_ms=1000.0,
                                 duration_ms=200.0)
    )
    window = faults.crash_window("s0r0")
    assert window is not None
    start, end = window
    assert 0.0 <= start < 1000.0 and end == start + 200.0
    assert faults.crash_window("s0r0") == window
    assert not faults.available("s0r0", start)
    assert faults.available("s0r0", end)
    assert faults.next_available_at("s0r0", start) == end
    assert faults.next_failure_at("s0r0", start - 1.0) == start
    assert faults.catchup_factor("s0r0", end) == faults.plan.catchup_factor
    assert faults.catchup_factor("s0r0", end + faults.plan.catchup_ms) == 1.0
    events = faults.transitions(("s0r0",))
    assert [e.kind for e in events] == ["crash", "recover"]


#: The replica plans the chaos grids run (this file's, and the shape of
#: the live and reconfiguration grids), plus the benchmark's slow plan
#: and a plan that fires every key-level channel.
GRID_PLANS = (
    CRASH_PLAN,
    ServiceFaultPlan(
        seed=13,
        replica_crash=FaultSpec(rate=0.4),
        crash_horizon_ms=500.0,
        crash_duration_ms=60.0,
        replica_partition=FaultSpec(rate=0.3),
        partition_horizon_ms=500.0,
        partition_duration_ms=50.0,
        replica_slow=FaultSpec(rate=0.3),
    ),
    ServiceFaultPlan.crashes(rate=1.0, seed=9, horizon_ms=400.0,
                             duration_ms=250.0),
    ServiceFaultPlan.slow_replicas(0.5, seed=27),
    ServiceFaultPlan(
        seed=2,
        index_spike=FaultSpec(rate=0.5, permanent=True),
        cache_fault=FaultSpec(rate=0.5, permanent=True),
        replica_crash=FaultSpec(rate=0.5, permanent=True),
        replica_partition=FaultSpec(rate=0.5, permanent=True),
    ),
)
GRID_REPLICAS = tuple(f"s{s}r{r}" for s in range(4) for r in range(3))


def hashed_window(faults, channel, spec, horizon_ms, duration_ms, replica_id):
    """A replica's window straight from the pure hash (no memo)."""
    if not (spec.active and faults._unit(channel, "hit", replica_id) < spec.rate):
        return None
    start = faults._unit(channel, "start", replica_id) * horizon_ms
    return (start, start + duration_ms)


@pytest.mark.parametrize("plan", GRID_PLANS, ids=lambda p: f"seed{p.seed}")
def test_memoised_fault_schedule_matches_fresh_instances(plan):
    """One long-lived ``ServiceFaults`` (its per-replica memo warm)
    answers every schedule question exactly as a fresh instance does,
    and as the hash defines it; key-level ``injected`` counts still
    tick once per faulted call."""
    memo = ServiceFaults(plan)
    instants = {0.0, 10_000.0}
    for replica_id in GRID_REPLICAS:
        fresh = ServiceFaults(plan)
        crash = hashed_window(
            fresh, "crash", plan.replica_crash,
            plan.crash_horizon_ms, plan.crash_duration_ms, replica_id,
        )
        partition = hashed_window(
            fresh, "partition", plan.replica_partition,
            plan.partition_horizon_ms, plan.partition_duration_ms, replica_id,
        )
        assert fresh.crash_window(replica_id) == crash
        assert fresh.partition_window(replica_id) == partition
        for window in (crash, partition):
            if window is not None:
                for edge in window + (window[1] + plan.catchup_ms,):
                    instants.update((edge - 0.5, edge, edge + 0.5))
    for replica_id in GRID_REPLICAS:
        for question in ("crash_window", "partition_window", "slow_factor"):
            assert getattr(memo, question)(replica_id) == getattr(
                ServiceFaults(plan), question
            )(replica_id)
        for at_ms in sorted(instants):
            for question in ("available", "next_failure", "catchup_factor"):
                assert getattr(memo, question)(replica_id, at_ms) == getattr(
                    ServiceFaults(plan), question
                )(replica_id, at_ms)
    assert memo.injected == 0
    faulted = 0
    for replica_id in GRID_REPLICAS:
        for i in range(20):
            key = f"url:http://host{i}.example/"
            for _ in range(2):
                fresh = ServiceFaults(plan)
                assert memo.spike_ms(key, replica_id) == fresh.spike_ms(
                    key, replica_id
                )
                assert memo.cache_lost(key, replica_id) == fresh.cache_lost(
                    key, replica_id
                )
                faulted += fresh.injected
    assert memo.injected == faulted
    assert memo.transitions(GRID_REPLICAS) == (
        ServiceFaults(plan).transitions(GRID_REPLICAS)
    )


def test_fault_schedule_memo_is_bounded():
    from repro.service.faults import _SCHEDULE_MEMO_CAP

    plan = GRID_PLANS[1]
    faults = ServiceFaults(plan)
    for i in range(_SCHEDULE_MEMO_CAP + 100):
        replica_id = f"r{i}"
        assert faults.crash_window(replica_id) == (
            ServiceFaults(plan).crash_window(replica_id)
        )
        assert len(faults._schedules) <= _SCHEDULE_MEMO_CAP


# -- router policies and quotas --------------------------------------------------


def test_round_robin_rotates_per_shard():
    picker = ReplicaPicker("round_robin")
    picks = [picker.pick("shard-0", 3, [0, 0, 0], i) for i in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # A different shard rotates independently.
    assert picker.pick("shard-1", 3, [0, 0, 0], 0) == 0


def test_least_outstanding_prefers_idle_replica():
    picker = ReplicaPicker("least_outstanding")
    assert picker.pick("s", 3, [4, 1, 4], 0) == 1
    # Ties break to the lowest index, deterministically.
    assert picker.pick("s", 3, [2, 2, 2], 1) == 0


def test_power_of_two_is_seed_deterministic():
    first = ReplicaPicker("power_of_two", seed=9)
    second = ReplicaPicker("power_of_two", seed=9)
    picks_a = [first.pick("s", 4, [3, 0, 2, 1], i) for i in range(40)]
    picks_b = [second.pick("s", 4, [3, 0, 2, 1], i) for i in range(40)]
    assert picks_a == picks_b
    # A redispatch (attempt bump) may redraw its candidates.
    assert first.pick("s", 4, [0, 0, 0, 0], 7, attempt=0) == first.pick(
        "s", 4, [0, 0, 0, 0], 7, attempt=0
    )


def test_tenant_quotas_throttle_only_metered_tenants(service_index):
    workload = mixed_workload(
        service_index, n=1500, rps=1500.0, seed=3, tenants=("free", "paid")
    )
    result = ClusterService(
        service_index,
        cluster=ClusterConfig(
            n_shards=2, replicas_per_shard=2, quotas={"free": (200.0, 4.0)}
        ),
    ).serve(workload)
    quota_shed = set(result.quota_shed_ids)
    assert quota_shed, "the free tier should exceed its quota"
    tenant_of = {r.request_id: r.tenant for r in workload}
    assert {tenant_of[rid] for rid in quota_shed} == {"free"}
    quotas = TenantQuotas({"vip": (10.0, 2.0)})
    assert quotas.admit("anonymous", 0.0)  # unmetered passes untouched
    assert quotas.admit("vip", 0.0)


def test_event_scan_breaks_deadline_ties_by_replica_position(service_index):
    """Batches due at one instant flush lowest replica position first,
    and a later deadline never wins over an earlier one."""
    from repro.service.cluster import _P_DEADLINE

    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=2, replicas_per_shard=2)
    )
    svc.serve([])
    request = mixed_workload(service_index, n=1)[0]
    svc._all_replicas[0].batcher.add(request, 6.0)
    for position in (3, 1, 2):
        svc._all_replicas[position].batcher.add(request, 5.0)
    assert svc._next_event() == (
        5.0 + svc.config.max_wait_ms, _P_DEADLINE, 1
    )


# -- metrics fold ----------------------------------------------------------------


def test_replica_metric_families_sum_to_rollup(service_index):
    result = ClusterService(
        service_index,
        cluster=ClusterConfig(n_shards=2, replicas_per_shard=2),
    ).serve(mixed_workload(service_index))
    for name in (
        "service.index.lookups",
        "service.requests.ok",
        "service.cache.hits",
        "service.batch.flushes",
    ):
        rollup = result.metrics.counter(name).value
        family_sum = sum(
            result.metrics.counter(
                f"service.replica.{rid}.{name}"
            ).value
            for rid in result.replica_ids
        )
        assert rollup == family_sum, name
    digest = result.replica_digest()
    assert set(digest) == set(result.replica_ids)
    assert sum(
        fam.get("service.index.lookups", 0) for fam in digest.values()
    ) == result.metrics.counter("service.index.lookups").value


# -- heavier chaos sweeps (tier-2) -----------------------------------------------


@pytest.mark.chaos
def test_chaos_grid_confinement_across_policies_and_topologies(service_index):
    """The full chaos matrix: every policy × topology under the
    combined crash/partition/slow plan stays confined and replayable."""
    workload = mixed_workload(service_index, n=4000, rps=3000.0)
    for n_shards, replicas in ((1, 2), (2, 2), (4, 3)):
        cluster = ClusterConfig(n_shards=n_shards, replicas_per_shard=replicas)
        clean = ClusterService(service_index, cluster=cluster).serve(workload)
        for policy in ("round_robin", "least_outstanding", "power_of_two"):
            config = ClusterConfig(
                n_shards=n_shards, replicas_per_shard=replicas, policy=policy
            )
            chaotic = ClusterService(
                service_index, cluster=config, faults=CRASH_PLAN
            ).serve(workload)
            assert_chaos_confined(clean, chaotic)
            replay = ClusterService(
                service_index, cluster=config, faults=CRASH_PLAN
            ).serve(workload)
            assert chaotic.responses == replay.responses

