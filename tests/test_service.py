"""Tests for repro.service — index, batching, caching, admission, serving.

The contracts pinned here, in rough dependency order:

- the index is immutable and content-hash-versioned: rebuilds agree,
  measurement changes move the version, provenance-cost changes don't;
- aggregate endpoints agree byte-for-byte with the batch report;
- duplicate in-flight queries coalesce into exactly one index lookup;
- the result cache expires on the virtual clock, not the wall clock;
- admission control sheds a deterministic, reproducible *set* of
  request ids, FIFO-fairly;
- the single node (the serving loop at one shard × one replica)
  keeps a pinned replay digest: responses, timing, rollup counters,
  generations served and reconfiguration events;
- fault plans degrade latency and hit rate only — never bodies,
  statuses, or the shed set.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.obs.trace import Tracer
from repro.reporting.cdf import ecdf
from repro.service import (
    AdmissionController,
    DeltaApply,
    GenerationDelta,
    LinkStatusEntry,
    LinkStatusIndex,
    LinkStatusService,
    MicroBatcher,
    Request,
    ResultCache,
    ServerConfig,
    ServiceFaultPlan,
    TokenBucket,
    WorkloadConfig,
    generate_workload,
)
from repro.service.server import answer


# -- helpers ---------------------------------------------------------------------


def make_entry(url: str, bucket: str = "404", **over) -> LinkStatusEntry:
    """A minimal hand-built index entry for unit tests."""
    hostname = url.split("/")[2]
    fields = dict(
        url=url,
        hostname=hostname,
        domain=".".join(hostname.split(".")[-2:]),
        bucket=bucket,
        final_status=200 if bucket == "200" else 404,
        redirected=False,
        genuinely_alive=False,
        has_pre_marking_200=False,
        has_pre_marking_3xx=False,
        has_any_copy=False,
        has_valid_redirect_copy=False,
        first_post_marking_erroneous=None,
        typo_correction=None,
        posting_year=2010.0,
        site_ranking=None,
    )
    fields.update(over)
    return LinkStatusEntry(**fields)


def tiny_index(n: int = 8) -> LinkStatusIndex:
    return LinkStatusIndex(
        entries=tuple(
            make_entry(f"http://site{i}.example.com/page-{i}.html")
            for i in range(n)
        ),
        gap_days=(1.0, 2.0, 30.0),
    )


def url_requests(specs) -> list[Request]:
    """Requests from ``(arrival_ms, url)`` pairs, ids in list order."""
    return [
        Request(request_id=i, arrival_ms=ms, kind="url", target=url)
        for i, (ms, url) in enumerate(specs)
    ]


@pytest.fixture(scope="session")
def service_index(small_report) -> LinkStatusIndex:
    """The index snapshot of the shared small study (read-only)."""
    return LinkStatusIndex.build(small_report)


# -- index: immutability and versioning ------------------------------------------


def test_index_version_shape_and_rebuild_stability(small_report, service_index):
    assert service_index.version.startswith("lsi-")
    assert len(service_index.version) == len("lsi-") + 16
    rebuilt = LinkStatusIndex.build(small_report)
    assert rebuilt.version == service_index.version
    assert len(rebuilt) == len(service_index) == len(small_report.dataset.records)


def test_index_version_tracks_measurement_not_provenance():
    base = tiny_index()
    # A measurement change (different bucket) must move the version.
    changed = dataclasses.replace(base.entries[0], bucket="200", final_status=200)
    reindexed = LinkStatusIndex(
        entries=(changed,) + base.entries[1:], gap_days=(1.0, 2.0, 30.0)
    )
    assert reindexed.version != base.version
    # A provenance-cost change (cache-hit split) must NOT move it.
    cheaper = dataclasses.replace(base.entries[0], fetches=99, retries=7)
    same = LinkStatusIndex(
        entries=(cheaper,) + base.entries[1:], gap_days=(1.0, 2.0, 30.0)
    )
    assert same.version == base.version


def test_index_is_immutable(service_index):
    entry = service_index.entries[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.bucket = "other"
    assert isinstance(service_index.entries, tuple)
    # Aggregates hand out copies: mutating one doesn't leak back.
    counts = service_index.bucket_counts()
    counts["404"] = -1
    assert service_index.bucket_counts() != counts


def test_index_requires_outcomes(small_report):
    stripped = dataclasses.replace(small_report, outcomes=None)
    with pytest.raises(ValueError, match="outcomes"):
        LinkStatusIndex.build(stripped)


# -- index: aggregate endpoints byte-match the batch report ----------------------


def test_bucket_counts_byte_match_batch_report(small_report, service_index):
    batch = {outcome.value: n for outcome, n in small_report.counts.items()}
    assert service_index.bucket_counts() == batch


def test_quantiles_byte_match_batch_report(small_report, service_index):
    gap_cdf = ecdf(small_report.temporal.gaps_days)
    year_cdf = ecdf(
        [o.record.posted_at.fractional_year() for o in small_report.outcomes]
    )
    for q in (0.1, 0.25, 0.5, 0.9, 0.99):
        assert service_index.quantile("gap_days", q) == gap_cdf.quantile(q)
        assert service_index.quantile("posting_year", q) == year_cdf.quantile(q)


def test_lookup_and_domain_queries(service_index, small_report):
    record = small_report.dataset.records[0]
    entry = service_index.lookup(record.url)
    assert entry is not None and entry.url == record.url
    assert entry in service_index.by_domain(record.domain)
    assert service_index.lookup("http://not-studied.invalid/") is None


def test_answer_statuses(service_index):
    status, body = answer(service_index, "url", "http://nope.invalid/")
    assert (status, body) == (404, None)
    status, body = answer(service_index, "bucket_counts", "")
    assert status == 200 and body == service_index.bucket_counts()
    status, _ = answer(service_index, "quantile", "no_such_metric:0.5")
    assert status == 400
    status, _ = answer(service_index, "nonsense", "")
    assert status == 400


# -- batching and coalescing -----------------------------------------------------


def test_duplicate_in_flight_queries_share_one_lookup():
    index = tiny_index()
    url = index.entries[0].url
    service = LinkStatusService(index, ServerConfig(max_batch=4))
    result = service.serve(url_requests([(0.0, url)] * 4))
    assert service.metrics.counter("service.index.lookups").int_value == 1
    assert service.metrics.counter("service.batch.coalesced").int_value == 3
    assert [r.source for r in result.responses] == [
        "index", "coalesced", "coalesced", "coalesced",
    ]
    assert len({(r.status, str(r.body)) for r in result.responses}) == 1


def test_partial_batch_flushes_at_deadline():
    batcher = MicroBatcher(max_batch=8, max_wait_ms=5.0)
    assert batcher.add(object_request(0), 0.0) is None
    assert batcher.deadline_ms == 5.0
    assert batcher.flush_due(4.9) is None
    batch = batcher.flush_due(5.0)
    assert batch is not None and batch.flush_ms == 5.0
    assert batcher.pending == 0 and batcher.deadline_ms is None


def test_full_batch_flushes_immediately():
    batcher = MicroBatcher(max_batch=2, max_wait_ms=50.0)
    assert batcher.add(object_request(0), 1.0) is None
    batch = batcher.add(object_request(1), 3.0)
    assert batch is not None and batch.flush_ms == 3.0 and len(batch) == 2


def object_request(i: int) -> Request:
    return Request(
        request_id=i, arrival_ms=0.0, kind="url", target=f"http://h.example/{i}"
    )


# -- cache: LRU + virtual TTL ----------------------------------------------------


def test_cache_ttl_expires_on_virtual_clock():
    cache = ResultCache(capacity=4, ttl_ms=10.0)
    cache.put("k", (200, {"x": 1}), now_ms=0.0)
    assert cache.get("k", now_ms=9.999) == (200, {"x": 1})
    assert cache.get("k", now_ms=10.0) is None  # TTL is inclusive
    assert cache.expirations == 1
    assert cache.get("k", now_ms=10.0) is None  # gone, plain miss now
    assert cache.misses == 2 and cache.hits == 1


def test_cache_lru_eviction_order():
    cache = ResultCache(capacity=2, ttl_ms=None)
    cache.put("a", (200, 1), 0.0)
    cache.put("b", (200, 2), 1.0)
    assert cache.get("a", 2.0) is not None  # refresh a
    cache.put("c", (200, 3), 3.0)  # evicts b, the LRU entry
    assert cache.get("b", 4.0) is None
    assert cache.get("a", 4.0) is not None
    assert cache.evictions == 1


def test_service_cache_hit_then_virtual_expiry():
    index = tiny_index()
    url = index.entries[0].url
    config = ServerConfig(max_batch=8, max_wait_ms=2.0, cache_ttl_ms=10.0)
    service = LinkStatusService(index, config)
    result = service.serve(
        url_requests([(0.0, url), (5.0, url), (50.0, url)])
    )
    by_id = {r.request_id: r for r in result.responses}
    assert by_id[0].source == "index"   # cold lookup
    assert by_id[1].source == "cache"   # 5 ms later: fresh in cache
    assert by_id[2].source == "index"   # 48 ms after fill: expired
    assert service.metrics.counter("service.index.lookups").int_value == 2
    assert service.metrics.counter("service.cache.expirations").int_value == 1


# -- admission: token bucket, bounded queue, deterministic shedding --------------


def test_token_bucket_refill_round_trip():
    bucket = TokenBucket(rate_per_s=3.0, burst=1.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)
    ready = bucket.next_ready_ms()
    assert ready > 0.0
    # The solved-for instant must actually admit (float round-trip).
    assert bucket.try_take(ready)


def test_admission_admit_queue_shed_progression():
    controller = AdmissionController(
        TokenBucket(rate_per_s=1.0, burst=1.0), queue_limit=2
    )
    verdicts = [
        controller.offer(object_request(i), now_ms=0.0) for i in range(4)
    ]
    assert verdicts == ["admit", "queue", "queue", "shed"]
    req, ready = controller.release_one()
    assert req.request_id == 1 and ready == pytest.approx(1000.0)
    # The release booked the queue wait (enqueue at 0, token at 1000).
    wait = controller.metrics.snapshot()["histograms"][
        "service.admission.queue_wait_ms"
    ]
    assert wait["count"] == 1
    assert wait["sum"] == pytest.approx(1000.0)


def test_shed_set_is_deterministic_and_reproducible(service_index):
    workload = generate_workload(
        [e.url for e in service_index.entries],
        WorkloadConfig(n_requests=800, offered_rps=4000.0, seed=11),
    )
    config = ServerConfig(rate_rps=1000.0, burst=4, queue_limit=16)
    runs = [
        LinkStatusService(service_index, config).serve(workload)
        for _ in range(2)
    ]
    assert runs[0].shed_ids  # overload actually sheds
    assert runs[0].shed_ids == runs[1].shed_ids
    for response in runs[0].responses:
        if response.shed:
            assert response.status == 429 and response.body is None


# -- server: serve modes, tracing ------------------------------------------------


def mixed_workload(index: LinkStatusIndex, n: int = 600) -> tuple[Request, ...]:
    return generate_workload(
        [e.url for e in index.entries],
        WorkloadConfig(
            n_requests=n,
            offered_rps=2500.0,
            seed=7,
            aggregate_fraction=0.05,
            unknown_fraction=0.02,
        ),
    )


def test_unknown_serve_mode_rejected(service_index):
    with pytest.raises(ValueError, match="mode"):
        LinkStatusService(service_index).serve([], mode="fork")


def test_trace_hierarchy_service_request_lookup(service_index):
    tracer = Tracer()
    service = LinkStatusService(service_index, tracer=tracer)
    service.serve(mixed_workload(service_index, n=200))
    by_id = {span.span_id: span for span in tracer.spans}
    roots = [s for s in tracer.spans if s.kind == "service"]
    assert len(roots) == 1
    requests = [s for s in tracer.spans if s.kind == "service.request"]
    assert len(requests) == 200
    lookups = [s for s in tracer.spans if s.kind == "service.index"]
    assert len(lookups) == service.metrics.counter(
        "service.index.lookups"
    ).int_value
    # Every lookup span hangs under a request span under the root.
    for lookup in lookups:
        parent = by_id[lookup.parent_id]
        assert parent.kind == "service.request"
        assert by_id[parent.parent_id].kind == "service"
        assert lookup.virtual_ms > 0.0


# -- faults: degradation is bounded and documented -------------------------------


def test_fault_runs_degrade_only_latency_and_hit_rate(service_index):
    workload = mixed_workload(service_index)
    clean = LinkStatusService(service_index).serve(workload)
    spiky = LinkStatusService(
        service_index,
        faults=ServiceFaultPlan.spikes(rate=0.5, seed=3, spike_ms=200.0),
    ).serve(workload)
    flaky = LinkStatusService(
        service_index, faults=ServiceFaultPlan.flaky_cache(rate=0.5, seed=3)
    ).serve(workload)

    def observable(run):
        return [(r.request_id, r.status, str(r.body)) for r in run.responses]

    # Same answers, same shed set, under every plan.
    assert observable(clean) == observable(spiky) == observable(flaky)
    assert clean.shed_ids == spiky.shed_ids == flaky.shed_ids
    # Spikes move tail latency up; flaky cache moves hit rate down.
    assert spiky.latency_quantile(0.99) > clean.latency_quantile(0.99)
    assert spiky.metrics.counter("service.index.spikes").int_value > 0
    assert flaky.cache_hit_rate < clean.cache_hit_rate
    assert flaky.metrics.counter("service.cache.faults").int_value > 0


def test_fault_runs_are_replayable(service_index):
    workload = mixed_workload(service_index, n=300)
    plan = ServiceFaultPlan.spikes(rate=0.3, seed=9)
    first = LinkStatusService(service_index, faults=plan).serve(workload)
    second = LinkStatusService(service_index, faults=plan).serve(workload)
    assert first.responses == second.responses


# -- workload generator ----------------------------------------------------------


def test_workload_is_deterministic_and_zipf_headed(service_index):
    urls = [e.url for e in service_index.entries]
    config = WorkloadConfig(n_requests=1000, offered_rps=500.0, seed=5)
    first = generate_workload(urls, config)
    assert first == generate_workload(urls, config)
    assert [r.request_id for r in first] == list(range(1000))
    assert all(
        a.arrival_ms <= b.arrival_ms for a, b in zip(first, first[1:])
    )
    # Zipf head: rank-1 URL dominates any mid-tail URL.
    hits = {}
    for request in first:
        hits[request.target] = hits.get(request.target, 0) + 1
    assert hits.get(urls[0], 0) > hits.get(urls[len(urls) // 2], 0)


def test_workload_validates_config():
    with pytest.raises(ValueError):
        WorkloadConfig(n_requests=-1)
    with pytest.raises(ValueError):
        WorkloadConfig(offered_rps=0.0)
    with pytest.raises(ValueError):
        generate_workload([], WorkloadConfig())


# -- result digest ---------------------------------------------------------------


def test_service_result_digest_fields(service_index):
    result = LinkStatusService(service_index).serve(
        mixed_workload(service_index, n=300)
    )
    digest = result.as_dict()
    assert digest["offered"] == 300
    assert digest["served"] + digest["shed"] == 300
    assert digest["index_version"] == service_index.version
    assert 0.0 <= digest["cache_hit_rate"] <= 1.0
    assert digest["p99_ms"] >= digest["p50_ms"] > 0.0
    assert "shed" in result.summary() and service_index.version in result.summary()


# -- replay golden ---------------------------------------------------------------


#: Rollup counters the node golden pins next to the responses.
GOLDEN_COUNTERS = (
    "service.index.lookups",
    "service.cache.hits",
    "service.batch.coalesced",
    "service.batch.flushes",
    "service.batch.items",
)


def node_replay_digest(results) -> str:
    """SHA-256 over every ``Response`` field, the rollup counters, the
    generations served and the reconfiguration events of node replays."""
    digest = hashlib.sha256()
    for result in results:
        for r in result.responses:
            fields = [
                r.request_id, r.status, r.body, r.arrival_ms, r.start_ms,
                r.completion_ms, r.source, r.index_version,
            ]
            digest.update(
                json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
            )
            digest.update(b"\n")
        counters = [
            result.metrics.counter(name).int_value for name in GOLDEN_COUNTERS
        ]
        tail = [
            counters,
            list(result.index_versions),
            [event.as_dict() for event in result.reconfig_events],
        ]
        digest.update(json.dumps(tail, sort_keys=True).encode())
    return digest.hexdigest()


#: Digest of the two node replays below, recorded when the single node
#: still ran its own serving loop. Any change to a faults-off response
#: (timing included), a pinned counter, a served generation or a
#: reconfiguration event moves it.
NODE_REPLAY_SHA = (
    "72898c3abe6b5bab9701b04a794772ccdadb07943d465a19908e2222c0eab603"
)


def test_node_replay_golden(service_index):
    """Run 1: mixed traffic across an atomic and a drained
    ``DeltaApply``. Run 2: an overload config that sheds."""
    entries = service_index.entries
    gap_days = service_index.gap_days
    g1 = LinkStatusIndex(
        tuple(e for i, e in enumerate(entries) if i % 7 != 3), gap_days
    )
    g2 = LinkStatusIndex(
        tuple(e for i, e in enumerate(entries) if i % 5 != 1), gap_days
    )
    workload = generate_workload(
        [e.url for e in entries],
        WorkloadConfig(
            n_requests=2000,
            offered_rps=2500.0,
            seed=7,
            aggregate_fraction=0.05,
            unknown_fraction=0.05,
        ),
    )
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
    mixed = LinkStatusService(
        service_index, ServerConfig(cache_capacity=32)
    ).serve(workload, swaps=swaps)
    assert mixed.index_versions == (
        service_index.version, g1.version, g2.version
    )
    assert [e.drained_batches for e in mixed.reconfig_events] == [0, 1]
    overload = LinkStatusService(
        service_index, ServerConfig(rate_rps=1000.0, burst=4, queue_limit=16)
    ).serve(
        generate_workload(
            [e.url for e in entries],
            WorkloadConfig(n_requests=800, offered_rps=4000.0, seed=11),
        )
    )
    assert overload.shed_ids
    assert node_replay_digest([mixed, overload]) == NODE_REPLAY_SHA
