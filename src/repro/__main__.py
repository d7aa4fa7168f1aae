"""Command-line entry point: ``python -m repro``.

Subcommands:

    python -m repro study [--links N] [--seed S]      run the full study
    python -m repro calibrate [--links N] [--seed S]  headline paper-vs-measured
                                                      ... table (exit 1 off-band)
    python -m repro medic [--links N] [--seed S]      WaybackMedic rescue run
    python -m repro serve [--requests M] [--rps R]    replay traffic at the service
                    [--offered R] [--pattern P]       ... at an offered load
                    [--spike-rate F]                  ... with index latency spikes
                    [--trace P] [--audit-log P]       ... emitting spans + audit JSONL
                    [--metrics-json P] [--prometheus P] [--slo]   ... and graded SLOs
    python -m repro query (--url U | --domain D |     one query against the index
                           --quantile M:Q | --bucket-counts) [--shards N]
    python -m repro live [--generations G]            drive the world forward,
                    [--interval-days D]               ... delta-building an index
                    [--reprobe-days R]                ... generation per interval
                    [--requests M] [--json P]         ... and replay traffic
                    [--drain] [--full-snapshots]      ... across delta swaps
                    [--rebalance]                     ... and a hot-key migration
    python -m repro generations --url U [--last N]    one URL's status across
                    [--generations G]                 ... the retained index
                    [--interval-days D]               ... generations

``serve`` and ``live`` share the fleet flags ``--shards N``,
``--replicas R``, ``--policy P`` and ``--crash-rate F`` (crash instants
fall within the replay). Also installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import Counter

from .analysis.redirects import RedirectValidator
from .analysis.study import Study
from .backends import StackConfig
from .dataset.worldgen import WorldConfig, generate_world
from .iabot.medic import WaybackMedic
from .reporting.figures import render_bar_chart
from .reporting.summary import paper_comparison
from .wiki.encyclopedia import PERMADEAD_CATEGORY


def _build_world(args) -> "tuple":
    print(f"generating world: {args.links} links, seed {args.seed} ...")
    start = time.time()
    world = generate_world(
        WorldConfig(n_links=args.links, target_sample=args.links, seed=args.seed)
    )
    print(f"  {world.summary()}  ({time.time() - start:.1f}s)")
    return world


def _run_study(args, world):
    """Run the study under the subcommand's stack flags."""
    config = StackConfig.from_args(args)
    tracer = config.build_tracer()
    report = Study.from_world(
        world,
        faults=config.build_faults(),
        retry_policy=config.build_retry_policy(),
    ).run(tracer=tracer)
    if tracer is not None:
        tracer.write_jsonl(config.trace)
        print(f"trace: {len(tracer.spans)} spans -> {config.trace}")
    if config.metrics_json is not None:
        config.metrics_json.write_text(
            json.dumps(report.stats.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"metrics: {config.metrics_json}")
    return report


def _cmd_study(args) -> int:
    world = _build_world(args)
    report = _run_study(args, world)
    if args.markdown:
        from .reporting.report import render_markdown_report

        document = render_markdown_report(
            report,
            title=(
                f"Study report (links={args.links}, seed={args.seed})"
            ),
        )
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.markdown}")
        return 0
    print()
    print(
        render_bar_chart(
            {o.value: c for o, c in report.counts.items()},
            title="Figure 4: live-web outcomes",
        )
    )
    print()
    print(report.summary())
    return 0


def _cmd_calibrate(args) -> int:
    table = paper_comparison(_run_study(args, _build_world(args)))
    print()
    print(table.render())
    return 0 if table.all_within_band else 1


def _cmd_medic(args) -> int:
    world = _build_world(args)
    validator = RedirectValidator(world.cdx)
    medic = WaybackMedic(
        world.encyclopedia,
        world.availability,
        redirect_finder=lambda url, marked: validator.find_valid_redirect_copy(url),
    )
    before = len(world.encyclopedia.articles_in_category(PERMADEAD_CATEGORY))
    report = medic.run(world.study_time)
    after = len(world.encyclopedia.articles_in_category(PERMADEAD_CATEGORY))
    print(
        f"examined {report.links_examined} permanently dead references; "
        f"patched {report.patched_with_200_copy} with missed 200 copies and "
        f"{report.patched_with_validated_redirect} with validated redirects; "
        f"{report.still_permadead} remain. category: {before} -> {after} articles"
    )
    return 0


def _build_index(args):
    from .service import LinkStatusIndex

    world = _build_world(args)
    report = Study.from_world(world).run()
    index = LinkStatusIndex.build(report)
    print(f"  index: {len(index)} entries, version {index.version}")
    return index


def _fleet(args, index, workload, config=None, spike_rate=0.0, **observers):
    """The serving fleet the shared fleet flags describe.

    Replica crash instants are drawn over the replay itself, so a
    ``--crash-rate`` fleet loses its replicas while traffic flows.
    """
    from .faults import FaultSpec
    from .service import (
        ClusterConfig,
        ClusterService,
        ServerConfig,
        ServiceFaultPlan,
    )

    faults = None
    if spike_rate or args.crash_rate:
        faults = ServiceFaultPlan(
            seed=args.seed,
            index_spike=FaultSpec(rate=spike_rate, permanent=True),
            replica_crash=FaultSpec(rate=args.crash_rate, permanent=True),
            crash_horizon_ms=max(
                (r.arrival_ms for r in workload), default=0.0
            ),
        )
    return ClusterService(
        index,
        config or ServerConfig(),
        ClusterConfig(
            n_shards=args.shards,
            replicas_per_shard=args.replicas,
            policy=args.policy,
        ),
        faults=faults,
        **observers,
    )


def _print_fleet(args, result) -> None:
    """The fleet's own accounting, for any topology beyond one node."""
    if args.shards == 1 and args.replicas == 1:
        return
    print(
        f"cluster: {args.shards} shards x {args.replicas} replicas, "
        f"policy {args.policy}; {result.redispatches} redispatches, "
        f"{len(result.unavailable_ids)} gave up (503), "
        f"{len(result.fault_events)} replica fault events"
    )
    for replica_id, counters in result.replica_digest().items():
        ok = int(counters.get("service.requests.ok", 0))
        lookups = int(counters.get("service.index.lookups", 0))
        print(f"  {replica_id}: {ok} ok, {lookups} lookups")


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def _cmd_serve(args) -> int:
    from .obs import (
        Tracer,
        burn_attribution,
        evaluate,
        events_from_audit,
        prometheus_text,
        render_attribution,
        render_json,
    )
    from .service import (
        AuditLog,
        ServerConfig,
        WorkloadConfig,
        generate_workload,
    )

    index = _build_index(args)
    workload = generate_workload(
        [entry.url for entry in index.entries],
        WorkloadConfig(
            n_requests=args.requests,
            offered_rps=args.offered if args.offered else args.rps,
            seed=args.seed,
            aggregate_fraction=0.02,
            unknown_fraction=0.01,
            pattern=args.pattern,
        ),
    )
    tracer = Tracer() if args.trace else None
    audit = AuditLog() if (args.audit_log or args.slo) else None
    result = _fleet(
        args,
        index,
        workload,
        ServerConfig(rate_rps=args.rps),
        spike_rate=args.spike_rate,
        tracer=tracer,
        audit=audit,
    ).serve(workload)
    print()
    print(result.summary())
    _print_fleet(args, result)
    if args.json:
        _write_json(args.json, result.as_dict())
    if tracer is not None:
        written = tracer.write_jsonl(args.trace)
        print(f"wrote {written} spans to {args.trace}")
    if args.audit_log:
        written = audit.write_jsonl(args.audit_log)
        print(f"wrote {written} audit records to {args.audit_log}")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(render_json(result.metrics))
        print(f"wrote metrics snapshot to {args.metrics_json}")
    if args.prometheus:
        with open(args.prometheus, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(result.metrics))
        print(f"wrote Prometheus exposition to {args.prometheus}")
    if args.slo:
        records = [record.to_event() for record in audit.records]
        report = evaluate(events_from_audit(records))
        print()
        print("SLO verdicts:")
        print(report.render())
        print()
        print("budget burn by (replica, fault channel):")
        print(render_attribution(burn_attribution(records)))
        return 0 if report.met else 1
    return 0


def _cmd_query(args) -> int:
    from .service.router import rendezvous_owner, routing_key
    from .service.server import answer

    index = _build_index(args)
    if args.url:
        kind, target = "url", args.url
    elif args.domain:
        kind, target = "domain", args.domain
    elif args.quantile:
        kind, target = "quantile", args.quantile
    else:
        kind, target = "bucket_counts", ""
    status, body = answer(index, kind, target)
    payload = {
        "status": status,
        "index_version": index.version,
        "kind": kind,
        "target": target,
        "body": body,
    }
    if args.shards > 1:
        key = routing_key(kind, target)
        shard_ids = tuple(f"shard-{i}" for i in range(args.shards))
        payload["routing"] = {
            "key": key,
            "shard": rendezvous_owner(key, shard_ids),
            "n_shards": args.shards,
        }
    print(json.dumps(payload, indent=2))
    return 0 if status == 200 else 1


def _drive_live_generations(args, on_generation=None):
    """Generate a world, evolve it, and publish one generation per
    interval (the scripted evolution the live subcommands share)."""
    from .clock import SimTime
    from .live import GenerationPublisher, IncrementalStudy, ReprobePolicy, WorldDriver

    world = _build_world(args)
    driver = WorldDriver(world)
    engine = IncrementalStudy(
        world, seed=args.seed, policy=ReprobePolicy(every_days=args.reprobe_days)
    )
    publisher = GenerationPublisher(retain=args.generations)
    base = world.study_time.days
    for ordinal in range(args.generations):
        at = SimTime(base + ordinal * args.interval_days)
        if ordinal > 0:
            # The world moves between builds: a rolling bot sweep, and
            # every other interval an editor deletes a dead reference.
            driver.sweep(SimTime(at.days - 0.6 * args.interval_days))
            if ordinal % 2 == 0 and driver.permadead_refs():
                title, url = driver.permadead_refs()[0]
                driver.remove_link(
                    title, url, SimTime(at.days - 0.3 * args.interval_days)
                )
        result = engine.build(at)
        generation = publisher.publish(result)
        if on_generation is not None:
            on_generation(generation, result)
    return publisher


def _cmd_live(args) -> int:
    from .obs import evaluate
    from .obs.slo import (
        MS_PER_DAY,
        SloSpec,
        events_from_generations,
        events_from_reconfigs,
    )
    from .service import (
        DeltaApply,
        GenerationSwap,
        RebalancePlan,
        WorkloadConfig,
        generate_workload,
        snapshot_wire_bytes,
    )
    from .service.router import rendezvous_owner, routing_key

    if args.rebalance and args.shards < 2:
        print(
            "repro live: error: --rebalance moves a routing key between "
            "shards; it needs --shards 2 or more",
            file=sys.stderr,
        )
        return 2
    baseline_dead = None

    def announce(generation, result):
        nonlocal baseline_dead
        dead_rate = 1.0 - result.report.frac_genuinely_alive
        if baseline_dead is None:
            baseline_dead = dead_rate
        print(
            f"{generation.summary()}  dead-rate {100 * dead_rate:.2f}% "
            f"({100 * (dead_rate - baseline_dead):+.2f}% vs gen 1)"
        )

    publisher = _drive_live_generations(args, announce)

    freshness = evaluate(
        events_from_generations(publisher.generations),
        (
            SloSpec(
                name="index-freshness",
                kind="latency",
                objective=0.99,
                threshold_ms=2.0 * args.interval_days * MS_PER_DAY,
            ),
        ),
    )
    print(f"freshness SLO (2x interval budget): "
          f"{'met' if freshness.met else 'violated'}")

    payload = {
        "generations": [
            {
                "seq": g.seq,
                "version": g.version,
                "dirty": g.dirty_size,
                "events": g.events_consumed,
                "lag_days": g.lag_days,
                "rebuild_ms": round(g.rebuild_wall_ms, 2),
            }
            for g in publisher.generations
        ],
        "retired": publisher.retired,
        "freshness_met": freshness.met,
    }

    if args.requests:
        # Adjacent generations can share a version (nothing changed in
        # an interval); the schedule validator rightly rejects no-op
        # swaps, so collapse them before scheduling.
        lineage = [publisher.generations[0]]
        for generation in publisher.generations[1:]:
            if generation.version != lineage[-1].version:
                lineage.append(generation)
        first = lineage[0]
        workload = generate_workload(
            [entry.url for entry in first.index.entries],
            WorkloadConfig(n_requests=args.requests, seed=args.seed),
        )
        horizon = max(r.arrival_ms for r in workload)
        swaps = []
        deltas = []
        for i, generation in enumerate(lineage[1:]):
            at_ms = horizon * (i + 1) / len(lineage)
            if args.full_snapshots:
                swaps.append(GenerationSwap(
                    at_ms=at_ms, drain=args.drain, index=generation.index,
                ))
            else:
                delta = publisher.build_delta(lineage[i], generation)
                full = snapshot_wire_bytes(generation.index)
                print(
                    f"  {delta.summary()} "
                    f"({100 * delta.wire_bytes() / full:.1f}% of the "
                    f"{full}-byte snapshot)"
                )
                deltas.append({
                    "delta_id": delta.delta_id,
                    "to_version": delta.to_version,
                    "delta_bytes": delta.wire_bytes(),
                    "snapshot_bytes": full,
                })
                swaps.append(DeltaApply(
                    at_ms=at_ms, drain=args.drain, delta=delta,
                ))
        n_swaps = len(swaps)
        service = _fleet(args, first.index, workload)
        if args.rebalance:
            # Move the hottest routing key to another shard mid-replay,
            # through the same drain machinery the swaps use.
            heat = Counter(routing_key(r.kind, r.target) for r in workload)
            hottest = max(heat, key=lambda k: (heat[k], k))
            owner = rendezvous_owner(hottest, service.shard_ids)
            target = next(s for s in service.shard_ids if s != owner)
            at_ms = 0.47 * horizon
            swaps.append(
                RebalancePlan(at_ms=at_ms, moves=((hottest, target),))
            )
            print(
                f"  rebalance: {hottest!r} ({heat[hottest]} requests) "
                f"{owner} -> {target} at {at_ms:.0f}ms"
            )
        result = service.serve(workload, swaps=swaps)
        served = Counter(r.index_version for r in result.responses)
        print()
        print(result.summary())
        _print_fleet(args, result)
        discipline = "drained" if args.drain else "atomic"
        print(
            f"zero-downtime swaps: {n_swaps} ({discipline}, "
            f"{'snapshots' if args.full_snapshots else 'deltas'}); "
            "served by generation:"
        )
        for generation in lineage:
            print(
                f"  gen {generation.seq} ({generation.version}): "
                f"{served[generation.version]} responses"
            )
        for event in result.reconfig_events:
            print(
                f"  reconfig {event.kind} at {event.scheduled_ms:.1f}ms "
                f"-> {event.to_version} (lag {event.lag_ms:.2f}ms, "
                f"{event.drained_batches} drained batches, "
                f"{event.moved_keys} keys moved)"
            )
        reconfig_slo = evaluate(
            events_from_reconfigs(result.reconfig_events),
            (
                SloSpec(
                    name="reconfig-lag",
                    kind="latency",
                    objective=0.99,
                    threshold_ms=50.0,
                ),
            ),
        )
        print(
            f"reconfig-lag SLO (50ms budget): "
            f"{'met' if reconfig_slo.met else 'violated'}"
        )
        payload["serve"] = result.as_dict()
        payload["served_by_generation"] = dict(served)
        payload["deltas"] = deltas
        payload["reconfigs"] = [
            event.as_dict() for event in result.reconfig_events
        ]
        payload["reconfig_slo_met"] = reconfig_slo.met

    if args.json:
        _write_json(args.json, payload)
    return 0


def _cmd_generations(args) -> int:
    """Cross-generation history: how one URL's status moved."""
    publisher = _drive_live_generations(args)
    states = publisher.history(args.url, n=args.last)
    print()
    print(f"history of {args.url} over {len(states)} retained generations:")
    for state in states:
        print(f"  {state.summary()}")
    buckets = [state.bucket for state in states]
    transitions = sum(
        1 for a, b in zip(buckets, buckets[1:]) if a != b
    )
    print(f"  {transitions} status transitions")
    if args.json:
        payload = {
            "url": args.url,
            "transitions": transitions,
            "states": [
                {
                    "seq": state.seq,
                    "version": state.version,
                    "built_at_days": state.built_at.days,
                    "bucket": state.bucket,
                    "advice": (
                        state.entry.advice
                        if state.entry is not None
                        else None
                    ),
                }
                for state in states
            ],
        }
        _write_json(args.json, payload)
    return 0 if any(state.entry is not None for state in states) else 1


def _count(text: str) -> int:
    """An argparse type: a whole number of at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _whole(text: str) -> int:
    """An argparse type: a whole number of at least zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _positive(text: str) -> float:
    """An argparse type: a finite number above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


def _rate(text: str) -> float:
    """An argparse type: a probability in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _add_fleet_args(cmd) -> None:
    """The serving-fleet flags ``serve`` and ``live`` share."""
    cmd.add_argument(
        "--shards",
        type=_count,
        default=1,
        help="domain shards (default 1: the single node)",
    )
    cmd.add_argument(
        "--replicas",
        type=_count,
        default=1,
        help="replicas per shard (default 1)",
    )
    cmd.add_argument(
        "--policy",
        choices=("round_robin", "least_outstanding", "power_of_two"),
        default="round_robin",
        help="cluster replica-selection policy",
    )
    cmd.add_argument(
        "--crash-rate",
        type=_rate,
        default=0.0,
        help=(
            "per-replica crash probability (cluster chaos); crash "
            "instants fall within the replay"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Characterizing Permanently Dead Links on "
            "Wikipedia' (IMC 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("study", _cmd_study),
        ("calibrate", _cmd_calibrate),
        ("medic", _cmd_medic),
        ("serve", _cmd_serve),
        ("query", _cmd_query),
        ("live", _cmd_live),
        ("generations", _cmd_generations),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("--links", type=_count, default=3000)
        cmd.add_argument("--seed", type=int, default=2022)
        if name in ("study", "calibrate"):
            StackConfig.add_stack_args(cmd)
        if name == "study":
            cmd.add_argument(
                "--markdown",
                metavar="PATH",
                default=None,
                help="write the full study as a Markdown report",
            )
        if name in ("serve", "live"):
            _add_fleet_args(cmd)
        if name in ("serve", "live", "generations"):
            cmd.add_argument(
                "--json",
                metavar="PATH",
                default=None,
                help="also write the run digest as JSON",
            )
        if name == "serve":
            cmd.add_argument("--requests", type=_count, default=5000)
            cmd.add_argument(
                "--rps",
                type=_positive,
                default=2000.0,
                help="service token-bucket rate (capacity)",
            )
            cmd.add_argument(
                "--offered",
                type=_positive,
                default=None,
                help="offered load in rps (default: equal to --rps)",
            )
            cmd.add_argument(
                "--spike-rate",
                type=_rate,
                default=0.0,
                help="inject index latency spikes at this per-key rate",
            )
            cmd.add_argument(
                "--pattern",
                choices=("poisson", "flash", "diurnal"),
                default="poisson",
                help="arrival pattern for the synthetic workload",
            )
            cmd.add_argument(
                "--trace",
                metavar="PATH",
                default=None,
                help="write the service span tree as JSONL",
            )
            cmd.add_argument(
                "--audit-log",
                metavar="PATH",
                default=None,
                help="write the per-request audit log as JSONL",
            )
            cmd.add_argument(
                "--metrics-json",
                metavar="PATH",
                default=None,
                help="write the metrics snapshot as canonical JSON",
            )
            cmd.add_argument(
                "--prometheus",
                metavar="PATH",
                default=None,
                help="write the metrics in Prometheus text format",
            )
            cmd.add_argument(
                "--slo",
                action="store_true",
                help=(
                    "grade the run against the stock service SLOs "
                    "(exit 1 on violation)"
                ),
            )
        if name in ("live", "generations"):
            cmd.add_argument(
                "--generations",
                type=_count,
                default=4,
                help="index generations to build (gen 1 is the batch study)",
            )
            cmd.add_argument(
                "--interval-days",
                type=_positive,
                default=7.0,
                help="sim days between consecutive builds",
            )
            cmd.add_argument(
                "--reprobe-days",
                type=_positive,
                default=30.0,
                help="quiescent-URL re-probe epoch length",
            )
        if name == "live":
            cmd.add_argument(
                "--requests",
                type=_whole,
                default=2000,
                help=(
                    "replay this many requests across the generation "
                    "swaps (0 skips the serving replay)"
                ),
            )
            cmd.add_argument(
                "--drain",
                action="store_true",
                help=(
                    "drained swaps: the open batch finishes under the "
                    "old generation before the service rebinds"
                ),
            )
            cmd.add_argument(
                "--full-snapshots",
                action="store_true",
                help=(
                    "install full index snapshots instead of verified "
                    "generation deltas"
                ),
            )
            cmd.add_argument(
                "--rebalance",
                action="store_true",
                help=(
                    "move the hottest routing key to another shard "
                    "mid-replay (needs --shards 2 or more)"
                ),
            )
        if name == "generations":
            cmd.add_argument(
                "--url",
                required=True,
                help="URL whose cross-generation history to print",
            )
            cmd.add_argument(
                "--last",
                type=_count,
                default=None,
                metavar="N",
                help="only the N most recent retained generations",
            )
        if name == "query":
            what = cmd.add_mutually_exclusive_group(required=True)
            what.add_argument("--url", help="look up one studied URL")
            what.add_argument("--domain", help="sweep one registrable domain")
            what.add_argument(
                "--quantile",
                metavar="METRIC:Q",
                help="aggregate quantile, e.g. posting_year:0.5",
            )
            what.add_argument(
                "--bucket-counts",
                action="store_true",
                help="Figure-4 bucket counts",
            )
            cmd.add_argument(
                "--shards",
                type=_count,
                default=1,
                help="also report which of N shards owns this query",
            )
        cmd.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
