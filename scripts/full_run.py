"""Full-scale study run: every figure and headline number, printed.

Used to produce the paper-vs-measured record in EXPERIMENTS.md.

Usage::

    python scripts/full_run.py [n_links] [seed] [workers] [options]
    python scripts/full_run.py --update-golden

Positionals keep their historical meaning (world size, world seed,
worker count); ``REPRO_WORKERS`` still backs the worker default. The
fault/retry options study the same world through a sabotaged stack:

    --fault-plan {net,archive,everywhere}   which channels misbehave
    --fault-rate R       per-key fault probability (REPRO_FAULT_RATE)
    --fault-seed S       fault plan seed (replayable chaos)
    --retries N          retry budget, 0 = the paper's no-retry bot
                         (REPRO_RETRIES); capped-exponential backoff

With a transient plan and ``--retries`` at the plan's required depth,
the printed report is byte-identical to the fault-free run — only the
``retries:`` line of the stats block shows the recovered faults.

Observability options record the run without changing it (a traced
report is byte-identical to an untraced one)::

    --trace PATH         append the span tree (study → phase → shard →
                         record → backend call) as JSONL; feed it to
                         scripts/trace_report.py
    --metrics-json PATH  dump the full StudyStats metrics registry
                         (counters, gauges, histograms) as JSON

``--update-golden`` regenerates the committed golden snapshot
(tests/golden/study_report_tiny.md) that tier-1 compares against, then
exits.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.study import Study
from repro.backends import StackConfig
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor
from repro.reporting.cdf import ecdf
from repro.reporting.figures import render_bar_chart, render_cdf
from repro.reporting.summary import paper_comparison

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the full study and print every figure and table."
    )
    parser.add_argument("n_links", nargs="?", type=int, default=26_000)
    parser.add_argument("seed", nargs="?", type=int, default=11)
    parser.add_argument(
        "workers",
        nargs="?",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "1")),
        help="worker processes for the sharded stage (REPRO_WORKERS)",
    )
    parser.add_argument(
        "--target-sample", type=int, default=10_000, help="links to sample"
    )
    StackConfig.add_stack_args(parser)
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="regenerate tests/golden/study_report_tiny.md and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])

    if args.update_golden:
        from repro.reporting.golden import update_golden

        path = update_golden(REPO_ROOT)
        print(f"golden snapshot regenerated: {path.relative_to(REPO_ROOT)}")
        return 0

    config = StackConfig.from_args(args)
    faults = config.build_faults()
    retry_policy = config.build_retry_policy()
    tracer = config.build_tracer()

    t0 = time.time()
    world = generate_world(
        WorldConfig(
            n_links=args.n_links,
            target_sample=args.target_sample,
            seed=args.seed,
        )
    )
    t1 = time.time()
    report = Study.from_world(
        world, faults=faults, retry_policy=retry_policy
    ).run(executor=StudyExecutor(workers=args.workers), tracer=tracer)

    if tracer is not None:
        tracer.write_jsonl(args.trace)
    if args.metrics_json is not None:
        args.metrics_json.write_text(
            json.dumps(report.stats.as_dict(), indent=2, sort_keys=True)
            + "\n"
        )

    n = report.sample_size
    print(f"# world: {world.summary()}")
    # The study figure comes from the stats' own phase timers rather
    # than a second ad-hoc clock around .run(), so this line, the
    # stats block below, and any trace report all agree.
    print(
        f"# generation {t1 - t0:.2f}s, "
        f"study {report.stats.total_seconds:.2f}s"
    )
    if tracer is not None:
        print(f"# trace: {len(tracer.spans)} spans -> {args.trace}")
    if faults is not None:
        print(f"# faults: {faults.describe()}")
        print(
            f"# retry budget: {args.retries} "
            f"(plan needs {faults.required_retries()} to mask fully)"
        )
    for line in report.stats.summary().splitlines():
        print(f"# {line}")
    print()
    print(report.summary())
    print()

    ds = report.dataset
    print(
        f"dataset: {len(ds.domains())} domains, {len(ds.hostnames())} "
        "hostnames (paper: 3,521 / 3,940)"
    )
    print()

    domain_curve = ecdf(list(ds.domains().values()))
    print(render_cdf({"our dataset": domain_curve},
                     "Figure 3(a): URLs per domain", "urls/domain", log_x=True))
    print()
    rank_curve = ecdf(ds.rankings())
    print(render_cdf({"our dataset": rank_curve},
                     "Figure 3(b): site ranking", "rank"))
    print()
    year_curve = ecdf(ds.posting_years())
    print(render_cdf({"our dataset": year_curve},
                     "Figure 3(c): posting year", "year"))
    print()
    print(render_bar_chart({o.value: c for o, c in report.counts.items()},
                           f"Figure 4: live-web outcomes (n={n})"))
    print()
    gaps = ecdf([max(g, 0.5) for g in report.temporal.gaps_days])
    print(render_cdf({"gap": gaps},
                     "Figure 5: posting-to-first-capture gap (days)",
                     "days", log_x=True))
    print()
    spatial = report.spatial
    print(render_cdf(
        {
            "directory": ecdf([max(c, 0.5) for c in spatial.directory_counts]),
            "hostname": ecdf([max(c, 0.5) for c in spatial.hostname_counts]),
        },
        "Figure 6: archived neighbors of never-archived links",
        "neighbors",
        log_x=True,
    ))
    print()
    print(paper_comparison(report).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
