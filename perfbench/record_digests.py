"""Record the batch stage's index digest for a range of seeds.

Run from the repository root:

    python3 perfbench/record_digests.py 1000

writes ``perfbench/digests.json``: the ``LinkStatusIndex.version`` the
batch stage must reproduce for each seed in ``range(N)``. The pinned
world is generated once and studied under every seed; studies only
read the world, so this equals a fresh world per seed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import pipeline  # noqa: E402
from repro.analysis.study import Study  # noqa: E402
from repro.exec import StudyExecutor  # noqa: E402
from repro.service import LinkStatusIndex  # noqa: E402


def main(count: int) -> None:
    world = pipeline.worldgen.generate_world(pipeline.WORLD)
    versions = {}
    for seed in range(count):
        study = Study.from_world(
            world, sample_size=pipeline.BATCH_SAMPLE, seed=seed
        )
        report = study.run(StudyExecutor(workers=1))
        versions[str(seed)] = LinkStatusIndex.build(report).version
    config = dataclasses.asdict(pipeline.WORLD)
    payload = {
        "world": {"n_links": config["n_links"], "seed": config["seed"]},
        "batch_sample": pipeline.BATCH_SAMPLE,
        "versions": versions,
    }
    out = BENCH_DIR / "digests.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(versions)} digests to {out.name}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1000)
