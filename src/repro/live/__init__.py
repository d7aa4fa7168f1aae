"""repro.live — incremental studies and zero-downtime generations.

The batch pipeline measures a frozen instant; this package keeps the
measurement *current* as the world moves. Four pieces:

- :mod:`repro.live.feed` — the probe-time semantics (re-probe epochs +
  event touches) that make "incremental equals from-scratch" a
  well-defined, byte-exact contract;
- :mod:`repro.live.incremental` — :class:`IncrementalStudy`, which
  drains the wiki's event cursor, computes the dirty set, re-executes
  only that through the ordinary executor, and folds;
- :mod:`repro.live.publisher` — :class:`GenerationPublisher`, turning
  each build into a content-hash-versioned
  :class:`~repro.service.index.LinkStatusIndex` generation with
  retention and freshness telemetry;
- :mod:`repro.live.driver` — :class:`WorldDriver`, the deterministic
  forward evolution of a generated world (sweeps, captures, edits)
  that the ``repro live`` CLI, benchmarks, and tests script.

Serving tiers adopt generations via the ``swaps=`` schedule on
:meth:`LinkStatusService.serve <repro.service.server.
LinkStatusService.serve>` and :meth:`ClusterService.serve
<repro.service.cluster.ClusterService.serve>` — atomically, as
rolling drained cutovers, or as :class:`GenerationPublisher.
build_delta` deltas through the :mod:`repro.service.reconfig` plane.
"""

from .driver import WorldDriver
from .feed import ReprobePolicy, last_touch_map, probe_time_map
from .incremental import (
    DirtySet,
    IncrementalStudy,
    LiveStudyResult,
    reference_study,
)
from .publisher import Generation, GenerationPublisher, UrlGenerationState

__all__ = [
    "DirtySet",
    "Generation",
    "GenerationPublisher",
    "IncrementalStudy",
    "LiveStudyResult",
    "ReprobePolicy",
    "UrlGenerationState",
    "WorldDriver",
    "last_touch_map",
    "probe_time_map",
    "reference_study",
]
