"""Layer tracing from outside the program: wrap public calls, keep spans.

The benchmark measures each layer from outside the program. While a
:class:`LayerTracer` is installed, every call listed in :data:`SPANS`
runs inside a wrapper that records one span (name, parent, start,
end), charges the call's duration to its caller, and keeps per-name
self time (span time minus the time its child spans cover) and call
counts. Nothing in ``src/`` is edited: the wrappers are set as
attributes on the owning module or class and put back on exit.

Spans are kept in compact arrays and written out as tab-separated
text by :meth:`LayerTracer.write` when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, owner attribute path, callable name, span name). The owner
#: path is empty for module-level functions. A function imported by
#: name into another module is patched in every module that calls it.
SPANS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.dataset.worldgen", "", "generate_world", "worldgen"),
    ("repro.dataset.worldgen", "", "plan_universe", "worldgen.plan"),
    ("repro.dataset.builder", "WebBuilder", "build", "worldgen.build"),
    ("repro.archive.crawler", "ArchiveCrawler", "capture", "archive.capture"),
    ("repro.web.robots", "", "parse_robots", "archive.robots"),
    ("repro.web.robots", "RobotsRules", "allows", "archive.robots"),
    ("repro.archive.crawler", "BodySketcher", "sketch", "archive.sketch"),
    ("repro.net.fetch", "Fetcher", "fetch", "net.fetch"),
    ("repro.wiki.encyclopedia", "Encyclopedia", "create_article", "wiki.edit"),
    ("repro.wiki.encyclopedia", "Encyclopedia", "edit_article", "wiki.edit"),
    ("repro.wiki.article", "", "extract_link_refs", "wiki.parse"),
    ("repro.iabot.bot", "InternetArchiveBot", "run_sweep", "iabot.sweep"),
    ("repro.dataset.collector", "Collector", "collect", "dataset.collect"),
    ("repro.dataset.collector", "Collector", "category_titles", "dataset.collect"),
    ("repro.dataset.collector", "Collector", "mine_article", "dataset.collect"),
    ("repro.analysis.study", "", "sample_iabot_marked", "dataset.sample"),
    ("repro.live.incremental", "", "sample_iabot_marked", "dataset.sample"),
    ("repro.analysis.study", "Study", "from_world", "study"),
    ("repro.analysis.study", "Study", "run", "study"),
    ("repro.service.index", "LinkStatusIndex", "build", "index.build"),
    ("repro.live.driver", "WorldDriver", "add_link", "live.drive"),
    ("repro.live.driver", "WorldDriver", "mark_dead", "live.drive"),
    ("repro.live.driver", "WorldDriver", "remove_link", "live.drive"),
    ("repro.live.driver", "WorldDriver", "capture", "live.drive"),
    ("repro.live.driver", "WorldDriver", "sweep", "live.drive"),
    ("repro.live.incremental", "IncrementalStudy", "build", "live.build"),
    ("repro.live.publisher", "GenerationPublisher", "publish", "live.publish"),
    ("repro.live.publisher", "GenerationPublisher", "build_delta", "live.delta"),
    ("repro.service.reconfig", "", "apply_delta", "reconfig.apply"),
    ("repro.service.server", "", "apply_delta", "reconfig.apply"),
    ("repro.service.cluster", "", "apply_delta", "reconfig.apply"),
    ("repro.service.admission", "AdmissionController", "offer", "service.admission"),
    ("repro.service.server", "", "answer", "service.lookup"),
    ("repro.service.cluster", "", "answer", "service.lookup"),
    ("repro.service.router", "ReplicaPicker", "pick", "router.pick"),
    ("repro.service.server", "LinkStatusService", "serve", "service.node"),
    ("repro.service.cluster", "ClusterService", "serve", "service.cluster"),
)

#: Span names whose individual call durations are kept (for per-call
#: medians); every other name keeps totals only.
KEEP_DURATIONS = frozenset(
    {"live.build", "live.publish", "live.delta", "reconfig.apply"}
)

#: Calls made directly by ``generate_world``'s replay loop: each one is
#: one replayed event that reached a layer.
_REPLAY_CHILDREN = frozenset(
    {"archive.capture", "wiki.edit", "iabot.sweep"}
)


class LayerTracer:
    """Span recorder for wrapped layer calls (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Open spans: [span id, span name, seconds covered by children].
        self._stack: list[list] = []
        self._origin = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    @contextmanager
    def span(self, name: str):
        """Record one span around the block (used for benchmark stages)."""
        frame = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, start, time.perf_counter())

    def _open(self, name: str) -> list:
        stack = self._stack
        span_id = len(self.span_start)
        parent = stack[-1] if stack else None
        self.span_parent.append(parent[0] if parent else -1)
        self.span_name.append(self._name_id(name))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        if parent is not None and parent[1] == "worldgen" and (
            name in _REPLAY_CHILDREN
        ):
            self.counts["worldgen.events"] += 1
        frame = [span_id, name, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        elapsed = end - start
        name = frame[1]
        self.self_s[name] += elapsed - frame[2]
        self.total_s[name] += elapsed
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        if name in KEEP_DURATIONS:
            self.durations[name].append(elapsed)
        span_id = frame[0]
        self.span_start[span_id] = start - self._origin
        self.span_end[span_id] = end - self._origin

    def _wrap(self, name: str, func):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            # Counters are taken at the outermost call of a name only,
            # so a wrapped call made by another wrapped call of the same
            # layer (``collect`` -> ``category_titles``) counts once.
            counted = hook is not None and not (stack and stack[-1][1] == name)
            frame = tracer._open(name)
            before = hook[0](args) if counted else None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame, start, time.perf_counter())
            if counted:
                hook[1](tracer.counts, args, result, before)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every call in :data:`SPANS` for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, owner_path, attr, span_name in SPANS:
                owner = importlib.import_module(module_name)
                if owner_path:
                    owner = getattr(owner, owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    patched = self._wrap(span_name, raw)
                restore.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as ``id parent name start_s end_s`` lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for span_id in range(len(self.span_start)):
                out.write(
                    f"{span_id}\t{self.span_parent[span_id]}\t"
                    f"{names[self.span_name[span_id]]}\t"
                    f"{self.span_start[span_id]:.9f}\t"
                    f"{self.span_end[span_id]:.9f}\n"
                )


# -- per-call counters ---------------------------------------------------------
#
# A hook is (before(args) -> token, after(counts, args, result, token)).


def _none(args):
    return None


def _capture_after(counts, args, result, _):
    if result is not None:
        counts["archive.snapshots"] += 1


def _sketch_before(args):
    return args[0].misses


def _sketch_after(counts, args, result, misses_before):
    if args[0].misses == misses_before:
        counts["archive.sketch_hits"] += 1


def _sweep_after(counts, args, result, _):
    counts["iabot.links_checked"] += result.links_checked
    counts["iabot.marked"] += result.marked_permadead


def _collect_before(args):
    return args[0].api_requests


def _collect_after(counts, args, result, requests_before):
    counts["dataset.api_requests"] += args[0].api_requests - requests_before


def _sample_after(counts, args, result, _):
    counts["dataset.sample"] += len(result)


_HOOKS = {
    "archive.capture": (_none, _capture_after),
    "archive.sketch": (_sketch_before, _sketch_after),
    "iabot.sweep": (_none, _sweep_after),
    "dataset.collect": (_collect_before, _collect_after),
    "dataset.sample": (_none, _sample_after),
}
