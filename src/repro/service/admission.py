"""Admission control: token-bucket rate limiting + a bounded queue.

A serving system that accepts everything degrades for everyone at
once; one that sheds deterministically degrades only for the requests
past its declared capacity. This module is that declaration:

- :class:`TokenBucket` — capacity ``burst`` tokens, refilled
  continuously at ``rate_per_s`` on the service's virtual clock. A
  request consumes one token to start service.
- :class:`AdmissionController` — arrivals that find no token wait in
  a FIFO queue of bounded depth; arrivals that find the queue full
  are shed immediately with a 429-style outcome.

Everything is a pure function of arrival times and configuration, so
at any offered load the *set* of shed request ids — not just their
count — is identical across runs and across serving topologies.
That is the property the overload tests pin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, MetricsRegistry

__all__ = ["AdmissionController", "TokenBucket"]


@dataclass
class TokenBucket:
    """Continuous-refill token bucket on the virtual millisecond clock.

    Attributes:
        rate_per_s: steady-state admissions per virtual second.
        burst: bucket capacity — how far ahead of the steady rate a
            quiet period lets arrivals run.
    """

    rate_per_s: float
    burst: float = 1.0
    _tokens: float = field(init=False)
    _last_ms: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        self._tokens = float(self.burst)

    @property
    def last_ms(self) -> float:
        """The instant the bucket last refilled to (its local clock)."""
        return self._last_ms

    def _refill(self, now_ms: float) -> None:
        if now_ms > self._last_ms:
            self._tokens = min(
                float(self.burst),
                self._tokens
                + (now_ms - self._last_ms) * self.rate_per_s / 1000.0,
            )
            self._last_ms = now_ms

    #: Tolerance for float round-trips between :meth:`next_ready_ms`
    #: (which solves for the instant a whole token exists) and the
    #: refill integration at that instant.
    _EPSILON = 1e-9

    def try_take(self, now_ms: float) -> bool:
        """Consume one token at ``now_ms`` if one is available."""
        self._refill(now_ms)
        if self._tokens >= 1.0 - self._EPSILON:
            self._tokens = max(self._tokens - 1.0, 0.0)
            return True
        return False

    def next_ready_ms(self) -> float:
        """Earliest instant at which a whole token will exist.

        Measured from the bucket's own clock; past instants mean "a
        token is available right now".
        """
        if self._tokens >= 1.0 - self._EPSILON:
            return self._last_ms
        deficit = 1.0 - self._tokens
        return self._last_ms + deficit * 1000.0 / self.rate_per_s


class AdmissionController:
    """Token bucket in front of a bounded FIFO wait queue.

    ``offer`` classifies one arrival; ``next_release_ms`` /
    ``release_one`` let the server's event loop dequeue waiting
    requests at the exact virtual instants their tokens accrue.
    Counters land in the shared registry under ``service.admission.*``,
    and every released request records its queue wait (virtual ms
    from enqueue to token accrual) in the
    ``service.admission.queue_wait_ms`` histogram — the front door's
    own contribution to end-to-end latency, separated from serving
    time proper.
    """

    def __init__(
        self,
        bucket: TokenBucket,
        queue_limit: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.bucket = bucket
        self.queue_limit = queue_limit
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: deque = deque()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a token."""
        return len(self._queue)

    def offer(self, request, now_ms: float) -> str:
        """Classify one arrival: ``"admit"``, ``"queue"``, or ``"shed"``.

        Arrivals are only directly admitted when the queue is empty —
        FIFO order is part of the determinism contract, so a token
        that appears while earlier arrivals wait belongs to the head
        of the queue, not to the newcomer.
        """
        self.metrics.counter("service.admission.offered").inc()
        if not self._queue and self.bucket.try_take(now_ms):
            self.metrics.counter("service.admission.admitted").inc()
            return "admit"
        if len(self._queue) < self.queue_limit:
            self._queue.append((request, now_ms))
            self.metrics.counter("service.admission.queued").inc()
            peak = self.metrics.gauge("service.admission.queue_peak")
            peak.set(max(peak.value, len(self._queue)))
            return "queue"
        self.metrics.counter("service.admission.shed").inc()
        return "shed"

    def next_release_ms(self) -> float | None:
        """When the queue head's token accrues, or None when empty."""
        if not self._queue:
            return None
        return self.bucket.next_ready_ms()

    def release_one(self) -> tuple[object, float]:
        """Dequeue the head at its token's ready instant.

        Returns ``(request, ready_ms)``; ``ready_ms`` is the request's
        service start for latency accounting.
        """
        if not self._queue:
            raise IndexError("release_one on an empty admission queue")
        ready = self.bucket.next_ready_ms()
        taken = self.bucket.try_take(ready)
        assert taken, "token accounting out of sync"
        self.metrics.counter("service.admission.admitted").inc()
        request, enqueued_ms = self._queue.popleft()
        self.metrics.histogram(
            "service.admission.queue_wait_ms", DEFAULT_LATENCY_BOUNDS_MS
        ).observe(max(ready - enqueued_ms, 0.0))
        return request, ready
