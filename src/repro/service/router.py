"""Deterministic request routing for the sharded service tier.

Three concerns live here, each a pure function of its inputs:

- **Placement** — :func:`rendezvous_owner` implements highest-random-
  weight (HRW / rendezvous) hashing: every ``(key, node)`` pair gets a
  64-bit score from SHA-256 and the key belongs to the highest-scoring
  node. Two properties make it the right partitioner for
  :class:`~repro.service.cluster.ClusterService`: load spreads evenly
  over any node set (each key's scores are i.i.d. uniform), and
  adding or removing a node only remaps the keys that node wins or
  held — no ring segments cascade. Both are pinned by hypothesis
  property tests.
- **Replica selection** — :class:`ReplicaPicker` chooses among a
  shard's *available* replicas under one of three policies:
  ``round_robin`` (per-shard rotation), ``least_outstanding`` (fewest
  dispatched-but-incomplete requests, ties to the lowest replica
  index), and ``power_of_two`` (two seeded-hash candidates, keep the
  less loaded). Every policy is deterministic: rotation counters are
  per-shard state advanced only by dispatch, and the power-of-two
  candidate draw hashes ``(seed, request_id, attempt)`` instead of
  consulting shared RNG state.
- **Tenant quotas** — :class:`TenantQuotas` holds one
  :class:`~repro.service.admission.TokenBucket` per tenant in front of
  the cluster's global admission controller, so one hot tenant
  degrades itself before it degrades the fleet. Requests from tenants
  without a configured quota pass untouched.

Routing keys follow the paper's unit of locality: URL and domain
queries key on the **registrable domain** (the same
:func:`repro.urls.psl.registrable_domain` the dataset records use, so
a URL always routes to the shard holding its entry), aggregate
queries key on their full query key and therefore spread across the
fleet — any shard can answer them from its replicated aggregate
tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import UrlError
from ..urls.parse import hostname_of
from ..urls.psl import registrable_domain
from .admission import TokenBucket

__all__ = [
    "POLICIES",
    "ReplicaPicker",
    "TenantQuotas",
    "rendezvous_owner",
    "rendezvous_score",
    "routing_key",
]

#: Replica-selection policies :class:`ReplicaPicker` understands.
POLICIES: tuple[str, ...] = (
    "round_robin",
    "least_outstanding",
    "power_of_two",
)


def rendezvous_score(key: str, node: str) -> int:
    """The 64-bit HRW score of ``key`` on ``node`` (pure)."""
    digest = hashlib.sha256(f"{node}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_owner(key: str, nodes: tuple[str, ...]) -> str:
    """The node that owns ``key`` under rendezvous hashing.

    The winner is the highest-scoring node; node name breaks the
    (practically impossible) score tie so ownership is total.
    """
    if not nodes:
        raise ValueError("rendezvous_owner needs at least one node")
    return max(nodes, key=lambda node: (rendezvous_score(key, node), node))


def routing_key(kind: str, target: str) -> str:
    """The placement key one request routes by.

    URL queries route by the target's registrable domain — computed
    with the same PSL helper that computed every index entry's
    ``domain`` field, which is what guarantees a studied URL routes to
    the shard that holds its entry. Domain queries route by the domain
    itself. Aggregate queries route by their full query key: they are
    answerable anywhere, so they should spread.
    """
    if kind == "url":
        try:
            return registrable_domain(hostname_of(target))
        except UrlError:
            # Unparseable target: any stable key works — the lookup
            # will 404 identically on every shard.
            return target
    if kind == "domain":
        return target
    return f"{kind}:{target}"


class ReplicaPicker:
    """Deterministic replica selection under one named policy.

    ``pick`` receives the candidate replicas (index-ordered, already
    filtered to the available ones) plus each candidate's outstanding
    load, and returns the chosen candidate's position in that list.
    """

    def __init__(self, policy: str, seed: int = 0) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown router policy {policy!r}; known: {POLICIES}"
            )
        self.policy = policy
        self.seed = seed
        self._rotation: dict[str, int] = {}

    def _two_candidates(
        self, n: int, request_id: int, attempt: int
    ) -> tuple[int, int]:
        """Two seeded-hash candidate positions in ``range(n)`` (pure)."""
        digest = hashlib.sha256(
            f"{self.seed}|p2c|{request_id}|{attempt}".encode("utf-8")
        ).digest()
        first = int.from_bytes(digest[:8], "big") % n
        second = int.from_bytes(digest[8:16], "big") % n
        return first, second

    def pick(
        self,
        shard_id: str,
        candidates: int,
        outstanding: list[int],
        request_id: int,
        attempt: int = 0,
    ) -> int:
        """Choose one of ``candidates`` available replicas.

        Args:
            shard_id: the shard being dispatched to (keys the
                round-robin rotation).
            candidates: how many replicas are available (>= 1).
            outstanding: per-candidate outstanding load, index-aligned.
            request_id: the request being placed (feeds power-of-two).
            attempt: dispatch attempt (re-dispatches redraw candidates).
        """
        if candidates < 1:
            raise ValueError("pick needs at least one candidate")
        if self.policy == "round_robin":
            turn = self._rotation.get(shard_id, 0)
            self._rotation[shard_id] = turn + 1
            return turn % candidates
        if self.policy == "least_outstanding":
            return min(
                range(candidates), key=lambda i: (outstanding[i], i)
            )
        first, second = self._two_candidates(candidates, request_id, attempt)
        return min(first, second, key=lambda i: (outstanding[i], i))


@dataclass
class TenantQuotas:
    """Per-tenant token buckets in front of global admission.

    ``limits`` maps tenant name to ``(rate_rps, burst)``. Tenants
    outside the map are unmetered. The buckets run on the same virtual
    millisecond clock as everything else, so quota verdicts are exact
    and replayable.
    """

    limits: dict[str, tuple[float, float]] = field(default_factory=dict)
    _buckets: dict[str, TokenBucket] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        for tenant, (rate_rps, burst) in sorted(self.limits.items()):
            self._buckets[tenant] = TokenBucket(
                rate_per_s=rate_rps, burst=float(burst)
            )

    @property
    def active(self) -> bool:
        return bool(self._buckets)

    def admit(self, tenant: str, now_ms: float) -> bool:
        """Whether ``tenant`` may pass at ``now_ms`` (consumes a token)."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return True
        return bucket.try_take(now_ms)
