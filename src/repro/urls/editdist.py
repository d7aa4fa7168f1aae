"""Edit distance over URL strings, for typo detection (§5.2).

The paper deems a permanently dead link a potential typo *"if there
exists only one archived URL with an edit distance of exactly 1"* under
the same domain. We implement Levenshtein distance (insert / delete /
substitute, unit costs) with a banded early-exit variant so scanning a
domain's archived URL inventory stays fast.
"""

from __future__ import annotations


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance between two strings.

    Classic two-row dynamic program; O(len(a) * len(b)) time,
    O(min(len)) space.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[j] + 1,      # deletion from a
                    current[j - 1] + 1,   # insertion into a
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def within_distance(a: str, b: str, limit: int) -> bool:
    """Whether ``edit_distance(a, b) <= limit``, with early exit.

    Uses the banded variant: cells farther than ``limit`` from the
    diagonal can never contribute to a result <= limit, so each row
    only evaluates a 2*limit+1 window and the scan aborts as soon as a
    whole row exceeds the limit.
    """
    if abs(len(a) - len(b)) > limit:
        return False
    if a == b:
        return True
    if limit <= 0:
        return False
    if len(a) < len(b):
        a, b = b, a
    big = limit + 1
    previous = [j if j <= limit else big for j in range(len(b) + 1)]
    for i, char_a in enumerate(a, start=1):
        lo = max(1, i - limit)
        hi = min(len(b), i + limit)
        current = [big] * (len(b) + 1)
        if lo == 1:
            current[0] = i if i <= limit else big
        for j in range(lo, hi + 1):
            cost = 0 if char_a == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + cost,
            )
        if min(current[lo - 1: hi + 1]) > limit:
            return False
        previous = current
    return previous[len(b)] <= limit


def unique_neighbor(target: str, candidates: list[str], distance: int = 1) -> str | None:
    """The single candidate at exactly ``distance`` from ``target``, if unique.

    Returns ``None`` when zero or more than one candidate lies at the
    requested distance — the paper's criterion for flagging a typo only
    when the correction is unambiguous. "Exactly ``distance``" is
    "within ``distance`` but not within ``distance - 1``", so no full
    dynamic program runs (``distance <= 0`` never matches: the target
    itself is skipped).
    """
    found: str | None = None
    for candidate in candidates:
        if candidate == target:
            continue
        if not within_distance(target, candidate, distance):
            continue
        if within_distance(target, candidate, distance - 1):
            continue
        if found is not None:
            return None
        found = candidate
    return found
