"""Tests for repro.urls.editdist."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.urls.editdist import edit_distance, unique_neighbor, within_distance


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_substitution(self):
        assert edit_distance("may", "mai") == 1

    def test_insertion(self):
        assert edit_distance("abc", "abxc") == 1

    def test_deletion(self):
        assert edit_distance("abcd", "abd") == 1

    def test_empty_strings(self):
        assert edit_distance("", "") == 0
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_symmetric(self):
        assert edit_distance("kitten", "sitting") == edit_distance(
            "sitting", "kitten"
        )

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_paper_typo_example(self):
        # The lnr.fr example: English "may" vs French "mai".
        a = "http://www.lnr.fr/top-14-26-may-1984.html"
        b = "http://www.lnr.fr/top-14-26-mai-1984.html"
        assert edit_distance(a, b) == 1

    def test_missing_separator_example(self):
        # The nj.com example: missing '?' before a parameter.
        a = "http://e.com/x.html?pagewanted=all"
        b = "http://e.com/x.htmlpagewanted=all"
        assert edit_distance(a, b) == 1


class TestWithinDistance:
    def test_agrees_with_exact_distance(self):
        pairs = [
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("abc", "xyz", 3),
            ("short", "muchlongerstring", 13),
        ]
        for a, b, d in pairs:
            for limit in range(0, 5):
                assert within_distance(a, b, limit) == (d <= limit)

    def test_length_difference_shortcut(self):
        assert not within_distance("a", "abcde", 2)

    def test_zero_limit(self):
        assert within_distance("same", "same", 0)
        assert not within_distance("same", "sane", 0)


class TestUniqueNeighbor:
    def test_single_match(self):
        assert (
            unique_neighbor("storx.html", ["story.html", "index.html"])
            == "story.html"
        )

    def test_no_match(self):
        assert unique_neighbor("storx.html", ["index.html"]) is None

    def test_ambiguous_matches_return_none(self):
        # Numeric page-id families: many neighbours at distance 1.
        candidates = ["page1.html", "page2.html", "page3.html"]
        assert unique_neighbor("page9.html", candidates) is None

    def test_self_excluded(self):
        assert unique_neighbor("a.html", ["a.html"]) is None

    def test_exact_distance_required(self):
        # Distance 2 does not count as a typo correction.
        assert unique_neighbor("abcd", ["abxy"]) is None

    def test_empty_candidates(self):
        assert unique_neighbor("x", []) is None


def reference_unique_neighbor(target, candidates, distance=1):
    """The original definition: banded filter, then the full DP."""
    found = None
    for candidate in candidates:
        if candidate == target:
            continue
        if not within_distance(target, candidate, distance):
            continue
        if edit_distance(target, candidate) != distance:
            continue
        if found is not None:
            return None
        found = candidate
    return found


#: Short strings over a tiny alphabet, so neighbours at small distances
#: (and ties between several of them) are common.
near_strings = st.text(alphabet="ab/.", max_size=7)


class TestUniqueNeighborDifferential:
    @settings(max_examples=400, deadline=None)
    @given(
        target=near_strings,
        candidates=st.lists(near_strings, max_size=8),
        distance=st.integers(min_value=-1, max_value=4),
    )
    def test_matches_full_dp_definition(self, target, candidates, distance):
        assert unique_neighbor(target, candidates, distance) == (
            reference_unique_neighbor(target, candidates, distance)
        )

    @settings(max_examples=200, deadline=None)
    @given(target=near_strings, distance=st.integers(0, 3), data=st.data())
    def test_neighbors_at_exact_distance(self, target, distance, data):
        """Candidates built by ``distance`` edits, plus decoys."""
        candidate = target
        for _ in range(distance):
            position = data.draw(st.integers(0, len(candidate)))
            candidate = (
                candidate[:position]
                + data.draw(st.sampled_from("abxy"))
                + candidate[position:]
            )
        pool = [candidate, target, target + "zz"]
        assert unique_neighbor(target, pool, distance) == (
            reference_unique_neighbor(target, pool, distance)
        )
