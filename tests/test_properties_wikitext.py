"""Property-based tests for the wikitext layer."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WikiError
from repro.wiki import wikitext
from repro.wiki.templates import cite_web, dead_link, month_year
from repro.wiki.wikitext import (
    Template,
    _split_top_level,
    extract_link_refs,
    parse_templates,
)
from repro.clock import SimTime

_param_key = st.text(
    alphabet=string.ascii_lowercase + "-", min_size=1, max_size=10
).filter(lambda s: s.strip("-"))
_param_value = st.text(
    alphabet=string.ascii_letters + string.digits + " ./:-_", max_size=24
).map(str.strip)
_template_name = st.sampled_from(
    ["cite web", "cite news", "dead link", "webarchive", "infobox thing"]
)
_url_leaf = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)


@st.composite
def templates(draw):
    name = draw(_template_name)
    n_params = draw(st.integers(min_value=0, max_value=5))
    params = []
    for _ in range(n_params):
        key = draw(_param_key)
        value = draw(_param_value)
        params.append((key, value))
    return Template(name=name, params=tuple(params))


class TestTemplateRoundTrip:
    @given(templates())
    @settings(max_examples=150)
    def test_render_parse_roundtrip(self, template):
        parsed = parse_templates(template.render())
        assert len(parsed) == 1
        out = parsed[0]
        assert out.normalized_name == template.normalized_name
        for key, value in template.params:
            # Last-wins on duplicate keys matches MediaWiki behaviour;
            # every key must at least resolve to one of its values.
            candidates = [v for k, v in template.params if k == key]
            assert out.get(key) in candidates

    @given(st.lists(templates(), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_sibling_templates_all_found(self, items):
        text = " and ".join(t.render() for t in items)
        parsed = parse_templates(text)
        assert len(parsed) == len(items)
        assert [t.normalized_name for t in parsed] == [
            t.normalized_name for t in items
        ]


class TestLinkRefProperties:
    @given(_url_leaf, st.integers(min_value=2004, max_value=2021))
    @settings(max_examples=80)
    def test_cite_plus_marking_always_permadead(self, leaf, year):
        url = f"http://example.org/a/{leaf}.html"
        at = SimTime.from_ymd(year, 6, 15)
        text = (
            "* " + cite_web(url, "t").render()
            + dead_link(at, "InternetArchiveBot").render()
        )
        (ref,) = extract_link_refs(text)
        assert ref.url == url
        assert ref.is_permanently_dead
        assert ref.marked_by == "InternetArchiveBot"
        # The span must cover exactly the reference plus annotation.
        assert text[ref.span[0]: ref.span[1]].count("{{") == 2

    @given(st.lists(_url_leaf, min_size=1, max_size=6, unique=True))
    @settings(max_examples=60)
    def test_extraction_order_and_count(self, leaves):
        text = "\n".join(
            f"* [http://example.org/x/{leaf} ref {i}]"
            for i, leaf in enumerate(leaves)
        )
        refs = extract_link_refs(text)
        assert [r.url for r in refs] == [
            f"http://example.org/x/{leaf}" for leaf in leaves
        ]

    @given(st.integers(min_value=2004, max_value=2022), st.integers(min_value=1, max_value=12))
    def test_month_year_stable(self, year, month):
        stamp = month_year(SimTime.from_ymd(year, month, 3))
        assert str(year) in stamp
        assert stamp.split()[0] in (
            "January", "February", "March", "April", "May", "June", "July",
            "August", "September", "October", "November", "December",
        )


# -- differential: the str.find scanners against the character walk ----------


def reference_parse_templates(text: str) -> list[Template]:
    """The original character-by-character template scanner."""
    templates: list[Template] = []
    index = 0
    length = len(text)
    while index < length - 1:
        if text[index: index + 2] != "{{":
            index += 1
            continue
        depth = 0
        end = index
        while end < length - 1:
            pair = text[end: end + 2]
            if pair == "{{":
                depth += 1
                end += 2
            elif pair == "}}":
                depth -= 1
                end += 2
                if depth == 0:
                    break
            else:
                end += 1
        if depth != 0:
            raise WikiError(f"unbalanced template braces at offset {index}")
        body = text[index + 2: end - 2]
        templates.append(_reference_template_body(body, index, end))
        index = end
    return templates


def _reference_template_body(body: str, start: int, end: int) -> Template:
    parts = reference_split_top_level(body, "|")
    name = parts[0].strip()
    params: list[tuple[str, str]] = []
    position = 1
    for part in parts[1:]:
        if "=" in part:
            key, value = part.split("=", 1)
            params.append((key.strip(), value.strip()))
        else:
            params.append((str(position), part.strip()))
            position += 1
    return Template(name=name, params=tuple(params), start=start, end=end)


def reference_split_top_level(body: str, separator: str) -> list[str]:
    """The original character-by-character top-level splitter."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    index = 0
    while index < len(body):
        pair = body[index: index + 2]
        if pair == "{{":
            depth += 1
            current.append(pair)
            index += 2
        elif pair == "}}":
            depth -= 1
            current.append(pair)
            index += 2
        elif body[index] == separator and depth == 0:
            parts.append("".join(current))
            current = []
            index += 1
        else:
            current.append(body[index])
            index += 1
    parts.append("".join(current))
    return parts


def reference_link_refs(text: str):
    """``extract_link_refs`` running on the reference scanner."""
    current = wikitext.parse_templates
    wikitext.parse_templates = reference_parse_templates
    try:
        return extract_link_refs(text)
    finally:
        wikitext.parse_templates = current


def _outcome(parse, text):
    """``("ok", result)`` or ``("wiki-error", message)``; any other
    exception propagates and fails the test."""
    try:
        return ("ok", parse(text))
    except WikiError as exc:
        return ("wiki-error", str(exc))


_PIECES = (
    "{", "}", "{{", "}}", "|", "=", " ", "\n", "a", "b", "url", "title",
    "cite web", "dead link", "webarchive", "bot=X",
    "[http://a.org/x]", "[http://b.org/y t]", "[", "]", "http://c.org/z",
)

_TEMPLATES = (
    "{{cite web |url=http://a.org/x |title=T}}",
    "{{cite news|url=http://b.org/y}}",
    "{{dead link |date=May 2019 |bot=X}}",
    "{{dead link}}",
    "{{webarchive |url=http://w.org/1}}",
)
_piece = st.one_of(st.sampled_from(_PIECES), st.sampled_from(_TEMPLATES))
#: Balanced templates nested in each other's parameters, with stray
#: pieces (lone braces included) between them.
_nested = st.recursive(
    st.lists(_piece, max_size=4).map("".join),
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(
        lambda parts: "{{" + "|".join(parts) + "}}"
    )
    | st.lists(inner, max_size=3).map("".join),
    max_leaves=12,
)
_wikitext_soup = st.one_of(
    st.lists(_piece, max_size=40).map("".join),
    st.lists(st.one_of(_nested, _piece), max_size=6).map("".join),
)
_brace_soup = st.text(alphabet="{}|= ab[]", max_size=40)


class TestScannerDifferential:
    @given(st.one_of(_wikitext_soup, _brace_soup))
    @settings(max_examples=600)
    def test_parse_templates_matches_reference(self, text):
        assert _outcome(parse_templates, text) == _outcome(
            reference_parse_templates, text
        )

    @given(st.one_of(_wikitext_soup, _brace_soup))
    @settings(max_examples=600)
    def test_link_refs_match_reference(self, text):
        assert _outcome(extract_link_refs, text) == _outcome(
            reference_link_refs, text
        )

    @given(
        st.one_of(_wikitext_soup, _brace_soup),
        st.sampled_from(["|", "=", "{", "}", "a"]),
    )
    @settings(max_examples=600)
    def test_split_top_level_matches_reference(self, body, separator):
        # Splitting never raises, whatever the brace balance.
        assert _split_top_level(body, separator) == (
            reference_split_top_level(body, separator)
        )

    @pytest.mark.parametrize(
        "text",
        [
            "{{{a}}}",
            "{{a}}}}",
            "}}{{a|{{b}}|c}}",
            "{{a|b}}{{",
            "x {{ {{y}} ",
            "{{}}{{{{}}}}",
            "{{a|x=}}}|y}}",
            "{{cite web |url=http://a.org/x}}{{dead link}}",
        ],
    )
    def test_edge_cases_match_reference(self, text):
        assert _outcome(parse_templates, text) == _outcome(
            reference_parse_templates, text
        )
        assert _outcome(extract_link_refs, text) == _outcome(
            reference_link_refs, text
        )
