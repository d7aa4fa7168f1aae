"""Wikitext parsing: templates and external link references.

We implement the subset of wikitext the study actually reads —
``{{template |k=v |...}}`` markup with brace nesting, ``{{cite web}}``
citations, ``{{dead link}}`` annotations, and bare bracketed external
links ``[http://url title]`` — rather than the full MediaWiki grammar
(a documented non-goal in DESIGN.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import WikiError

_BRACKET_LINK_RE = re.compile(r"\[(https?://[^\s\]]+)(?:\s+([^\]]*))?\]")


@dataclass(frozen=True)
class Template:
    """A parsed ``{{name |k=v |flag}}`` occurrence.

    Positional (unnamed) parameters are stored under keys "1", "2", …
    like MediaWiki does.
    """

    name: str
    params: tuple[tuple[str, str], ...] = ()
    start: int = -1
    end: int = -1

    def get(self, key: str, default: str = "") -> str:
        """The value of parameter ``key`` (last occurrence wins)."""
        for param_key, value in self.params:
            if param_key == key:
                return value
        return default

    def has(self, key: str) -> bool:
        """Whether parameter ``key`` is present."""
        return any(param_key == key for param_key, _ in self.params)

    @property
    def normalized_name(self) -> str:
        """Template name, trimmed and lowercased."""
        return self.name.strip().lower()

    def render(self) -> str:
        """Back to wikitext form."""
        parts = [self.name]
        position = 1
        for key, value in self.params:
            if key == str(position):
                parts.append(value)
                position += 1
            else:
                parts.append(f"{key}={value}")
        return "{{" + " |".join(parts) + "}}"


def make_template(name: str, **params: str) -> Template:
    """Build a template from keyword parameters (underscores become
    hyphens, since wikitext parameter names use ``archive-url`` style)."""
    pairs = tuple(
        (key.replace("_", "-"), value) for key, value in params.items()
    )
    return Template(name=name, params=pairs)


def parse_templates(text: str) -> list[Template]:
    """All top-level templates in ``text``, in document order.

    Handles nested braces (a nested template stays embedded in its
    parent's parameter value; only top-level occurrences are returned,
    which is what the link-reference extractor needs). Brace pairs
    are matched greedily left to right, so ``{{{`` opens once and
    leaves a lone ``{``; the scan jumps between pairs with
    ``str.find``.
    """
    templates: list[Template] = []
    find = text.find
    start = find("{{")
    while start != -1:
        depth = 1
        cursor = start + 2
        opening = find("{{", cursor)
        closing = find("}}", cursor)
        while True:
            if closing == -1:
                raise WikiError(f"unbalanced template braces at offset {start}")
            if opening != -1 and opening < closing:
                depth += 1
                cursor = opening + 2
                opening = find("{{", cursor)
            else:
                depth -= 1
                cursor = closing + 2
                if depth == 0:
                    break
                closing = find("}}", cursor)
        templates.append(
            _parse_template_body(text[start + 2: cursor - 2], start, cursor)
        )
        start = find("{{", cursor)
    return templates


def _parse_template_body(body: str, start: int, end: int) -> Template:
    parts = _split_top_level(body, "|")
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


def _split_top_level(body: str, separator: str) -> list[str]:
    """Split on the one-character ``separator`` outside nested
    ``{{ }}`` groups.

    Brace pairs are matched as in :func:`parse_templates`; a stray
    ``}}`` takes the depth below zero, and separators split only at
    depth zero. Bodies without brace pairs take a plain ``str.split``.
    """
    if "{{" not in body and "}}" not in body:
        return body.split(separator)
    find = body.find
    end = len(body)
    parts: list[str] = []
    part_start = cursor = depth = 0
    opening = find("{{")
    closing = find("}}")
    if opening == -1:
        opening = end
    if closing == -1:
        closing = end
    while True:
        pair = min(opening, closing)
        if depth == 0:
            split = find(separator, cursor, pair)
            if split != -1:
                parts.append(body[part_start:split])
                part_start = cursor = split + 1
                continue
        if pair == end:
            break
        cursor = pair + 2
        if pair == opening:
            depth += 1
            opening = find("{{", cursor)
            if opening == -1:
                opening = end
        else:
            depth -= 1
            closing = find("}}", cursor)
            if closing == -1:
                closing = end
    parts.append(body[part_start:])
    return parts


@dataclass(frozen=True)
class LinkRef:
    """One external link reference found in an article.

    Attributes:
        url: the external URL.
        title: citation title or bracket-link caption.
        cite: the enclosing citation template, if the link came from
            one (None for bare bracket links).
        dead_link: the ``{{dead link}}`` template annotating this
            reference, if any.
        archive_url: archived-copy URL when the reference was patched.
        span: (start, end) character offsets of the whole reference in
            the wikitext, covering the citation plus any annotation.
    """

    url: str
    title: str = ""
    cite: Template | None = None
    dead_link: Template | None = None
    archive_url: str | None = None
    span: tuple[int, int] = (-1, -1)

    @property
    def is_marked_dead(self) -> bool:
        """Whether a {{dead link}} annotation follows the reference."""
        return self.dead_link is not None

    @property
    def is_permanently_dead(self) -> bool:
        """Marked dead with no archived copy — the paper's subject.

        On the real Wikipedia a reference renders as "permanent dead
        link" when it carries a ``{{dead link}}`` annotation and no
        ``archive-url``.
        """
        return self.dead_link is not None and self.archive_url is None

    @property
    def marked_by(self) -> str:
        """Username recorded in the dead-link annotation's bot param.

        Empty when unmarked or when a human added the annotation
        without a bot attribution; the authoritative marker identity
        comes from edit-history mining, this is a convenience.
        """
        return self.dead_link.get("bot") if self.dead_link else ""


def extract_link_refs(text: str) -> list[LinkRef]:
    """All external link references in ``text``, in document order.

    Recognises citation templates with a ``url`` parameter and bare
    bracketed links; in both cases an immediately following
    ``{{dead link}}`` template annotates the reference.
    """
    templates = parse_templates(text)
    refs: list[LinkRef] = []
    consumed_dead: set[int] = set()

    for index, template in enumerate(templates):
        name = template.normalized_name
        if name.startswith("cite") and template.has("url"):
            dead, dead_end = _following_dead_link(templates, index, text)
            if dead is not None:
                consumed_dead.add(id(dead))
            refs.append(
                LinkRef(
                    url=template.get("url"),
                    title=template.get("title"),
                    cite=template,
                    dead_link=dead,
                    archive_url=template.get("archive-url") or None,
                    span=(template.start, dead_end if dead else template.end),
                )
            )

    for match in _BRACKET_LINK_RE.finditer(text):
        if _inside_any_template(match.start(), templates):
            continue
        end = match.end()
        # A bare link may be annotated by {{webarchive}} (a patch) and
        # {{dead link}} (a marking), in that order, directly after it.
        webarchive = _template_at(templates, end, text, "webarchive")
        if webarchive is not None:
            end = webarchive.end
        dead = _dead_link_at(templates, end, text)
        if dead is not None:
            consumed_dead.add(id(dead))
            end = dead.end
        refs.append(
            LinkRef(
                url=match.group(1),
                title=(match.group(2) or "").strip(),
                dead_link=dead,
                archive_url=webarchive.get("url") if webarchive else None,
                span=(match.start(), end),
            )
        )

    refs.sort(key=lambda ref: ref.span[0])
    return refs


def _following_dead_link(
    templates: list[Template], index: int, text: str
) -> tuple[Template | None, int]:
    """A ``{{dead link}}`` right after template ``index``, if present."""
    this_end = templates[index].end
    dead = _dead_link_at(templates, this_end, text)
    if dead is None:
        return None, this_end
    return dead, dead.end


def _dead_link_at(
    templates: list[Template], offset: int, text: str
) -> Template | None:
    """The dead-link template starting at ``offset`` (whitespace allowed)."""
    return _template_at(templates, offset, text, "dead link")


def _template_at(
    templates: list[Template], offset: int, text: str, name: str
) -> Template | None:
    """The ``name`` template directly after ``offset`` (whitespace allowed)."""
    for template in templates:
        if template.normalized_name != name:
            continue
        between = text[offset: template.start]
        if template.start >= offset and between.strip() == "":
            return template
    return None


def _inside_any_template(offset: int, templates: list[Template]) -> bool:
    return any(t.start <= offset < t.end for t in templates)
