"""Seeded input generator for the benchmark (linear time).

Produces the base text and one XML encoding per hierarchy: verse lines
of words, physical lines that may split words, and boundary-crossing
damage and restoration spans.  For a given seed the XML is the same as
``repro.corpus.generator`` writes with its default settings, but it is
written straight from the span lists: the library generator checks
every span against all earlier ones, which is quadratic and takes
about a minute at 32k words.  ``smoke.py`` checks the sameness on
small documents; once the library generator runs in linear time, this
module should go and the benchmark should call the library.  The
program under test only ever sees the generated strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus.vocabulary import WordSource

WORDS_PER_VLINE = 5
CHARS_PER_LINE = 40
HYPHENATION_RATE = 0.35
FEATURE_RATE = 0.08
CROSS_RATE = 0.5


@dataclass
class Inputs:
    """A generated manuscript: base text plus XML per hierarchy."""

    text: str
    sources: dict[str, str]
    words: list[str]
    #: (start, end) of every word in ``text``
    word_spans: list[tuple[int, int]]
    #: (start, end) of every element, by element name (no words)
    elements: dict[str, list[tuple[int, int]]]


def generate(n_words: int, seed: int) -> Inputs:
    """The manuscript of ``n_words`` words for ``seed``."""
    rng = random.Random(seed)
    words = list(WordSource(seed).words(n_words))
    spans, cursor = [], 0
    for word in words:
        spans.append((cursor, cursor + len(word)))
        cursor += len(word) + 1
    text = " ".join(words)
    elements: dict[str, list[tuple[int, int]]] = {}
    sources = {
        "structural": _structural(text, spans, rng),
        "physical": _physical(text, rng, elements),
        "damage": _features(text, spans, "dmg", rng, elements),
        "restoration": _features(text, spans, "res", rng, elements),
    }
    return Inputs(text, sources, words, spans, elements)


def _render(text: str, marks: list[tuple[int, int, str]]) -> str:
    """``<r>`` + text with tags inserted at ``(offset, order, tag)``.

    Marks are sorted by offset, then by ``order`` so that at one
    offset closing tags come before opening ones and outer elements
    open before inner ones.
    """
    out, cursor = ["<r>"], 0
    for offset, _order, tag in sorted(marks):
        out.append(text[cursor:offset])
        out.append(tag)
        cursor = offset
    out.append(text[cursor:])
    out.append("</r>")
    return "".join(out)


def _structural(text: str, spans: list[tuple[int, int]],
                rng: random.Random) -> str:
    marks, index, number = [], 0, 0
    while index < len(spans):
        size = max(1, WORDS_PER_VLINE + rng.randint(-1, 1))
        group = spans[index:index + size]
        number += 1
        end = (spans[index + size][0] if index + size < len(spans)
               else len(text))
        marks.append((group[0][0], 1, f'<vline n="{number}">'))
        marks.append((end, 0, "</vline>"))
        for start, stop in group:
            marks.append((start, 2, "<w>"))
            marks.append((stop, -1, "</w>"))
        index += size
    return _render(text, marks)


def _physical(text: str, rng: random.Random,
              elements: dict[str, list[tuple[int, int]]]) -> str:
    breaks, cursor = [0], 0
    while cursor < len(text):
        target = min(cursor + CHARS_PER_LINE, len(text))
        if target >= len(text):
            breaks.append(len(text))
            break
        if rng.random() < HYPHENATION_RATE and text[target] != " ":
            at = target
        else:
            space = text.rfind(" ", cursor + 1, target + 1)
            at = space + 1 if space != -1 else target
        if at <= cursor:
            at = target
        breaks.append(at)
        cursor = at
    marks = []
    elements["line"] = list(zip(breaks, breaks[1:]))
    for number, (start, end) in enumerate(elements["line"], 1):
        marks.append((start, 1, f'<line n="{number}">'))
        marks.append((end, 0, "</line>"))
    return _render(text, marks)


def _features(text: str, spans: list[tuple[int, int]], element: str,
              rng: random.Random,
              elements: dict[str, list[tuple[int, int]]]) -> str:
    expected = int(len(spans) * FEATURE_RATE)
    chosen = sorted(rng.sample(range(len(spans)), expected))
    marks, last_end = [], -1
    placed = elements.setdefault(element, [])
    for index in chosen:
        start, end = spans[index]
        span_start = rng.randint(start, max(start, end - 1))
        if rng.random() < CROSS_RATE and index + 1 < len(spans):
            next_start, next_end = spans[index + 1]
            span_end = rng.randint(next_start + 1, next_end)
        else:
            span_end = rng.randint(min(span_start + 1, end), end)
        if span_start <= last_end:
            span_start = last_end + 1
        if span_end <= span_start:
            continue
        placed.append((span_start, span_end))
        marks.append((span_start, 1, f"<{element}>"))
        marks.append((span_end, 0, f"</{element}>"))
        last_end = span_end
    return _render(text, marks)
