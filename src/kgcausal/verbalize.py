"""Turn metapath subgraphs into prompt text and ranker input tokens."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .kg import FORWARD, MetapathSubgraph

FULL = "full"
TYPED_ARROWS = "typed_arrows"
PLAIN_ARROWS = "plain_arrows"
HYPHEN = "hyphen"
_VARIANTS = (FULL, TYPED_ARROWS, PLAIN_ARROWS, HYPHEN)

# Forward-crossed edges point right, reverse-crossed ones left.
ARROW = "→"
MIRROR_ARROW = "←"
# Only the full variant puts this before its triples.
PREFIX = "Relation paths between the pair: "

CLS = "CLS"
SEP = "SEP"
_MARKERS = frozenset((CLS, SEP))


@dataclass(frozen=True)
class VerbalizationStyle:
    """Which of the four variants renders a subgraph (see :func:`verbalize`)."""

    variant: str = PLAIN_ARROWS

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown verbalization variant {self.variant!r}")


FULL_STYLE = VerbalizationStyle(variant=FULL)
TYPED_ARROWS_STYLE = VerbalizationStyle(variant=TYPED_ARROWS)
PLAIN_ARROWS_STYLE = VerbalizationStyle(variant=PLAIN_ARROWS)
HYPHEN_STYLE = VerbalizationStyle(variant=HYPHEN)


def _typed_name(node_type: str, name: str) -> str:
    return f"{node_type} {name}" if node_type else name


def verbalize(subgraph: MetapathSubgraph, style: VerbalizationStyle = PLAIN_ARROWS_STYLE) -> str:
    """Render a subgraph as natural-language path text.

    ``full`` lists every hop as an oriented triple "(type name, label,
    type name)" behind ``PREFIX``; ``typed_arrows`` chains typed names with
    labeled arrows; ``plain_arrows`` chains the bare names with arrows;
    ``hyphen`` joins the names with " - " and drops direction.
    """
    names = subgraph.node_names
    labels = subgraph.edge_labels
    if style.variant == HYPHEN:
        return " - ".join(names)

    forward = [d == FORWARD for d in subgraph.edge_directions]
    arrows = [ARROW if f else MIRROR_ARROW for f in forward]
    if style.variant == PLAIN_ARROWS:
        return names[0] + "".join(f" {arrow} {name}" for arrow, name in zip(arrows, names[1:]))

    typed = [_typed_name(t, name) for t, name in zip(subgraph.node_types, names)]
    if style.variant == TYPED_ARROWS:
        return typed[0] + "".join(f" {arrow}{label}{arrow} {name}"
                                  for arrow, label, name in zip(arrows, labels, typed[1:]))

    # full: one oriented triple per hop, in the edge's stored orientation.
    triples = [f"({u}, {label}, {v})" if f else f"({v}, {label}, {u})"
               for u, label, v, f in zip(typed, labels, typed[1:], forward)]
    return PREFIX + ", ".join(triples)


def _node_text(kind: str, name: str, first: bool) -> str:
    """A node's text in the ranker input: its kind and name, after a "-"
    unless the node is the path's first."""
    return f"{kind} {name}" if first else f"- {kind} {name}"


def _ranker_layout(pair: tuple[str, str], subgraphs: Sequence[MetapathSubgraph],
                   words: Callable[[str], Sequence[str]]) -> list[list[Sequence[str]]]:
    """The layout of :func:`encode_ranker_input` for each of ``subgraphs``,
    as pieces whose tokens, in order, are the input: CLS and the first
    variable's words, the second's and SEP, both built once, then one piece
    per node.  A node's kind is its type, or when that is empty the label of
    the hop after it (before it, for the last node).  ``words`` splits a
    text into tokens at whitespace, so the words of two texts joined by a
    space are the words of one, then of the other, and each node's piece is
    the words of one text."""
    first, second = pair_pieces(pair, words)
    layouts = []
    for subgraph in subgraphs:
        last_label = len(subgraph.edge_labels) - 1
        layouts.append([first, second, *[
            words(_node_text(t or subgraph.edge_labels[min(i, last_label)], name, i == 0))
            for i, (t, name) in enumerate(zip(subgraph.node_types, subgraph.node_names))]])
    return layouts


def encode_ranker_input(pair: tuple[str, str], subgraph: MetapathSubgraph) -> list[str]:
    """Token sequence fed to ranking models.

    Layout: CLS marker, the pair's name tokens, SEP marker, then one
    "type name" segment per node with a "-" token between segments.  When a
    node has no type, the adjacent edge label fills the type slot.
    """
    return [token for piece in _ranker_layout(pair, [subgraph], str.split)[0] for token in piece]


def tokenize(text: str) -> list[str]:
    """Whitespace tokens, lowercased except for the CLS/SEP markers."""
    return [t if t in _MARKERS else t.lower() for t in text.split()]


# Texts whose tokenized words are kept; once the cache is full, new texts
# are not kept.
_WORDS_LIMIT = 1 << 14
_words_cache: dict[str, tuple[str, ...]] = {}


def _words(text: str) -> tuple[str, ...]:
    words = _words_cache.get(text)
    if words is None:
        words = tuple(tokenize(text))
        if len(_words_cache) < _WORDS_LIMIT:
            _words_cache[text] = words
    return words


def pair_pieces(pair: tuple[str, str], words: Callable[[str], Sequence[str]] = _words
                ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ranker input's two pieces before its first node: CLS and the
    first variable's words, then the second's and SEP."""
    return (CLS, *words(pair[0])), (*words(pair[1]), SEP)


def node_tokens(kind: str, name: str, first: bool) -> tuple[str, ...]:
    """The ranker input's tokens of one node (see :func:`_ranker_layout`),
    tokenized afresh: the caller keeps what it needs."""
    return tuple(tokenize(_node_text(kind, name, first)))


def ranker_input_pieces(pair: tuple[str, str], subgraphs: Sequence[MetapathSubgraph]
                        ) -> list[list[tuple[str, ...]]]:
    """The pieces of :func:`ranker_input_tokens` for each of ``subgraphs``,
    as token tuples: one per variable of the pair, then one per node, each
    node's from the cache of every text's words."""
    return _ranker_layout(pair, subgraphs, _words)


def ranker_input_tokens(pair: tuple[str, str], subgraph: MetapathSubgraph) -> list[str]:
    """Lowercased feature tokens for one (pair, subgraph) input: the tokens
    of :func:`encode_ranker_input`, from a cache of each text's words."""
    return [token for piece in ranker_input_pieces(pair, [subgraph])[0] for token in piece]
