"""Turn metapath subgraphs into prompt text and ranker input tokens."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

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


def _ranker_layout(pair: tuple[str, str], subgraph: MetapathSubgraph,
                   words: Callable[[str], Sequence[str]]) -> list[str]:
    """The layout of :func:`encode_ranker_input`, with ``words`` splitting
    each text into tokens."""
    a, b = pair
    tokens = [CLS, *words(a), *words(b), SEP]
    last_label = len(subgraph.node_names) - 2
    for i, name in enumerate(subgraph.node_names):
        if i > 0:
            tokens.append("-")
        tokens.extend(words(subgraph.node_types[i] or subgraph.edge_labels[min(i, last_label)]))
        tokens.extend(words(name))
    return tokens


def encode_ranker_input(pair: tuple[str, str], subgraph: MetapathSubgraph) -> list[str]:
    """Token sequence fed to ranking models.

    Layout: CLS marker, the pair's name tokens, SEP marker, then one
    "type name" segment per node with a "-" token between segments.  When a
    node has no type, the adjacent edge label fills the type slot.
    """
    return _ranker_layout(pair, subgraph, str.split)


def tokenize(text_or_tokens: Union[str, Iterable[str]]) -> list[str]:
    """Whitespace tokens, lowercased except for the CLS/SEP markers."""
    if isinstance(text_or_tokens, str):
        raw = text_or_tokens.split()
    else:
        raw = [t for tok in text_or_tokens for t in str(tok).split()]
    return [t if t in _MARKERS else t.lower() for t in raw]


# Texts whose tokenized words are kept; the cache is emptied when full.
_WORDS_LIMIT = 1 << 14
_words_cache: dict[str, tuple[str, ...]] = {}


def _words(text: str) -> tuple[str, ...]:
    words = _words_cache.get(text)
    if words is None:
        if len(_words_cache) >= _WORDS_LIMIT:
            _words_cache.clear()
        words = _words_cache[text] = tuple(tokenize(text))
    return words


def ranker_input_tokens(pair: tuple[str, str], subgraph: MetapathSubgraph) -> list[str]:
    """Lowercased feature tokens for one (pair, subgraph) input: the tokens
    of :func:`encode_ranker_input`, from a cache of each text's words."""
    return _ranker_layout(pair, subgraph, _words)
