"""Turn metapath subgraphs into prompt text and ranker input tokens.

:func:`verbalize` renders a path in one of four variants, each a string
constant: ``FULL``, ``TYPED_ARROWS``, ``PLAIN_ARROWS`` or ``HYPHEN``.

A ranker input is a sequence of pieces, each one ``(kind, name, first)``:
the pair's two, with ``kind`` None, then one per node of the path.  The LM
corpus, the neural ranker and the GBDT read a piece's tokens through
:func:`piece_tokens`; the GBDT hashes them piece by piece (``ltr.models``).
"""

from __future__ import annotations

from typing import Optional

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


def _typed_name(node_type: str, name: str) -> str:
    return f"{node_type} {name}" if node_type else name


def check_variant(variant: str) -> None:
    """Raise a ValueError unless ``variant`` is one of the four."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown verbalization variant {variant!r}")


def verbalize(subgraph: MetapathSubgraph, variant: str = PLAIN_ARROWS) -> str:
    """Render a subgraph as natural-language path text in ``variant``, one
    of the four below; any other value is a ValueError.

    ``full`` lists every hop as an oriented triple "(type name, label,
    type name)" behind ``PREFIX``; ``typed_arrows`` chains typed names with
    labeled arrows; ``plain_arrows`` chains the bare names with arrows;
    ``hyphen`` joins the names with " - " and drops direction.
    """
    names = subgraph.node_names
    labels = subgraph.edge_labels
    if variant == HYPHEN:
        return " - ".join(names)

    forward = [d == FORWARD for d in subgraph.edge_directions]
    arrows = [ARROW if f else MIRROR_ARROW for f in forward]
    if variant == PLAIN_ARROWS:
        return names[0] + "".join(f" {arrow} {name}" for arrow, name in zip(arrows, names[1:]))

    typed = [_typed_name(t, name) for t, name in zip(subgraph.node_types, names)]
    if variant == TYPED_ARROWS:
        return typed[0] + "".join(f" {arrow}{label}{arrow} {name}"
                                  for arrow, label, name in zip(arrows, labels, typed[1:]))

    check_variant(variant)
    # full: one oriented triple per hop, in the edge's stored orientation.
    triples = [f"({u}, {label}, {v})" if f else f"({v}, {label}, {u})"
               for u, label, v, f in zip(typed, labels, typed[1:], forward)]
    return PREFIX + ", ".join(triples)


def tokenize(text: str) -> list[str]:
    """Whitespace tokens, lowercased except for the CLS/SEP markers."""
    return [t if t in _MARKERS else t.lower() for t in text.split()]


# Pieces whose tokens are kept, keyed (kind, name, first); once the table is
# full, new keys are not kept.
_TOKENS_LIMIT = 1 << 14
_tokens: dict[tuple, tuple[str, ...]] = {}


def piece_tokens(kind: Optional[str], name: str, first: bool) -> tuple[str, ...]:
    """The tokens of one piece of the ranker input.  With ``kind`` None it
    is one of the pair's two: CLS and the words of ``name``, the first
    variable, when ``first``, else the words of the second and SEP.
    Otherwise it is a node's: "-" unless the node is the path's first, then
    the words of its kind and of its name."""
    key = (kind, name, first)
    tokens = _tokens.get(key)
    if tokens is None:
        if kind is None:
            tokens = (CLS, *tokenize(name)) if first else (*tokenize(name), SEP)
        else:
            tokens = tuple(tokenize(f"{kind} {name}" if first else f"- {kind} {name}"))
        if len(_tokens) < _TOKENS_LIMIT:
            _tokens[key] = tokens
    return tokens


def ranker_input_tokens(pair: tuple[str, str], subgraph: MetapathSubgraph) -> list[str]:
    """Lowercased feature tokens for one (pair, subgraph) input, the tokens
    of its pieces in order: the pair's two, then one per node.  A node's
    kind is its type, or when that is empty the label of the hop after it
    (before it, for the last node)."""
    labels = subgraph.edge_labels
    last = len(labels) - 1
    tokens = [*piece_tokens(None, pair[0], True), *piece_tokens(None, pair[1], False)]
    for i, (node_type, name) in enumerate(zip(subgraph.node_types, subgraph.node_names)):
        tokens += piece_tokens(node_type or labels[min(i, last)], name, i == 0)
    return tokens
