"""In-memory knowledge graph store with metapath subgraph queries.

Graphs are loaded from snapshot files (JSON Lines or TSV triples) and are
immutable afterwards.  Traversal treats edges as undirected but every hop
records the direction in which the underlying edge was crossed, so that
verbalization can reproduce the original orientation.

The store is one interned, sorted CSR (compressed sparse row) core.  Node
ids and relations are numbered in sorted string order, so int order is
string order.  Each edge is one adjacency entry at each end; node ``u``'s
entries are ``offsets[u]:offsets[u + 1]`` of two parallel arrays, the
neighbour and the hop code ``2 * relation + direction`` (0 forward, 1
reverse), sorted by (neighbour, hop code) as the (id, relation, direction)
strings sort.  No edge list or per-node tuple is kept: ``nodes`` and
``neighbors`` are built when asked for.  Search and walk run on the ints,
and a :class:`MetapathSubgraph` is built only for each path returned.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import random
from array import array
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import KGLoadError

logger = logging.getLogger(__name__)

FORWARD = "forward"
REVERSE = "reverse"
_DIRECTIONS = (FORWARD, REVERSE)  # indexed by the low bit of a hop code

FORMAT_JSONL = "triples-jsonl"
FORMAT_TSV = "triples-tsv"

# Keys each of a graph's tables of shared path tuples holds; once a table is
# full, new sequences get tuples of their own.
_SHARED_LIMIT = 1 << 12


@dataclass(frozen=True)
class NodeRecord:
    """A single entity: opaque id, display name, and a type label."""

    id: str
    name: str
    node_type: str


@dataclass(frozen=True)
class EdgeRecord:
    """A directed labeled edge between two node ids."""

    head: str
    relation: str
    tail: str


@dataclass(frozen=True, slots=True)
class MetapathSubgraph:
    """A simple path between a variable pair.

    Carries the node id / name / type sequences plus the label and crossing
    direction of every hop.  The first node is always the first variable of
    the query pair and the last node the second.

    Slotted, so a path holds its five tuples and no instance dict.  Paths
    that :func:`enumerate_subgraphs` returns share tuples: those with the
    same hop codes share one ``edge_labels`` and one ``edge_directions``
    object, and those with the same type sequence one ``node_types``.  The
    tuples are immutable, so sharing them changes no path.  Those paths are
    built by :func:`_unchecked_path`, without the checks below: a shortest
    path is simple, and its tuples come from the graph.  Every other path,
    such as one read from a file, is checked.
    """

    node_ids: tuple[str, ...]
    node_names: tuple[str, ...]
    node_types: tuple[str, ...]
    edge_labels: tuple[str, ...]
    edge_directions: tuple[str, ...]

    def __post_init__(self):
        n = len(self.node_ids)
        if n < 2:
            raise ValueError("a metapath subgraph needs at least two nodes")
        if len(self.node_names) != n or len(self.node_types) != n:
            raise ValueError("node_names and node_types must match node_ids in length")
        if len(self.edge_labels) != n - 1 or len(self.edge_directions) != n - 1:
            raise ValueError("edge_labels/edge_directions must have one entry per hop")
        if len(set(self.node_ids)) != n:
            raise ValueError("path must be simple (no repeated node ids)")
        for d in self.edge_directions:
            if d not in (FORWARD, REVERSE):
                raise ValueError(f"unknown edge direction {d!r}")

    def __len__(self) -> int:
        return len(self.edge_labels)

    def to_dict(self) -> dict:
        """The fields as they are, equal to ``asdict``'s deep copy."""
        return {name: getattr(self, name) for name in self.__slots__}


# The slot setters of MetapathSubgraph's fields, in field order.
_set_ids, _set_names, _set_types, _set_labels, _set_directions = (
    MetapathSubgraph.__dict__[name].__set__ for name in MetapathSubgraph.__slots__)


def _unchecked_path(ids, names, types, labels, directions) -> MetapathSubgraph:
    """The path of these five tuples without ``__post_init__``'s checks, for
    a caller whose paths meet them by construction."""
    path = object.__new__(MetapathSubgraph)
    _set_ids(path, ids)
    _set_names(path, names)
    _set_types(path, types)
    _set_labels(path, labels)
    _set_directions(path, directions)
    return path


@dataclass(frozen=True)
class LoadReport:
    """Counts reported by a graph load."""

    nodes: int
    edges: int
    duplicates_dropped: int


class _Interner:
    """Node ids and relations numbered in order of first appearance, the
    (name, type) each node is declared with (None until it is), and the
    edges as ``array("i")`` columns of those numbers, which, like the
    adjacency's int32 columns, hold fewer than 2**31 nodes and relations.
    It holds the graph's node and edge rules: the first one an endpoint or
    edge breaks is a ValueError."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.ids: list[str] = []
        self.declared: list[Optional[tuple[str, str]]] = []
        self.types: dict[str, str] = {}  # one str object per type
        self.relations: dict[str, int] = {}
        self.heads, self.relation_ids, self.tails = array("i"), array("i"), array("i")

    def endpoint(self, node_id: str, name: Optional[str] = None,
                 node_type: Optional[str] = None) -> int:
        """The number of node ``node_id``, a non-empty string.  A name and a
        type, both non-empty strings, declare it, and no other name or type
        may then; with both None it is only referenced."""
        if not (node_id and isinstance(node_id, str) and isinstance(name, _OPTIONAL_STR)
                and isinstance(node_type, _OPTIONAL_STR)):
            raise ValueError("node ids, names and types must be non-empty strings")
        i = self.index.get(node_id)
        if i is None:
            i = self.index[node_id] = len(self.ids)
            self.ids.append(node_id)
            self.declared.append(None)
        if name is None and node_type is None:
            return i
        if not name or not node_type:
            raise ValueError(f"node {node_id!r} needs both name and type")
        declared = self.declared[i]
        if declared is None:
            self.declared[i] = (name, self.types.setdefault(node_type, node_type))
        elif declared != (name, node_type):
            raise ValueError(f"node id {node_id!r} redeclared with conflicting name/type")
        return i

    def edge(self, head: int, relation: str, tail: int) -> None:
        """The edge between two numbered endpoints; ``relation`` is a
        non-empty string."""
        if not (relation and isinstance(relation, str)):
            raise ValueError("relation must be a non-empty string")
        self.heads.append(head)
        self.relation_ids.append(self.relations.setdefault(relation, len(self.relations)))
        self.tails.append(tail)

    def pop_nodes(self) -> tuple[list[str], list[Optional[tuple[str, str]]]]:
        """The node ids and their declarations, in order of first appearance;
        the interner lets go of them and of its id index and type table."""
        ids, declared = self.ids, self.declared
        self.index, self.ids, self.declared, self.types = {}, [], [], {}
        return ids, declared

    def pop_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The head, relation and tail columns as int32 arrays; the interner
        lets go of them, so they are freed once the caller drops them."""
        columns = tuple(np.frombuffer(a, dtype=np.int32)
                        for a in (self.heads, self.relation_ids, self.tails))
        self.heads, self.relation_ids, self.tails = array("i"), array("i"), array("i")
        return columns


def _sorted_ranks(keys: Sequence[str]) -> tuple[list[int], np.ndarray]:
    """``(order, rank)``: the indices of ``keys`` in sorted key order, and
    each index's position in that order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    return order, rank


# A packed adjacency key (node, neighbour, hop code) must stay below this.
_KEY_LIMIT = 2 ** 63


def _adjacency(interned: _Interner, node_rank: np.ndarray, relation_rank: np.ndarray
               ) -> tuple[np.ndarray, array, array]:
    """The distinct adjacency entries of the interner's edges, one at each
    end of every edge, sorted by (node, neighbour, hop code): the nodes as
    an int32 array, the neighbours and hop codes as ``array("i")`` columns.
    The interner's edge columns are freed on the way.

    Each entry is one int64 key ``(node * n + neighbour) * codes + hop``,
    written straight from the edge columns into one array that is sorted in
    place; repeated keys are dropped and the rest split into the outputs.
    Beside the keys, at most one int64 column of temporaries is alive.  Only
    when a key could reach ``_KEY_LIMIT`` does ``np.unique`` sort the rows."""
    n, codes = len(node_rank), 2 * len(relation_rank)
    heads, relations, tails = interned.pop_edges()
    if n * n * codes >= _KEY_LIMIT:
        h, t, r = node_rank[heads], node_rank[tails], 2 * relation_rank[relations]
        rows = np.unique(np.stack((np.concatenate((h, t)), np.concatenate((t, h)),
                                   np.concatenate((r, r + 1))), axis=1), axis=0)
        source, neighbour, hop = rows.T.astype(np.int32)
        return source, array("i", neighbour.tobytes()), array("i", hop.tobytes())

    m = len(heads)
    key = np.empty(2 * m, dtype=np.int64)
    at_head, at_tail = key[:m], key[m:]
    np.take(node_rank, heads, out=at_head)
    np.take(node_rank, tails, out=at_tail)
    at_head *= n
    at_head += at_tail  # head * n + tail
    at_tail *= n
    at_tail += at_head // n  # tail * n + head
    hop = np.take(relation_rank, relations)
    del heads, relations, tails
    hop *= 2
    at_head *= codes
    at_head += hop
    hop += 1
    at_tail *= codes
    at_tail += hop
    del hop, at_head, at_tail  # the views would keep the keys alive past key[distinct]

    key.sort()
    distinct = np.empty(len(key), dtype=bool)
    distinct[:1] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    if not distinct.all():
        key = key[distinct]
    del distinct
    neighbours, hop_codes = array("i", [0]) * len(key), array("i", [0]) * len(key)
    np.remainder(key, codes, out=np.frombuffer(hop_codes, dtype=np.int32), casting="unsafe")
    key //= codes
    np.remainder(key, n, out=np.frombuffer(neighbours, dtype=np.int32), casting="unsafe")
    key //= n
    return key.astype(np.int32), neighbours, hop_codes


def _component_labels(n: int, source: np.ndarray, neighbour: np.ndarray) -> np.ndarray:
    """The smallest node int of each node's connected component, as int32.

    Min-label propagation with pointer jumping: each round hooks, for every
    adjacency entry, the root of the node's label onto the neighbour's
    label when that is smaller, then jumps every label to its root.  Every
    edge has an entry at each end, so each round hooks the larger label of
    every edge onto the smaller.  A label only ever falls to the int of a
    node joined to it, so once no entry joins two labels each node holds its
    component's least int."""
    label = np.arange(n, dtype=np.int32)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, label[source], label[neighbour])
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


class KnowledgeGraph:
    """Typed, directed, relation-labeled multigraph; read-only after load.

    A name resolves to every node that has it, case-insensitively.  Safe
    to share across threads once constructed.

    The one state that changes after construction is a pair of tables of
    the tuples that returned paths share (see :class:`MetapathSubgraph`):
    ``(edge_labels, edge_directions)`` per hop-code sequence and
    ``node_types`` per type sequence.  Each holds at most about
    ``_SHARED_LIMIT`` keys; once full, new sequences get tuples of their
    own, and it is never emptied.  A key is read and stored with single
    dict operations, so threads need no lock: two that race to add one key
    store equal tuples, and either path is correct.
    """

    def __init__(self, nodes: Iterable[NodeRecord], edges: Iterable[EdgeRecord]):
        interned = _Interner()
        try:
            for node in nodes:
                interned.endpoint(node.id, node.name, node.node_type)
            for edge in edges:
                interned.edge(interned.endpoint(edge.head), edge.relation,
                              interned.endpoint(edge.tail))
        except ValueError as exc:
            raise KGLoadError(str(exc)) from None
        self._build(interned)

    @classmethod
    def _from_interned(cls, interned: _Interner) -> "KnowledgeGraph":
        graph = cls.__new__(cls)
        graph._build(interned)
        return graph

    def _build(self, interned: _Interner) -> None:
        ids, declared = interned.pop_nodes()
        if None in declared:  # name the first one, in order of appearance
            undeclared = ids[declared.index(None)]
            raise KGLoadError(f"edge endpoint references undeclared node id {undeclared!r}")

        order, node_rank = _sorted_ranks(ids)
        self._ids = [ids[i] for i in order]
        self._names = [declared[i][0] for i in order]
        self._types = [declared[i][1] for i in order]
        del ids, declared, order  # freed before the adjacency build, the peak
        relation_strings = list(interned.relations)
        order, relation_rank = _sorted_ranks(relation_strings)
        self._relations = [relation_strings[i] for i in order]
        self._hop_labels = [rel for rel in self._relations for _ in _DIRECTIONS]

        # One entry at each end of every edge; a repeated triple repeats both
        # of its entries.
        n = len(self._ids)
        triples = len(interned.heads)
        source, self._neighbours, self._hop_codes = _adjacency(interned, node_rank, relation_rank)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=n), out=offsets[1:])
        self._offsets = array("q", offsets.tobytes())
        self._degrees = array("q", np.diff(offsets).tobytes())
        neighbour = np.frombuffer(self._neighbours, dtype=np.int32)
        self._components = array("i", _component_labels(n, source, neighbour).tobytes())
        del source, neighbour

        self._shared_hops: dict[tuple[int, ...], tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self._shared_types: dict[tuple[str, ...], tuple[str, ...]] = {}

        # Lowercased names in sorted order, ties in id order, for _resolve().
        lowered = [name.lower() for name in self._names]
        lowered = [low if low != name else name for low, name in zip(lowered, self._names)]
        by_name = sorted(range(len(lowered)), key=lowered.__getitem__)
        self._lowered_names = [lowered[i] for i in by_name]
        self._by_name = array("i", by_name)

        edges = len(self._neighbours) // 2
        self.load_report = LoadReport(nodes=n, edges=edges, duplicates_dropped=triples - edges)

    # -- string-facing views ------------------------------------------------

    @property
    def nodes(self) -> dict[str, NodeRecord]:
        return {i: NodeRecord(id=i, name=name, node_type=node_type)
                for i, name, node_type in zip(self._ids, self._names, self._types)}

    def neighbors(self, node_id: str) -> tuple[tuple[str, str, str], ...]:
        """(neighbor id, relation, direction) triples, sorted."""
        u = self._node_int(node_id)
        if u is None:
            return ()
        first, end = self._offsets[u], self._offsets[u + 1]
        return tuple((self._ids[v], self._hop_labels[c], _DIRECTIONS[c & 1])
                     for v, c in zip(self._neighbours[first:end], self._hop_codes[first:end]))

    # -- the int core -------------------------------------------------------

    def _node_int(self, node_id: str) -> Optional[int]:
        u = bisect.bisect_left(self._ids, node_id)
        return u if u < len(self._ids) and self._ids[u] == node_id else None

    def _resolve(self, name: str) -> array:
        """The ints of the nodes named ``name``, case-insensitively, ascending;
        empty when no node has the name."""
        key = name.lower()
        first = bisect.bisect_left(self._lowered_names, key)
        last = bisect.bisect_right(self._lowered_names, key, first)
        return self._by_name[first:last]

    def _adjacent(self, u: int) -> array:
        """The neighbour of each of ``u``'s adjacency entries, in order."""
        offsets = self._offsets
        return self._neighbours[offsets[u]:offsets[u + 1]]

    def _hops(self, u: int, targets: Iterable[int]) -> list[tuple[int, array]]:
        """``(v, hop codes)`` for each of the ascending ``targets`` that ``u``
        has entries to, the codes ascending, found by bisection in the rest
        of ``u``'s slice."""
        neighbours, codes = self._neighbours, self._hop_codes
        first, end = self._offsets[u], self._offsets[u + 1]
        found = []
        for v in targets:
            first = bisect.bisect_left(neighbours, v, first, end)
            last = bisect.bisect_right(neighbours, v, first, end)
            if last > first:
                found.append((v, codes[first:last]))
                first = last
        return found

    def _subgraph(self, nodes: tuple[int, ...], codes: tuple[int, ...]) -> MetapathSubgraph:
        """The subgraph of a path of at least two nodes, given as ints, with
        the graph's shared hop and type tuples where its tables have them."""
        take = itemgetter(*nodes)
        hops = self._shared_hops.get(codes)
        if hops is None:
            hops = (tuple([self._hop_labels[c] for c in codes]),
                    tuple([_DIRECTIONS[c & 1] for c in codes]))
            if len(self._shared_hops) < _SHARED_LIMIT:
                self._shared_hops[codes] = hops
        types = take(self._types)
        shared = self._shared_types.get(types)
        if shared is not None:
            types = shared
        elif len(self._shared_types) < _SHARED_LIMIT:
            self._shared_types[types] = types
        return _unchecked_path(take(self._ids), take(self._names), types, *hops)


_DECODER = json.JSONDecoder()
_OPTIONAL_STR = (str, type(None))


def _parse_endpoint(raw, where: tuple[Path, int]) -> tuple[str, Optional[str], Optional[str]]:
    """(id, name, type); name and type are None when the JSON omits them."""
    if isinstance(raw, str):
        return raw, None, None
    if isinstance(raw, dict) and "id" in raw:
        return raw["id"], raw.get("name"), raw.get("type")
    raise KGLoadError("%s:%d: endpoint must be an id string or an object with 'id'" % where)


def _jsonl_triples(path: Path):
    """((path, line number), head, relation, tail) per line; endpoints as in
    _parse_endpoint.

    Each non-blank line must hold exactly one JSON value."""
    decode = _DECODER.raw_decode
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = decode(line)
            except json.JSONDecodeError as exc:
                raise KGLoadError(f"{path}:{lineno}: malformed line: {exc.msg}") from exc
            if end != len(line):
                raise KGLoadError(f"{path}:{lineno}: malformed line: Extra data")
            if not isinstance(obj, dict) or "head" not in obj or "tail" not in obj:
                raise KGLoadError(f"{path}:{lineno}: each line needs head, relation, tail")
            where = (path, lineno)
            yield (where, _parse_endpoint(obj["head"], where), obj.get("relation"),
                   _parse_endpoint(obj["tail"], where))


def _tsv_triples(path: Path):
    """Same rows as _jsonl_triples; an empty name or type field counts as absent."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 7:
                raise KGLoadError(
                    f"{path}:{lineno}: malformed line: expected 7 tab-separated fields, "
                    f"got {len(fields)}")
            head_id, head_name, head_type, relation, tail_id, tail_name, tail_type = fields
            yield ((path, lineno), (head_id, head_name or None, head_type or None), relation,
                   (tail_id, tail_name or None, tail_type or None))


_TRIPLE_READERS = {FORMAT_JSONL: _jsonl_triples, FORMAT_TSV: _tsv_triples}


def load_kg(path, format: str = FORMAT_JSONL) -> KnowledgeGraph:
    """Load a graph snapshot; the result is immutable.

    Endpoints may be bare id references as long as the id is declared with
    name and type somewhere in the file; the graph raises
    :class:`KGLoadError` naming an id that is only ever referenced.  Every
    other error is raised on the first line that has it, the node and edge
    rules of :class:`_Interner` with the file and line in front.  Each
    endpoint is interned once, as its line is read.
    """
    path = Path(path)
    if not path.exists():
        raise KGLoadError(f"knowledge graph file not found: {path}")
    if format not in _TRIPLE_READERS:
        raise KGLoadError(f"unknown KG file format {format!r}")

    interned = _Interner()
    endpoint, edge = interned.endpoint, interned.edge
    for where, head, relation, tail in _TRIPLE_READERS[format](path):
        try:
            edge(endpoint(*head), relation, endpoint(*tail))
        except ValueError as exc:
            raise KGLoadError("%s:%d: %s" % (*where, exc)) from None

    graph = KnowledgeGraph._from_interned(interned)
    logger.info("loaded %s: %d nodes, %d edges, %d duplicate triples dropped",
                path, graph.load_report.nodes, graph.load_report.edges,
                graph.load_report.duplicates_dropped)
    return graph


def _on_path_depths(kg: KnowledgeGraph, a_ids: Sequence[int], b_ids: Sequence[int],
                    max_hops: int) -> tuple[dict[int, int], int]:
    """``(depth, shortest)``: the length of the shortest undirected paths from
    an ``a_ids`` node to a ``b_ids`` node, and the distance from ``a_ids`` of
    every node on one of them.  ``({}, 0)`` when a set is empty, the sets
    share a node or no path is within ``max_hops``; when no ``a_ids`` node
    shares a component label with a ``b_ids`` node, at once.

    A level-synchronous breadth-first search runs from both sets, expanding
    one level at a time the frontier with fewer adjacency entries to read,
    and stops at the first level where the frontiers meet (Pohl, 1971) or
    once the two radii add up to ``max_hops``; the order of expansion
    changes the cost, not the result.  Every shortest path crosses a
    meeting node.  Walking back, a node of a side's level ``i - 1`` is on a
    path when it neighbours one found on level ``i``; this reads only the
    adjacency of nodes the search has already expanded, never that of the
    (often high-degree) meeting nodes.
    """
    component = kg._components
    if {component[u] for u in a_ids}.isdisjoint([component[v] for v in b_ids]):
        return {}, 0
    degree, adjacent = kg._degrees.__getitem__, kg._adjacent
    seen = (set(a_ids), set(b_ids))
    levels = ([set(a_ids)], [set(b_ids)])
    reads: list[Optional[int]] = [None, None]  # entries each frontier's growth reads
    meet = seen[0] & seen[1]
    while not meet:
        if len(levels[0]) + len(levels[1]) - 2 == max_hops:
            return {}, 0
        for s in (0, 1):
            if reads[s] is None:
                reads[s] = sum(map(degree, levels[s][-1]))
        side = 0 if reads[0] <= reads[1] else 1
        grown = set().union(*map(adjacent, levels[side][-1]))
        grown -= seen[side]
        if not grown:
            return {}, 0
        levels[side].append(grown)
        seen[side].update(grown)
        reads[side] = None
        # No node was seen by both before, so the sets are at least as far
        # apart as the two radii add up to now: a node seen by both sits on
        # the other side's frontier.
        meet = grown & seen[1 - side]
    shortest = len(levels[0]) + len(levels[1]) - 2
    if shortest == 0:
        # A zero-length "path" (shared node) carries no relational evidence.
        return {}, 0
    depth = dict.fromkeys(meet, len(levels[0]) - 1)
    for side in (0, 1):
        layer = meet
        for level in range(len(levels[side]) - 2, -1, -1):
            layer = {u for u in levels[side][level] if not layer.isdisjoint(adjacent(u))}
            depth.update(dict.fromkeys(layer, level if side == 0 else shortest - level))
    return depth, shortest


def _expand_node_path(node_path: Sequence[int], hop_options: Sequence[Sequence[int]]
                      ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One ``(nodes, hop codes)`` path per combination of parallel edges
    along the node path, in ascending order."""
    return list(zip(itertools.repeat(tuple(node_path)), itertools.product(*hop_options)))


def _sample_indices(n: int, k: int, seed: int) -> list[int]:
    """Uniform k-subset of range(n), deterministic in seed, in ascending order."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(n), k))


def _walk(kg: KnowledgeGraph, marked: Sequence[Sequence[int]]
          ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """``(nodes, hop codes)`` of every path that steps from a ``marked[0]``
    node through one ``marked[d]`` node per depth ``d``, in ascending order.

    The walk grows the partial paths one depth at a time.  Each
    ``marked[d]`` is sorted, and the hops out of a node come in (neighbour,
    hop code) order, so extending the ascending partial paths in turn keeps
    them ascending.  Every marked node lies on a path, so no partial path
    dies out.  The hops out of a node onto the next depth are found once per
    node.  From a node with more adjacency entries than the next depth has
    marked nodes, the walk looks up the hops onto each marked node by
    bisection instead of reading the whole adjacency, so a path through a
    hub costs what the hub leads to, not its degree.  A node path whose
    hops each have one code is one path; only one with parallel edges goes
    through :func:`_expand_node_path`.

    A loop, not a nested function that calls itself: such a function's
    closure refers to the function, and that cycle would keep every table
    of the walk alive until the cyclic garbage collector ran.  Here they are
    freed as the walk returns.
    """
    degree, adjacent, hops = kg._degrees, kg._adjacent, kg._hops
    # Each partial path: its nodes, the first code of each hop, and the
    # codes of every hop once one of them has more than one (else None).
    partial = [((u,), (), None) for u in marked[0]]
    for targets in marked[1:]:
        target_set = set(targets)
        steps: dict[int, list[tuple[int, array]]] = {}
        grown = []
        for nodes, codes, options in partial:
            u = nodes[-1]
            out = steps.get(u)
            if out is None:
                out = steps[u] = hops(u, targets if len(targets) < degree[u]
                                      else sorted(target_set.intersection(adjacent(u))))
            for v, hop_codes in out:
                parallel = options
                if options is not None or len(hop_codes) > 1:
                    parallel = (options or tuple((c,) for c in codes)) + (hop_codes,)
                grown.append((nodes + (v,), codes + (hop_codes[0],), parallel))
        partial = grown
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for nodes, codes, options in partial:
        if options is None:
            results.append((nodes, codes))
        else:
            results.extend(_expand_node_path(nodes, options))
    return results


def enumerate_subgraphs(kg: KnowledgeGraph, pair: tuple[str, str], max_hops: int,
                        limit: Optional[int] = None, seed: int = 0) -> list[MetapathSubgraph]:
    """All shortest paths between the pair, ignoring edge direction.

    Only paths of the minimal connecting length are returned, and only when
    that length is within ``max_hops``; a name that no node has has none.
    Parallel edges yield one subgraph per relation/direction combination.
    Results are ordered lexicographically by node-id sequence, then by the
    (label, direction) pairs of the hops; when there are more than
    ``limit``, a seeded uniform sample of that order is taken.

    The search meets in the middle: a breadth-first search from each
    variable's ids, always growing the frontier with fewer adjacency entries,
    stops at the level where the two meet or where their radii reach
    ``max_hops``.  It reads the neighbours of nodes within about half the
    path length of either variable, not of the whole component.  The
    depth-first walk that follows only enters nodes that lie on a shortest
    path, and from a node of higher degree than the next depth has such
    nodes it looks up the hops onto them rather than reading its adjacency.
    Both run on interned ints: the walk lists the paths in order as ``(node
    ints, hop codes)``, whose order is the one above, they are sampled as
    such, and only the paths returned become subgraphs.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    a, b = pair
    a_ids = kg._resolve(a)
    b_ids = kg._resolve(b)

    on_path, shortest = _on_path_depths(kg, a_ids, b_ids, max_hops)
    if not on_path:
        return []
    marked: list[list[int]] = [[] for _ in range(shortest + 1)]
    for v, depth in on_path.items():
        marked[depth].append(v)
    for nodes in marked:
        nodes.sort()
    paths = _walk(kg, marked)
    if limit is not None and len(paths) > limit:
        paths = [paths[i] for i in _sample_indices(len(paths), limit, seed)]
    return [kg._subgraph(nodes, codes) for nodes, codes in paths]


def sample_subgraphs(subgraphs: Sequence[MetapathSubgraph], k: int,
                     seed: int = 0) -> list[MetapathSubgraph]:
    """Uniform sample of at most k subgraphs, preserving input order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(subgraphs) <= k:
        return list(subgraphs)
    return [subgraphs[i] for i in _sample_indices(len(subgraphs), k, seed)]
