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
strings sort.  No edge list or per-node tuple is kept: ``nodes``, ``edges``
(in sorted head, relation, tail order), ``neighbors`` and ``name_index``
are built when asked for.  Search and walk run on the ints, and a
:class:`MetapathSubgraph` is built only for each path returned.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import math
import random
from array import array
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import KGLoadError, NoSuchNodeError

logger = logging.getLogger(__name__)

FORWARD = "forward"
REVERSE = "reverse"
_DIRECTIONS = (FORWARD, REVERSE)  # indexed by the low bit of a hop code

FORMAT_JSONL = "triples-jsonl"
FORMAT_TSV = "triples-tsv"


@dataclass(frozen=True)
class NodeRecord:
    """A single entity: opaque id, display name, and a type label."""

    id: str
    name: str
    node_type: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("node id must be non-empty")
        if not self.name or not self.node_type:
            raise ValueError(f"node {self.id!r}: name and node_type must be non-empty")


@dataclass(frozen=True)
class EdgeRecord:
    """A directed labeled edge between two node ids."""

    head: str
    relation: str
    tail: str

    def __post_init__(self):
        if not self.relation:
            raise ValueError(f"edge {self.head!r}->{self.tail!r}: relation must be non-empty")


@dataclass(frozen=True)
class MetapathSubgraph:
    """A simple path between a variable pair.

    Carries the node id / name / type sequences plus the label and crossing
    direction of every hop.  The first node is always the first variable of
    the query pair and the last node the second.
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

    def sort_key(self):
        return (self.node_ids, tuple(zip(self.edge_labels, self.edge_directions)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetapathSubgraph":
        return cls(
            node_ids=tuple(d["node_ids"]),
            node_names=tuple(d["node_names"]),
            node_types=tuple(d["node_types"]),
            edge_labels=tuple(d["edge_labels"]),
            edge_directions=tuple(d["edge_directions"]),
        )


@dataclass(frozen=True)
class LoadReport:
    """Counts reported by a graph load."""

    nodes: int
    edges: int
    duplicates_dropped: int


class _Interner:
    """Node ids and relations numbered in order of first appearance, the
    (name, type) each node is declared with (None until it is), and the
    edges as columns of those numbers."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self.ids: list[str] = []
        self.declared: list[Optional[tuple[str, str]]] = []
        self.types: dict[str, str] = {}  # one str object per type
        self.relations: dict[str, int] = {}
        self.heads, self.relation_ids, self.tails = array("q"), array("q"), array("q")

    def node(self, node_id: str) -> int:
        i = self.index.get(node_id)
        if i is None:
            i = self.index[node_id] = len(self.ids)
            self.ids.append(node_id)
            self.declared.append(None)
        return i

    def declare(self, node_id: str, name: str, node_type: str) -> bool:
        """False when ``node_id`` is already declared with another name or type."""
        i = self.node(node_id)
        if self.declared[i] is None:
            self.declared[i] = (name, self.types.setdefault(node_type, node_type))
        return self.declared[i] == (name, node_type)

    def edge(self, head: str, relation: str, tail: str) -> None:
        self.heads.append(self.node(head))
        self.relation_ids.append(self.relations.setdefault(relation, len(self.relations)))
        self.tails.append(self.node(tail))


def _sorted_ranks(keys: Sequence[str]) -> tuple[list[int], np.ndarray]:
    """``(order, rank)``: the indices of ``keys`` in sorted key order, and
    each index's position in that order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys))
    return order, rank


def _unique_rows(columns: Sequence[np.ndarray], bounds: Sequence[int]) -> list[np.ndarray]:
    """The distinct rows of ``columns``, each column's values below its
    bound, in ascending order with the first column most significant.  When
    the bounds allow, each row is packed into one int64 key and the keys are
    sorted by value, many times faster than ``np.lexsort``."""
    if math.prod(bounds) >= 2 ** 63:
        return list(np.unique(np.stack(columns, axis=1), axis=0).T)
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column, bound in zip(columns, bounds):
        key = key * bound + column
    key.sort()
    key = key[np.diff(key, prepend=-1) != 0]
    rows = []
    for bound in bounds[:0:-1]:
        key, column = np.divmod(key, bound)
        rows.append(column)
    return [key, *rows[::-1]]


class KnowledgeGraph:
    """Typed, directed, relation-labeled multigraph; read-only after load.

    ``name_index`` maps lowercased names to node ids (a multimap: name
    collisions keep every id).  Safe to share across threads once
    constructed.
    """

    def __init__(self, nodes: Iterable[NodeRecord], edges: Iterable[EdgeRecord]):
        interned = _Interner()
        for node in nodes:
            if not interned.declare(node.id, node.name, node.node_type):
                raise KGLoadError(
                    f"node id {node.id!r} declared twice with conflicting name/type")
        for edge in edges:
            interned.edge(edge.head, edge.relation, edge.tail)
        self._build(interned)

    @classmethod
    def _from_interned(cls, interned: _Interner) -> "KnowledgeGraph":
        graph = cls.__new__(cls)
        graph._build(interned)
        return graph

    def _build(self, interned: _Interner) -> None:
        declared = np.array([d is not None for d in interned.declared], dtype=bool)
        heads, relations, tails = (np.frombuffer(a, dtype=np.int64) for a in
                                   (interned.heads, interned.relation_ids, interned.tails))
        undeclared = ~declared[heads] | ~declared[tails]
        if undeclared.any():
            k = int(np.argmax(undeclared))
            endpoint = heads[k] if not declared[heads[k]] else tails[k]
            raise KGLoadError(
                f"edge endpoint references undeclared node id {interned.ids[endpoint]!r}")

        order, node_rank = _sorted_ranks(interned.ids)
        self._ids = [interned.ids[i] for i in order]
        self._names = [interned.declared[i][0] for i in order]
        self._types = [interned.declared[i][1] for i in order]
        relation_strings = list(interned.relations)
        order, relation_rank = _sorted_ranks(relation_strings)
        self._relations = [relation_strings[i] for i in order]
        self._hop_labels = [rel for rel in self._relations for _ in _DIRECTIONS]

        # One entry at each end of every edge, sorted by (node, neighbour,
        # hop code); a repeated triple repeats both of its entries.
        n = len(self._ids)
        h, r, t = node_rank[heads], relation_rank[relations], node_rank[tails]
        source, neighbour, hop = _unique_rows(
            (np.concatenate((h, t)), np.concatenate((t, h)), np.concatenate((2 * r, 2 * r + 1))),
            (n, n, len(self._hop_labels)))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=n), out=offsets[1:])
        self._offsets = array("q", offsets.tobytes())
        self._degrees = array("q", np.diff(offsets).tobytes())
        self._neighbours = array("i", neighbour.astype(np.int32).tobytes())
        self._hop_codes = array("i", hop.astype(np.int32).tobytes())

        # Lowercased names in sorted order, ties in id order, for resolve().
        lowered = [name.lower() for name in self._names]
        lowered = [low if low != name else name for low, name in zip(lowered, self._names)]
        by_name = sorted(range(len(lowered)), key=lowered.__getitem__)
        self._lowered_names = [lowered[i] for i in by_name]
        self._by_name = array("i", by_name)

        self.load_report = LoadReport(nodes=n, edges=len(source) // 2,
                                      duplicates_dropped=len(heads) - len(source) // 2)

    # -- string-facing views ------------------------------------------------

    @property
    def nodes(self) -> dict[str, NodeRecord]:
        return {i: NodeRecord(id=i, name=name, node_type=node_type)
                for i, name, node_type in zip(self._ids, self._names, self._types)}

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """Every edge once, in sorted (head, relation, tail) order."""
        ids, offsets = self._ids, self._offsets
        return tuple(EdgeRecord(head=ids[u], relation=self._hop_labels[c], tail=ids[v])
                     for u in range(len(ids))
                     for c, v in sorted(zip(self._hop_codes[offsets[u]:offsets[u + 1]],
                                            self._neighbours[offsets[u]:offsets[u + 1]]))
                     if not c & 1)

    @property
    def name_index(self) -> dict[str, tuple[str, ...]]:
        index: dict[str, tuple[str, ...]] = {}
        for name, u in zip(self._lowered_names, self._by_name):
            index[name] = index.get(name, ()) + (self._ids[u],)
        return index

    def node(self, node_id: str) -> NodeRecord:
        u = self._node_int(node_id)
        if u is None:
            raise KeyError(node_id)
        return NodeRecord(id=node_id, name=self._names[u], node_type=self._types[u])

    def neighbors(self, node_id: str) -> tuple[tuple[str, str, str], ...]:
        """(neighbor id, relation, direction) triples, sorted."""
        u = self._node_int(node_id)
        if u is None:
            return ()
        first, end = self._offsets[u], self._offsets[u + 1]
        return tuple((self._ids[v], self._hop_labels[c], _DIRECTIONS[c & 1])
                     for v, c in zip(self._neighbours[first:end], self._hop_codes[first:end]))

    def resolve(self, name: str) -> tuple[str, ...]:
        """All node ids whose name matches case-insensitively."""
        return tuple(self._ids[u] for u in self._resolve(name))

    # -- the int core -------------------------------------------------------

    def _node_int(self, node_id: str) -> Optional[int]:
        u = bisect.bisect_left(self._ids, node_id)
        return u if u < len(self._ids) and self._ids[u] == node_id else None

    def _resolve(self, name: str) -> array:
        """The ints of the nodes named ``name``, case-insensitively, ascending."""
        key = name.lower()
        first = bisect.bisect_left(self._lowered_names, key)
        last = bisect.bisect_right(self._lowered_names, key, first)
        if first == last:
            raise NoSuchNodeError(f"no node named {name!r}")
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
        """The subgraph of a path of at least two nodes, given as ints."""
        take = itemgetter(*nodes)
        return MetapathSubgraph(
            node_ids=take(self._ids),
            node_names=take(self._names),
            node_types=take(self._types),
            edge_labels=tuple([self._hop_labels[c] for c in codes]),
            edge_directions=tuple([_DIRECTIONS[c & 1] for c in codes]),
        )


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
            relation = obj.get("relation")
            if not relation or not isinstance(relation, str):
                raise KGLoadError(f"{path}:{lineno}: relation must be a non-empty string")
            where = (path, lineno)
            yield (where, _parse_endpoint(obj["head"], where), relation,
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
            if not relation:
                raise KGLoadError(f"{path}:{lineno}: relation must be non-empty")
            yield ((path, lineno), (head_id, head_name or None, head_type or None), relation,
                   (tail_id, tail_name or None, tail_type or None))


_TRIPLE_READERS = {FORMAT_JSONL: _jsonl_triples, FORMAT_TSV: _tsv_triples}


def load_kg(path, format: str = FORMAT_JSONL) -> KnowledgeGraph:
    """Load a graph snapshot; the result is immutable.

    Endpoints may be bare id references as long as the id is declared with
    name and type somewhere in the file; the graph raises
    :class:`KGLoadError` naming an id that is only ever referenced.  Ids,
    names and types are interned as the lines are read.
    """
    path = Path(path)
    if not path.exists():
        raise KGLoadError(f"knowledge graph file not found: {path}")
    if format not in _TRIPLE_READERS:
        raise KGLoadError(f"unknown KG file format {format!r}")

    interned = _Interner()
    # An id, name or type that is not a string is reported once every line
    # has passed the checks above it, so those keep their line numbers.
    not_string = None
    for where, head, relation, tail in _TRIPLE_READERS[format](path):
        unhashable = False
        for node_id, name, node_type in (head, tail):
            if not (node_id and isinstance(node_id, str) and isinstance(name, _OPTIONAL_STR)
                    and isinstance(node_type, _OPTIONAL_STR)):
                not_string = not_string or where
                if isinstance(node_id, (list, dict)):
                    unhashable = True
                    continue
            if name is None and node_type is None:
                continue
            if not name or not node_type:
                raise KGLoadError("%s:%d: node %r needs both name and type"
                                  % (*where, node_id))
            if not interned.declare(node_id, name, node_type):
                raise KGLoadError("%s:%d: node id %r redeclared with conflicting name/type"
                                  % (*where, node_id))
        if not unhashable:
            interned.edge(head[0], relation, tail[0])
    if not_string is not None:
        raise KGLoadError("%s:%d: node ids, names and types must be non-empty strings"
                          % not_string)

    graph = KnowledgeGraph._from_interned(interned)
    logger.info("loaded %s: %d nodes, %d edges, %d duplicate triples dropped",
                path, graph.load_report.nodes, graph.load_report.edges,
                graph.load_report.duplicates_dropped)
    return graph


def _on_path_depths(kg: KnowledgeGraph, a_ids: Sequence[int], b_ids: Sequence[int],
                    max_hops: int) -> tuple[dict[int, int], int]:
    """``(depth, shortest)``: the length of the shortest undirected paths from
    an ``a_ids`` node to a ``b_ids`` node, and the distance from ``a_ids`` of
    every node on one of them.  ``({}, 0)`` when the sets share a node or no
    path is within ``max_hops``.

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

    Each ``marked[d]`` is sorted, and the hops out of a node come in
    (neighbour, hop code) order, so the depth-first walk meets the paths in
    ascending order.  The hops out of a node onto the next depth are found
    once per node.  From a node with more adjacency entries
    than the next depth has marked nodes, the walk looks up the hops onto
    each marked node by bisection instead of reading the whole adjacency,
    so a path through a hub costs what the hub leads to, not its degree.
    """
    n_hops = len(marked) - 1
    marked_sets = [set(nodes) for nodes in marked]
    steps: dict[int, list[tuple[int, array]]] = {}
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    path = [0] * (n_hops + 1)
    options: list[Optional[array]] = [None] * n_hops

    def steps_from(u: int, depth: int) -> list[tuple[int, array]]:
        targets = marked[depth + 1]
        if len(targets) >= kg._degrees[u]:
            targets = sorted(marked_sets[depth + 1].intersection(kg._adjacent(u)))
        return kg._hops(u, targets)

    def extend(u: int, depth: int) -> None:
        out = steps.get(u)
        if out is None:
            out = steps[u] = steps_from(u, depth)
        for v, codes in out:
            path[depth + 1] = v
            options[depth] = codes
            if depth + 1 == n_hops:
                results.extend(_expand_node_path(path, options))
            else:
                extend(v, depth + 1)

    for start in marked[0]:
        path[0] = start
        extend(start, 0)
    return results


def enumerate_subgraphs(kg: KnowledgeGraph, pair: tuple[str, str], max_hops: int,
                        limit: Optional[int] = None, seed: int = 0) -> list[MetapathSubgraph]:
    """All shortest paths between the pair, ignoring edge direction.

    Only paths of the minimal connecting length are returned, and only when
    that length is within ``max_hops``.  Parallel edges yield one subgraph
    per relation/direction combination.  Results are ordered
    lexicographically by node-id sequence (then hop labels); when there are
    more than ``limit``, a seeded uniform sample of that order is taken.

    The search meets in the middle: a breadth-first search from each
    variable's ids, always growing the frontier with fewer adjacency entries,
    stops at the level where the two meet or where their radii reach
    ``max_hops``.  It reads the neighbours of nodes within about half the
    path length of either variable, not of the whole component.  The
    depth-first walk that follows only enters nodes that lie on a shortest
    path, and from a node of higher degree than the next depth has such
    nodes it looks up the hops onto them rather than reading its adjacency.
    Both run on interned ints: the walk lists the paths in order as ``(node
    ints, hop codes)``, whose order is that of ``MetapathSubgraph.sort_key``,
    they are sampled as such, and only the paths returned become subgraphs.
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
