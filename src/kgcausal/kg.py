"""In-memory knowledge graph store with metapath subgraph queries.

Graphs are loaded from snapshot files (JSON Lines or TSV triples) and are
immutable afterwards.  Traversal treats edges as undirected but every hop
records the direction in which the underlying edge was crossed, so that
verbalization can reproduce the original orientation.
"""

from __future__ import annotations

import bisect
import itertools
import json
import logging
import random
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .errors import KGLoadError, NoSuchNodeError

logger = logging.getLogger(__name__)

FORWARD = "forward"
REVERSE = "reverse"

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


class KnowledgeGraph:
    """Typed, directed, relation-labeled multigraph; read-only after load.

    ``name_index`` maps lowercased names to node ids (a multimap: name
    collisions keep every id).  Safe to share across threads once
    constructed.
    """

    def __init__(self, nodes: Iterable[NodeRecord], edges: Iterable[EdgeRecord]):
        node_map: dict[str, NodeRecord] = {}
        for node in nodes:
            if node.id in node_map and node_map[node.id] != node:
                raise KGLoadError(
                    f"node id {node.id!r} declared twice with conflicting name/type")
            node_map[node.id] = node

        seen: set[tuple[str, str, str]] = set()
        edge_list: list[EdgeRecord] = []
        duplicates_dropped = 0
        for edge in edges:
            for endpoint in (edge.head, edge.tail):
                if endpoint not in node_map:
                    raise KGLoadError(f"edge endpoint references undeclared node id {endpoint!r}")
            key = (edge.head, edge.relation, edge.tail)
            if key in seen:
                duplicates_dropped += 1
                continue
            seen.add(key)
            edge_list.append(edge)

        self._nodes = node_map
        self._edges = tuple(edge_list)

        name_index: dict[str, list[str]] = {}
        for node in node_map.values():
            name_index.setdefault(node.name.lower(), []).append(node.id)
        self._name_index = {k: tuple(sorted(v)) for k, v in name_index.items()}

        # Undirected adjacency; each entry remembers the crossing direction.
        adj: dict[str, list[tuple[str, str, str]]] = {}
        for edge in edge_list:
            adj.setdefault(edge.head, []).append((edge.tail, edge.relation, FORWARD))
            adj.setdefault(edge.tail, []).append((edge.head, edge.relation, REVERSE))
        self._adjacency = {k: tuple(sorted(v)) for k, v in adj.items()}

        self.load_report = LoadReport(
            nodes=len(node_map), edges=len(edge_list), duplicates_dropped=duplicates_dropped)

    @property
    def nodes(self) -> dict[str, NodeRecord]:
        return dict(self._nodes)

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        return self._edges

    @property
    def name_index(self) -> dict[str, tuple[str, ...]]:
        return dict(self._name_index)

    def node(self, node_id: str) -> NodeRecord:
        return self._nodes[node_id]

    def neighbors(self, node_id: str) -> tuple[tuple[str, str, str], ...]:
        """(neighbor id, relation, direction) triples, sorted."""
        return self._adjacency.get(node_id, ())

    def degree(self, node_id: str) -> int:
        """The number of :meth:`neighbors` triples, without reading them."""
        return len(self._adjacency.get(node_id, ()))

    def hops(self, node_id: str, other: str) -> tuple[tuple[str, str, str], ...]:
        """The :meth:`neighbors` triples of ``node_id`` that lead to ``other``,
        found by bisection in the sorted adjacency; empty when the two are
        not adjacent."""
        adjacency = self._adjacency.get(node_id, ())
        first = bisect.bisect_left(adjacency, (other,))
        last = first
        while last < len(adjacency) and adjacency[last][0] == other:
            last += 1
        return adjacency[first:last]

    def resolve(self, name: str) -> tuple[str, ...]:
        """All node ids whose name matches case-insensitively."""
        ids = self._name_index.get(name.lower())
        if not ids:
            raise NoSuchNodeError(f"no node named {name!r}")
        return ids


def _parse_endpoint(raw, where: str) -> tuple[str, Optional[str], Optional[str]]:
    """(id, name, type); name and type are None when the JSON omits them."""
    if isinstance(raw, str):
        return raw, None, None
    if isinstance(raw, dict) and "id" in raw:
        return raw["id"], raw.get("name"), raw.get("type")
    raise KGLoadError(f"{where}: endpoint must be an id string or an object with 'id'")


def _jsonl_triples(path: Path):
    """(location, head, relation, tail) per line; endpoints as in _parse_endpoint."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise KGLoadError(f"{where}: malformed line: {exc.msg}") from exc
            if not isinstance(obj, dict) or "head" not in obj or "tail" not in obj:
                raise KGLoadError(f"{where}: each line needs head, relation, tail")
            relation = obj.get("relation")
            if not relation or not isinstance(relation, str):
                raise KGLoadError(f"{where}: relation must be a non-empty string")
            yield (where, _parse_endpoint(obj["head"], where), relation,
                   _parse_endpoint(obj["tail"], where))


def _tsv_triples(path: Path):
    """Same rows as _jsonl_triples; an empty name or type field counts as absent."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            fields = line.split("\t")
            if len(fields) != 7:
                raise KGLoadError(
                    f"{where}: malformed line: expected 7 tab-separated fields, "
                    f"got {len(fields)}")
            head_id, head_name, head_type, relation, tail_id, tail_name, tail_type = fields
            if not relation:
                raise KGLoadError(f"{where}: relation must be non-empty")
            yield (where, (head_id, head_name or None, head_type or None), relation,
                   (tail_id, tail_name or None, tail_type or None))


_TRIPLE_READERS = {FORMAT_JSONL: _jsonl_triples, FORMAT_TSV: _tsv_triples}


def load_kg(path, format: str = FORMAT_JSONL) -> KnowledgeGraph:
    """Load a graph snapshot; the result is immutable.

    Endpoints may be bare id references as long as the id is declared with
    name and type somewhere in the file; the graph raises
    :class:`KGLoadError` naming an id that is only ever referenced.
    """
    path = Path(path)
    if not path.exists():
        raise KGLoadError(f"knowledge graph file not found: {path}")
    if format not in _TRIPLE_READERS:
        raise KGLoadError(f"unknown KG file format {format!r}")

    declared: dict[str, tuple[str, str]] = {}
    edges: list[EdgeRecord] = []
    for where, head, relation, tail in _TRIPLE_READERS[format](path):
        for node_id, name, node_type in (head, tail):
            if name is None and node_type is None:
                continue
            if not name or not node_type:
                raise KGLoadError(f"{where}: node {node_id!r} needs both name and type")
            prev = declared.get(node_id)
            if prev is not None and prev != (name, node_type):
                raise KGLoadError(
                    f"{where}: node id {node_id!r} redeclared with conflicting name/type")
            declared[node_id] = (name, node_type)
        edges.append(EdgeRecord(head=head[0], relation=relation, tail=tail[0]))

    nodes = [NodeRecord(id=i, name=n, node_type=t) for i, (n, t) in sorted(declared.items())]
    graph = KnowledgeGraph(nodes, edges)
    logger.info("loaded %s: %d nodes, %d edges, %d duplicate triples dropped",
                path, graph.load_report.nodes, graph.load_report.edges,
                graph.load_report.duplicates_dropped)
    return graph


def _on_path_depths(kg: KnowledgeGraph, a_ids: Sequence[str], b_ids: Sequence[str],
                    max_hops: int) -> tuple[dict[str, int], int]:
    """``(depth, shortest)``: the length of the shortest undirected paths from
    an ``a_ids`` node to a ``b_ids`` node, and the distance from ``a_ids`` of
    every node on one of them.  ``({}, 0)`` when the sets share a node or no
    path is within ``max_hops``.

    A level-synchronous breadth-first search runs from both sets, expanding
    one level at a time the frontier with fewer adjacency triples to read,
    and stops at the first level where the frontiers meet (Pohl, 1971) or
    once the two radii add up to ``max_hops``; the order of expansion
    changes the cost, not the result.  Every shortest path crosses a
    meeting node.  Walking back, a node of a side's level ``i - 1`` is on a
    path when it neighbours one found on level ``i``; this reads only the
    adjacency of nodes the search has already expanded, never that of the
    (often high-degree) meeting nodes.
    """
    seen = (set(a_ids), set(b_ids))
    levels = ([list(a_ids)], [list(b_ids)])
    reads: list[Optional[int]] = [None, None]  # triples each frontier's growth reads
    meet = [v for v in a_ids if v in seen[1]]
    while not meet:
        if len(levels[0]) + len(levels[1]) - 2 == max_hops:
            return {}, 0
        for s in (0, 1):
            if reads[s] is None:
                reads[s] = sum(map(kg.degree, levels[s][-1]))
        side = 0 if reads[0] <= reads[1] else 1
        grown = []
        for u in levels[side][-1]:
            for v, _rel, _direction in kg.neighbors(u):
                if v not in seen[side]:
                    seen[side].add(v)
                    grown.append(v)
        if not grown:
            return {}, 0
        levels[side].append(grown)
        reads[side] = None
        # No node was seen by both before, so the sets are at least as far
        # apart as the two radii add up to now: a node seen by both sits on
        # the other side's frontier.
        meet = [v for v in grown if v in seen[1 - side]]
    shortest = len(levels[0]) + len(levels[1]) - 2
    if shortest == 0:
        # A zero-length "path" (shared node) carries no relational evidence.
        return {}, 0
    depth = dict.fromkeys(meet, len(levels[0]) - 1)
    for side in (0, 1):
        layer = set(meet)
        for level in range(len(levels[side]) - 2, -1, -1):
            layer = {u for u in levels[side][level]
                     if any(v in layer for v, _rel, _direction in kg.neighbors(u))}
            depth.update(dict.fromkeys(layer, level if side == 0 else shortest - level))
    return depth, shortest


def _expand_node_path(kg: KnowledgeGraph, id_path: Sequence[str],
                      hop_options: Sequence[Sequence[tuple[str, str]]]) -> list[MetapathSubgraph]:
    """One subgraph per combination of parallel edges along the node path."""
    names = tuple(kg.node(i).name for i in id_path)
    types = tuple(kg.node(i).node_type for i in id_path)
    out = []
    for combo in itertools.product(*hop_options):
        out.append(MetapathSubgraph(
            node_ids=tuple(id_path),
            node_names=names,
            node_types=types,
            edge_labels=tuple(rel for rel, _ in combo),
            edge_directions=tuple(direction for _, direction in combo),
        ))
    return out


def _sample_indices(n: int, k: int, seed: int) -> list[int]:
    """Uniform k-subset of range(n), deterministic in seed, in ascending order."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(n), k))


def _walk(kg: KnowledgeGraph, starts: Iterable[str], targets: set[str], n_hops: int,
          admit: Callable, marked: Optional[Sequence[Sequence[str]]] = None
          ) -> list[MetapathSubgraph]:
    """Subgraphs of every simple ``n_hops``-hop path from a start to a target.

    Parallel edges sit side by side in the sorted adjacency, so each neighbour
    ``v`` is visited once, with ``hops`` yielding all of its adjacency triples.
    ``admit(depth, v, hops)`` returns the (relation, direction) options of the
    hop onto ``v`` at path position ``depth``, or nothing to prune ``v``.

    ``marked[depth]``, when given, holds in sorted order every node that
    ``admit`` can accept at ``depth``.  From a node with more adjacency
    triples than the next depth has marked nodes, the walk then looks up the
    hops onto each marked node instead of reading the whole adjacency, so a
    path through a hub costs what the hub leads to, not its degree.
    """
    results: list[MetapathSubgraph] = []
    path: list[str] = []
    options: list[list[tuple[str, str]]] = []

    def steps(u: str, depth: int):
        if marked is not None and len(marked[depth]) < kg.degree(u):
            return ((v, kg.hops(u, v)) for v in marked[depth])
        return itertools.groupby(kg.neighbors(u), key=itemgetter(0))

    def extend(u: str, depth: int):
        if depth == n_hops:
            if u in targets:
                results.extend(_expand_node_path(kg, path, options))
            return
        for v, hops in steps(u, depth + 1):
            hop = admit(depth + 1, v, hops)
            if hop and v not in path:
                path.append(v)
                options.append(hop)
                extend(v, depth + 1)
                path.pop()
                options.pop()

    for start in starts:
        path[:] = [start]
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
    variable's ids, always growing the frontier with fewer adjacency triples,
    stops at the level where the two meet or where their radii reach
    ``max_hops``.  It reads the neighbours of nodes within about half the
    path length of either variable, not of the whole component.  The
    depth-first walk that follows only enters nodes that lie on a shortest
    path, and from a node of higher degree than the next depth has such
    nodes it looks up the hops onto them rather than reading its adjacency.
    """
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    a, b = pair
    a_ids = kg.resolve(a)
    b_ids = kg.resolve(b)

    on_path, shortest = _on_path_depths(kg, a_ids, b_ids, max_hops)
    if not on_path:
        return []

    def admit(depth, v, hops):
        if on_path.get(v) != depth:
            return None
        return [(rel, direction) for _v, rel, direction in hops]

    marked = [sorted(v for v, d in on_path.items() if d == depth)
              for depth in range(shortest + 1)]
    starts = [s for s in a_ids if on_path.get(s) == 0]
    results = _walk(kg, starts, set(b_ids), shortest, admit, marked)
    ordered = sorted(results, key=MetapathSubgraph.sort_key)
    if limit is not None and len(ordered) > limit:
        ordered = [ordered[i] for i in _sample_indices(len(ordered), limit, seed)]
    return ordered


def pattern_query(kg: KnowledgeGraph, pair: tuple[str, str], type_pattern: Sequence[str],
                  relation_pattern: Optional[Sequence[str]] = None) -> list[MetapathSubgraph]:
    """All simple paths whose node-type sequence equals ``type_pattern``.

    Edge direction is ignored for matching; when ``relation_pattern`` is
    given, hop ``i`` must carry exactly that relation label.  Results are in
    lexicographic node-id order.
    """
    if len(type_pattern) < 2:
        raise ValueError("type_pattern must name at least two node types")
    if relation_pattern is not None and len(relation_pattern) != len(type_pattern) - 1:
        raise ValueError("relation_pattern must have one entry per hop")
    a, b = pair
    a_ids = [i for i in kg.resolve(a) if kg.node(i).node_type == type_pattern[0]]
    b_id_set = {i for i in kg.resolve(b) if kg.node(i).node_type == type_pattern[-1]}
    if not a_ids or not b_id_set:
        return []

    def admit(depth, v, hops):
        if kg.node(v).node_type != type_pattern[depth]:
            return None
        wanted = None if relation_pattern is None else relation_pattern[depth - 1]
        return [(rel, direction) for _v, rel, direction in hops if wanted in (None, rel)]

    results = _walk(kg, a_ids, b_id_set, len(type_pattern) - 1, admit)
    return sorted(results, key=MetapathSubgraph.sort_key)


def sample_subgraphs(subgraphs: Sequence[MetapathSubgraph], k: int,
                     seed: int = 0) -> list[MetapathSubgraph]:
    """Uniform sample of at most k subgraphs, preserving input order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(subgraphs) <= k:
        return list(subgraphs)
    return [subgraphs[i] for i in _sample_indices(len(subgraphs), k, seed)]
