"""Knowledge graph loading and subgraph query tests."""

from __future__ import annotations

import itertools
import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import edges, name_index
from kgcausal import kg as kg_module
from kgcausal.errors import KGLoadError
from kgcausal.kg import (
    FORWARD,
    REVERSE,
    EdgeRecord,
    KnowledgeGraph,
    LoadReport,
    MetapathSubgraph,
    NodeRecord,
    enumerate_subgraphs,
    load_kg,
    sample_subgraphs,
)
from kgcausal.synthetic import make_planted_world
from kgcausal.util import read_fields


def jsonl_line(hid, hname, htype, rel, tid, tname, ttype):
    return json.dumps({
        "head": {"id": hid, "name": hname, "type": htype},
        "relation": rel,
        "tail": {"id": tid, "name": tname, "type": ttype},
    })


def write_kg(tmp_path, lines, name="kg.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_duplicate_triples_dropped(self, tmp_path):
        lines = [
            jsonl_line("a", "A", "T", "r1", "b", "B", "T"),
            jsonl_line("b", "B", "T", "r2", "c", "C", "T"),
            jsonl_line("a", "A", "T", "r1", "b", "B", "T"),
        ]
        kg = load_kg(write_kg(tmp_path, lines))
        assert kg.load_report.nodes == 3
        assert kg.load_report.edges == 2
        assert kg.load_report.duplicates_dropped == 1

    def test_parallel_edges_with_distinct_relations_kept(self, tmp_path):
        lines = [
            jsonl_line("a", "A", "T", "r1", "b", "B", "T"),
            jsonl_line("a", "A", "T", "r2", "b", "B", "T"),
        ]
        kg = load_kg(write_kg(tmp_path, lines))
        assert kg.load_report.edges == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        kg = load_kg(path)
        assert kg.load_report.nodes == 0
        assert kg.load_report.edges == 0

    def test_undeclared_endpoint_named_in_error(self, tmp_path):
        lines = [json.dumps({
            "head": {"id": "a", "name": "A", "type": "T"},
            "relation": "r",
            "tail": {"id": "ghost"},
        })]
        with pytest.raises(KGLoadError, match="ghost"):
            load_kg(write_kg(tmp_path, lines))

    def test_malformed_line_reports_line_number(self, tmp_path):
        lines = [jsonl_line("a", "A", "T", "r", "b", "B", "T"), "{not json"]
        with pytest.raises(KGLoadError, match=":2"):
            load_kg(write_kg(tmp_path, lines))

    def test_value_split_across_two_lines_rejected_at_the_first(self, tmp_path):
        """Each line is one JSON value: a triple broken over two lines, both
        malformed on their own, is not joined back together."""
        line = jsonl_line("a", "A", "T", "r", "b", "B", "T")
        cut = line.index('"tail"')
        lines = [line, line[:cut], line[cut:]]
        with pytest.raises(KGLoadError, match=r"kg\.jsonl:2: malformed line"):
            load_kg(write_kg(tmp_path, lines))

    def test_two_values_on_one_line_rejected(self, tmp_path):
        line = jsonl_line("a", "A", "T", "r", "b", "B", "T")
        lines = [line, line + " " + jsonl_line("b", "B", "T", "r", "c", "C", "T")]
        with pytest.raises(KGLoadError, match=r"kg\.jsonl:2: malformed line"):
            load_kg(write_kg(tmp_path, lines))

    def test_id_name_or_type_that_is_not_a_string_rejected(self, tmp_path):
        lines = [jsonl_line("a", "A", "T", "r", "b", "B", "T"),
                 jsonl_line("c", "C", 7, "r", "b", "B", "T")]
        with pytest.raises(KGLoadError, match=r"kg\.jsonl:2: node ids, names and types"):
            load_kg(write_kg(tmp_path, lines))

    def test_first_bad_line_is_named(self, tmp_path):
        """The empty id on line 1 is named, not the later line's conflicting
        redeclaration: the string check runs on each line as it is read."""
        lines = [jsonl_line("", "E", "T", "r", "b", "B", "T"),
                 jsonl_line("a", "A", "T", "r", "b", "B", "T"),
                 jsonl_line("a", "Other", "T", "r", "b", "B", "T")]
        with pytest.raises(KGLoadError,
                           match=r"kg\.jsonl:1: node ids, names and types must be non-empty"):
            load_kg(write_kg(tmp_path, lines))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(KGLoadError, match="nope.jsonl"):
            load_kg(tmp_path / "nope.jsonl")

    def test_conflicting_redeclaration(self, tmp_path):
        lines = [
            jsonl_line("a", "A", "T", "r", "b", "B", "T"),
            jsonl_line("a", "Other", "T", "r", "b", "B", "T"),
        ]
        with pytest.raises(KGLoadError, match="redeclared"):
            load_kg(write_kg(tmp_path, lines))

    @pytest.mark.parametrize("node_rows, edge_rows, line", [
        ([("", "A", "T")], [], jsonl_line("", "A", "T", "r", "b", "B", "T")),
        ([("a", "", "T")], [], jsonl_line("a", "", "T", "r", "b", "B", "T")),
        ([("a", "A", "")], [], jsonl_line("a", "A", "", "r", "b", "B", "T")),
        ([("a", "A", "T"), ("a", "Other", "T")], [],
         jsonl_line("a", "A", "T", "r", "a", "Other", "T")),
        ([("a", "A", "T"), ("b", "B", "T")], [("a", "", "b")],
         jsonl_line("a", "A", "T", "", "b", "B", "T")),
    ], ids=["empty-id", "empty-name", "empty-type", "conflicting-redeclaration",
            "empty-relation"])
    def test_constructor_and_loader_state_each_rule_alike(self, tmp_path, node_rows,
                                                          edge_rows, line):
        """The records and the one-line file break the same node or edge
        rule; the loader's message is the constructor's behind the file and
        line."""
        with pytest.raises(KGLoadError) as built:
            KnowledgeGraph([NodeRecord(*row) for row in node_rows],
                           [EdgeRecord(*row) for row in edge_rows])
        path = write_kg(tmp_path, [line])
        with pytest.raises(KGLoadError) as loaded:
            load_kg(path)
        assert str(loaded.value) == f"{path}:1: {built.value}"

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text(
            "a\tA\tGene\tbinds\tb\tB\tGene\n"
            "b\tB\tGene\tbinds\tc\tC\tDisease\n",
            encoding="utf-8")
        kg = load_kg(path, format="triples-tsv")
        assert kg.load_report.nodes == 3
        assert kg.load_report.edges == 2
        assert kg.nodes[name_index(kg)["c"][0]].node_type == "Disease"

    def test_tsv_bad_field_count(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        with pytest.raises(KGLoadError, match=":1"):
            load_kg(path, format="triples-tsv")

    def test_unknown_format(self, tmp_path):
        path = write_kg(tmp_path, [jsonl_line("a", "A", "T", "r", "b", "B", "T")])
        with pytest.raises(KGLoadError, match="format"):
            load_kg(path, format="turtle")

    def test_name_index_is_case_insensitive_multimap(self, tmp_path):
        lines = [
            jsonl_line("x1", "Shared", "T", "r", "y", "Y", "T"),
            jsonl_line("x2", "shared", "T", "r", "y", "Y", "T"),
        ]
        kg = load_kg(write_kg(tmp_path, lines))
        assert name_index(kg)["shared"] == ("x1", "x2")
        assert [kg._ids[u] for u in kg._resolve("SHARED")] == ["x1", "x2"]


def int_triples(kg, hops):
    """(neighbor id, relation, direction) of each ``(v, hop codes)`` entry
    that ``KnowledgeGraph._hops`` returns."""
    return tuple((kg._ids[v], kg._hop_labels[c], kg_module._DIRECTIONS[c & 1])
                 for v, codes in hops for c in codes)


class TestViews:
    """The string-facing views read back exactly the records the graph was
    built from."""

    def test_views_match_the_records(self):
        rng = random.Random(3)
        for _ in range(30):
            nodes = [NodeRecord(id=f"n{i}", name=rng.choice(["x", "X", f"v{i}"]),
                                node_type=rng.choice("AB"))
                     for i in range(rng.randint(1, 14))]
            records = [EdgeRecord(head=rng.choice(nodes).id,
                                  relation=rng.choice(["r1", "r10", "r2"]),
                                  tail=rng.choice(nodes).id)
                       for _ in range(rng.randint(0, 40))]
            kg = KnowledgeGraph(nodes, records)
            unique = set(records)
            assert edges(kg) == tuple(sorted(unique, key=lambda e: (e.head, e.relation, e.tail)))
            assert kg.load_report == LoadReport(nodes=len(nodes), edges=len(unique),
                                                duplicates_dropped=len(records) - len(unique))
            assert kg.nodes == {node.id: node for node in sorted(nodes, key=lambda n: n.id)}
            names = {}
            for node in sorted(nodes, key=lambda n: n.id):
                names.setdefault(node.name.lower(), []).append(node.id)
            assert name_index(kg) == {name: tuple(ids) for name, ids in names.items()}
            for node in nodes:
                assert [kg._ids[u] for u in kg._resolve(node.name.upper())] == \
                    names[node.name.lower()]
                triples = sorted([(e.tail, e.relation, FORWARD) for e in unique
                                  if e.head == node.id]
                                 + [(e.head, e.relation, REVERSE) for e in unique
                                    if e.tail == node.id])
                assert kg.neighbors(node.id) == tuple(triples)
                u = kg._node_int(node.id)
                assert kg._degrees[u] == len(triples)
                targets = sorted(kg._node_int(other.id) for other in nodes)
                assert int_triples(kg, kg._hops(u, targets)) == tuple(triples)
                for other in nodes:
                    assert int_triples(kg, kg._hops(u, [kg._node_int(other.id)])) == tuple(
                        t for t in triples if t[0] == other.id)
            assert kg.neighbors("absent") == () and kg._node_int("absent") is None

    def test_unique_rows_the_same_packed_or_not(self, monkeypatch):
        """The distinct adjacency rows (node, neighbour, hop code) are sorted
        through one packed int64 key when the key fits, and by np.unique
        when it could not."""
        rng = random.Random(0)
        triples = [(rng.randrange(5), rng.randrange(3), rng.randrange(5)) for _ in range(300)]
        # ids n0..n4 and relations r0..r2 sort in int order
        nodes = [NodeRecord(id=f"n{i}", name=f"v{i}", node_type="T") for i in range(5)]
        edges = [EdgeRecord(head=f"n{h}", relation=f"r{r}", tail=f"n{t}") for h, r, t in triples]
        expected = sorted({(h, t, 2 * r) for h, r, t in triples}
                          | {(t, h, 2 * r + 1) for h, r, t in triples})
        for limit in (kg_module._KEY_LIMIT, 0):
            monkeypatch.setattr(kg_module, "_KEY_LIMIT", limit)
            kg = KnowledgeGraph(nodes, edges)
            offsets = kg._offsets
            assert [(u, v, c) for u in range(5)
                    for v, c in zip(kg._adjacent(u), kg._hop_codes[offsets[u]:offsets[u + 1]])
                    ] == expected
            assert kg.load_report == LoadReport(nodes=5, edges=len(set(triples)),
                                                duplicates_dropped=300 - len(set(triples)))

    def test_undeclared_endpoint_named_in_constructor_error(self):
        with pytest.raises(KGLoadError, match="'ghost'"):
            KnowledgeGraph([NodeRecord(id="a", name="A", node_type="T")],
                           [EdgeRecord(head="a", relation="r", tail="a"),
                            EdgeRecord(head="ghost", relation="r", tail="a")])


def chain_graph(*names, relation="r"):
    nodes = [NodeRecord(id=n.lower(), name=n, node_type="T") for n in names]
    edges = [EdgeRecord(head=names[i].lower(), relation=relation, tail=names[i + 1].lower())
             for i in range(len(names) - 1)]
    return KnowledgeGraph(nodes, edges)


def doubled_chain():
    """a - x - y - b with two relations on every hop: 2**3 = 8 paths over one
    node path."""
    nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "axyb"]
    edges = [EdgeRecord(head=u, relation=rel, tail=v)
             for u, v in ("ax", "xy", "yb") for rel in ("r1", "r2")]
    return KnowledgeGraph(nodes, edges)


def count_expansions(monkeypatch, kg):
    """Count the node paths of ``kg``, as id tuples, that get expanded into
    paths over parallel edges."""
    calls = []
    expand = kg_module._expand_node_path

    def counting(node_path, hop_options):
        calls.append(tuple(kg._ids[u] for u in node_path))
        return expand(node_path, hop_options)

    monkeypatch.setattr(kg_module, "_expand_node_path", counting)
    return calls


def record_adjacency_reads(monkeypatch, methods=("_adjacent", "_hops")):
    """The id of the node whose adjacency each call of the named int-level
    ``KnowledgeGraph`` methods reads, in call order: ``_adjacent`` reads all
    of it, ``_hops`` looks up the entries to given other nodes."""
    nodes = []
    for name in methods:
        method = getattr(KnowledgeGraph, name)

        def recording(self, u, *args, method=method):
            nodes.append(self._ids[u])
            return method(self, u, *args)

        monkeypatch.setattr(KnowledgeGraph, name, recording)
    return nodes


def brute_force_shortest_paths(kg: KnowledgeGraph, a: str, b: str, max_hops: int):
    """Independent oracle: exhaustive DFS over all simple paths, then keep
    the minimal length and expand parallel edge choices."""
    a_ids = set(name_index(kg)[a.lower()])
    b_ids = set(name_index(kg)[b.lower()])
    undirected = {}
    for edge in edges(kg):
        undirected.setdefault(edge.head, set()).add(edge.tail)
        undirected.setdefault(edge.tail, set()).add(edge.head)

    node_paths = []

    def dfs(path):
        u = path[-1]
        if u in b_ids and len(path) > 1:
            node_paths.append(tuple(path))
            return
        if len(path) - 1 >= max_hops:
            return
        for v in sorted(undirected.get(u, ())):
            if v not in path:
                path.append(v)
                dfs(path)
                path.pop()

    for start in sorted(a_ids - b_ids):
        dfs([start])
    if not node_paths:
        return set()
    shortest = min(len(p) - 1 for p in node_paths)
    expected = set()
    for path in node_paths:
        if len(path) - 1 != shortest:
            continue
        hop_choices = [edge_options(kg, u, v) for u, v in zip(path, path[1:])]
        for combo in itertools.product(*hop_choices):
            expected.add((path, tuple(combo)))
    return expected


def edge_options(kg: KnowledgeGraph, u: str, v: str):
    """Every (relation, direction) by which one hop can cross from u to v."""
    options = []
    for edge in edges(kg):
        if edge.head == u and edge.tail == v:
            options.append((edge.relation, FORWARD))
        if edge.head == v and edge.tail == u:
            options.append((edge.relation, REVERSE))
    return options


def random_typed_multigraph(rng: random.Random, n: int = 0) -> KnowledgeGraph:
    """Graph of ``n`` nodes (4 to 10 at random by default) over three node
    types where some names are shared by two ids, and node pairs often carry
    parallel edges in both directions."""
    n = n or rng.randint(4, 10)
    nodes = []
    for i in range(n):
        name = f"v{rng.randrange(i)}" if i and rng.random() < 0.2 else f"v{i}"
        nodes.append(NodeRecord(id=f"n{i}", name=name, node_type=rng.choice("ABC")))
    edges = []
    for _ in range(rng.randint(n, 2 * n)):
        u, v = rng.sample(range(n), 2)
        for _ in range(rng.choice((1, 1, 2, 3))):
            head, tail = (u, v) if rng.random() < 0.7 else (v, u)
            edges.append(EdgeRecord(head=f"n{head}", relation=rng.choice(["r1", "r2", "r3"]),
                                    tail=f"n{tail}"))
    return KnowledgeGraph(nodes, edges)


def as_key_set(subgraphs):
    return {(sg.node_ids, tuple(zip(sg.edge_labels, sg.edge_directions)))
            for sg in subgraphs}


class TestEnumerate:
    def test_chain_single_path(self):
        kg = chain_graph("a", "x", "b")
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=2)
        assert len(found) == 1
        assert found[0].node_names == ("a", "x", "b")
        assert found[0].edge_directions == (FORWARD, FORWARD)

    def test_diamond_two_paths_lexicographic(self):
        nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "axyb"]
        edges = [EdgeRecord(head="a", relation="r", tail="x"),
                 EdgeRecord(head="x", relation="r", tail="b"),
                 EdgeRecord(head="a", relation="r", tail="y"),
                 EdgeRecord(head="y", relation="r", tail="b")]
        kg = KnowledgeGraph(nodes, edges)
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=2, limit=10)
        assert [sg.node_ids for sg in found] == [("a", "x", "b"), ("a", "y", "b")]
        assert as_key_set(found) == brute_force_shortest_paths(kg, "a", "b", 2)

    def test_direct_edge_suppresses_longer_paths(self):
        nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "axyb"]
        edges = [EdgeRecord(head="a", relation="r", tail="x"),
                 EdgeRecord(head="x", relation="r", tail="b"),
                 EdgeRecord(head="a", relation="r", tail="y"),
                 EdgeRecord(head="y", relation="r", tail="b"),
                 EdgeRecord(head="a", relation="direct", tail="b")]
        kg = KnowledgeGraph(nodes, edges)
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=2)
        assert [sg.node_ids for sg in found] == [("a", "b")]
        assert as_key_set(found) == brute_force_shortest_paths(kg, "a", "b", 2)

    def test_reverse_edges_traversed_and_recorded(self):
        nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "axb"]
        edges = [EdgeRecord(head="x", relation="r", tail="a"),
                 EdgeRecord(head="x", relation="s", tail="b")]
        kg = KnowledgeGraph(nodes, edges)
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=2)
        assert len(found) == 1
        assert found[0].edge_directions == (REVERSE, FORWARD)

    def test_no_path_within_hops_is_empty(self):
        kg = chain_graph("a", "x", "y", "z", "b")
        assert enumerate_subgraphs(kg, ("a", "b"), max_hops=3) == []

    def test_pair_in_two_components_reads_no_adjacency(self, monkeypatch):
        nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "abcxyz"]
        edges = [EdgeRecord(head=u, relation="r", tail=v) for u, v in ("ab", "bc", "xy", "yz")]
        kg = KnowledgeGraph(nodes, edges)
        reads = record_adjacency_reads(monkeypatch)
        assert enumerate_subgraphs(kg, ("a", "z"), max_hops=6) == []
        assert reads == []
        assert len(enumerate_subgraphs(kg, ("a", "c"), max_hops=6)) == 1
        assert reads

    @pytest.mark.parametrize("seed", range(40))
    def test_component_labels_are_each_components_least_int(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        nodes = [NodeRecord(id=f"n{i:02d}", name=f"v{i}", node_type="T") for i in range(n)]
        edges = [EdgeRecord(head=f"n{rng.randrange(n):02d}", relation="r",
                            tail=f"n{rng.randrange(n):02d}")
                 for _ in range(rng.randint(0, n))]
        kg = KnowledgeGraph(nodes, edges)
        expected = [0] * n
        for start in range(n - 1, -1, -1):  # ascending ints overwrite last
            seen, frontier = {start}, [start]
            while frontier:
                frontier = [v for u in frontier for v in kg._adjacent(u) if v not in seen]
                seen.update(frontier)
            for u in seen:
                expected[u] = start
        assert list(kg._components) == expected

    def test_unknown_name_has_no_paths(self):
        kg = chain_graph("a", "b")
        assert enumerate_subgraphs(kg, ("a", "ghost"), max_hops=2) == []
        assert enumerate_subgraphs(kg, ("ghost", "b"), max_hops=2) == []
        assert enumerate_subgraphs(kg, ("ghost", "phantom"), max_hops=2) == []

    def test_pair_on_one_node_has_no_paths(self, hetionet_style_kg):
        """Both names resolve to n1: a zero-length path carries no relation."""
        assert enumerate_subgraphs(hetionet_style_kg, ("Aspirin", "aspirin"), max_hops=4) == []

    def test_limit_sampling_is_seed_deterministic(self):
        nodes = [NodeRecord(id="a", name="a", node_type="T"),
                 NodeRecord(id="b", name="b", node_type="T")]
        nodes += [NodeRecord(id=f"m{i}", name=f"m{i}", node_type="T") for i in range(30)]
        edges = []
        for i in range(30):
            edges.append(EdgeRecord(head="a", relation="r", tail=f"m{i}"))
            edges.append(EdgeRecord(head=f"m{i}", relation="r", tail="b"))
        kg = KnowledgeGraph(nodes, edges)
        one = enumerate_subgraphs(kg, ("a", "b"), max_hops=2, limit=5, seed=11)
        two = enumerate_subgraphs(kg, ("a", "b"), max_hops=2, limit=5, seed=11)
        other = enumerate_subgraphs(kg, ("a", "b"), max_hops=2, limit=5, seed=12)
        assert one == two
        assert len(one) == 5
        assert one != other

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for trial in range(25):
            n = rng.randint(4, 18)
            nodes = [NodeRecord(id=f"n{i}", name=f"n{i}", node_type="T") for i in range(n)]
            edges = []
            for _ in range(rng.randint(n, 3 * n)):
                u, v = rng.sample(range(n), 2)
                rel = rng.choice(["r1", "r2", "r3"])
                edges.append(EdgeRecord(head=f"n{u}", relation=rel, tail=f"n{v}"))
            kg = KnowledgeGraph(nodes, edges)
            a, b = (f"n{i}" for i in rng.sample(range(n), 2))
            max_hops = rng.randint(1, 4)
            found = enumerate_subgraphs(kg, (a, b), max_hops=max_hops)
            assert as_key_set(found) == brute_force_shortest_paths(kg, a, b, max_hops), (
                f"trial {trial}: pair ({a}, {b}), max_hops {max_hops}")

    def test_matches_oracle_on_random_multigraphs(self):
        """Shared names give several start and target ids, and parallel edges
        run both ways; graphs reach 30 nodes and max_hops 6."""
        rng = random.Random(11)
        nonempty = 0
        seen_lengths = set()
        for trial in range(120):
            kg = random_typed_multigraph(rng, n=rng.choice((0, rng.randint(11, 30))))
            names = sorted({node.name for node in kg.nodes.values()})
            a, b = rng.sample(names, 2)
            max_hops = rng.randint(1, 6)
            found = enumerate_subgraphs(kg, (a, b), max_hops=max_hops)
            expected = brute_force_shortest_paths(kg, a, b, max_hops)
            assert as_key_set(found) == expected, (
                f"trial {trial}: pair ({a}, {b}), max_hops {max_hops}")
            assert len(found) == len(expected)
            keys = [(sg.node_ids, tuple(zip(sg.edge_labels, sg.edge_directions)))
                    for sg in found]
            assert keys == sorted(keys)
            nonempty += bool(found)
            seen_lengths.update(len(sg) for sg in found)
        assert nonempty >= 60
        assert seen_lengths >= {1, 2, 3, 4}

    @pytest.mark.parametrize("middle, found", [(["x"], 1), (["x", "y", "z"], 0)],
                             ids=["path-within-max-hops", "no-path-within-max-hops"])
    def test_search_stays_within_max_hops_of_the_pair(self, monkeypatch, middle, found):
        """The path search reads the adjacency only of nodes within max_hops
        of either variable, even when a long tail hangs off one of them."""
        tail = [f"t{i}" for i in range(50)]
        kg = chain_graph("a", *middle, "b", *tail)
        expanded = record_adjacency_reads(monkeypatch)
        assert len(enumerate_subgraphs(kg, ("a", "b"), max_hops=2)) == found
        chain = ["a", *middle, "b", *tail]
        hops_to_pair = {v: min(abs(i - chain.index(end)) for end in ("a", "b"))
                        for i, v in enumerate(chain)}
        assert expanded
        assert max(hops_to_pair[v] for v in expanded) <= 2, sorted(
            set(expanded), key=chain.index)

    def test_search_grows_the_smaller_frontier(self, monkeypatch):
        """a - x - b with 50 leaves on a: the search grows the frontier with
        fewer adjacency triples, b's and then x's, and meets at a, so no
        leaf's adjacency is read."""
        kg = KnowledgeGraph(
            [NodeRecord(id=i, name=i, node_type="T")
             for i in ["a", "x", "b", *(f"leaf{j}" for j in range(50))]],
            [EdgeRecord(head="a", relation="r", tail="x"),
             EdgeRecord(head="x", relation="r", tail="b"),
             *(EdgeRecord(head="a", relation="r", tail=f"leaf{j}") for j in range(50))])
        expanded = record_adjacency_reads(monkeypatch)
        assert [sg.node_ids for sg in enumerate_subgraphs(kg, ("a", "b"), max_hops=3)] \
            == [("a", "x", "b")]
        assert set(expanded) == {"a", "x", "b"}

    def test_walk_looks_up_the_hops_out_of_a_hub(self, monkeypatch):
        """a - hub - b with 500 leaves on the hub: neither the search nor the
        walk reads the hub's whole adjacency."""
        leaves = [f"leaf{j:03d}" for j in range(500)]
        kg = KnowledgeGraph(
            [NodeRecord(id=i, name=i, node_type="T") for i in ["a", "hub", "b", *leaves]],
            [EdgeRecord(head="a", relation="r", tail="hub"),
             EdgeRecord(head="hub", relation="s", tail="b"),
             EdgeRecord(head="b", relation="t", tail="hub"),
             *(EdgeRecord(head="hub", relation="r", tail=leaf) for leaf in leaves)])
        full_reads = record_adjacency_reads(monkeypatch, methods=("_adjacent",))
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=3)
        assert as_key_set(found) == brute_force_shortest_paths(kg, "a", "b", 3)
        assert [(sg.edge_labels, sg.edge_directions) for sg in found] == [
            (("r", "s"), (FORWARD, FORWARD)), (("r", "t"), (FORWARD, REVERSE))]
        assert full_reads
        assert "hub" not in full_reads

    def test_parallel_edges_expand_each_node_path_once(self, monkeypatch):
        kg = doubled_chain()
        calls = count_expansions(monkeypatch, kg)
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=3)
        assert calls == [("a", "x", "y", "b")]
        assert len(found) == 8
        assert as_key_set(found) == brute_force_shortest_paths(kg, "a", "b", 3)

    def test_only_node_paths_with_parallel_edges_are_expanded(self, monkeypatch):
        """a - x - b has two relations on its second hop, a - y - b one on
        each: only the first node path goes through the expansion."""
        nodes = [NodeRecord(id=i, name=i, node_type="T") for i in "axyb"]
        edges = [EdgeRecord(head=u, relation=rel, tail=v)
                 for u, v, rel in (("a", "x", "r1"), ("x", "b", "r1"), ("x", "b", "r2"),
                                   ("a", "y", "r1"), ("y", "b", "r1"))]
        kg = KnowledgeGraph(nodes, edges)
        calls = count_expansions(monkeypatch, kg)
        found = enumerate_subgraphs(kg, ("a", "b"), max_hops=2)
        assert calls == [("a", "x", "b")]
        assert [(sg.node_ids, sg.edge_labels) for sg in found] == [
            (("a", "x", "b"), ("r1", "r1")), (("a", "x", "b"), ("r1", "r2")),
            (("a", "y", "b"), ("r1", "r1"))]
        assert as_key_set(found) == brute_force_shortest_paths(kg, "a", "b", 2)

    def test_results_satisfy_subgraph_invariants(self, hetionet_style_kg):
        found = enumerate_subgraphs(hetionet_style_kg, ("Aspirin", "Headache"), max_hops=4)
        assert found
        for sg in found:
            assert sg.node_names[0] == "Aspirin"
            assert sg.node_names[-1] == "Headache"
            assert len(sg.node_types) == len(sg.node_names)
            assert len(sg.edge_labels) == len(sg.node_names) - 1
            assert len(set(sg.node_ids)) == len(sg.node_ids)


class TestSample:
    def _paths(self, count):
        return [MetapathSubgraph(
            node_ids=(f"a{i}", f"b{i}"), node_names=(f"a{i}", f"b{i}"),
            node_types=("T", "T"), edge_labels=("r",), edge_directions=(FORWARD,))
            for i in range(count)]

    def test_identity_when_small(self):
        paths = self._paths(3)
        assert sample_subgraphs(paths, 10) == paths
        paths = self._paths(10)
        assert sample_subgraphs(paths, 10) == paths

    def test_seeded_sample_reproducible_and_order_preserving(self):
        paths = self._paths(100)
        one = sample_subgraphs(paths, 10, seed=1)
        two = sample_subgraphs(paths, 10, seed=1)
        other = sample_subgraphs(paths, 10, seed=2)
        assert one == two
        assert len(one) == 10
        assert one != other
        positions = [paths.index(p) for p in one]
        assert positions == sorted(positions)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            sample_subgraphs(self._paths(3), 0)


class TestMetapathSubgraph:
    @pytest.mark.parametrize("field,value", [
        ("node_ids", ["a", 7]), ("node_names", [7, "b"]), ("node_types", ["T", None]),
        ("edge_labels", [["r"]])])
    def test_item_that_is_not_a_string_rejected(self, field, value):
        fields = {"node_ids": ["a", "b"], "node_names": ["a", "b"], "node_types": ["T", "T"],
                  "edge_labels": ["r"], "edge_directions": [FORWARD], field: value}
        with pytest.raises(ValueError, match=rf"{field}\[\d\] must be a string"):
            read_fields(MetapathSubgraph, fields)


@pytest.mark.parametrize("record", [NodeRecord(id="a", name="A", node_type="T"),
                                    EdgeRecord(head="a", relation="r", tail="b")],
                         ids=["node", "edge"])
def test_graph_record_has_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


@pytest.fixture(scope="module")
def dense_planted():
    """The planted world of 220 pairs with 8 decoys each: 1,980 two-hop paths."""
    world = make_planted_world(n_pairs=220, decoys_per_pair=8, seed=3)
    return world.kg, [(inst.e1, inst.e2) for inst in world.instances]


def enumerate_all(kg, pairs):
    return [enumerate_subgraphs(kg, pair, max_hops=4) for pair in pairs]


class TestSharedPathTuples:
    """Returned paths share their hop and type tuples through per-graph
    tables, which change no path."""

    def test_paths_take_under_320_bytes_each(self, dense_planted):
        kg, pairs = dense_planted
        warm = enumerate_all(kg, pairs)  # fills the graph's tables
        tracemalloc.start()
        try:
            found = enumerate_all(kg, pairs)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        paths = sum(map(len, found))
        assert found == warm and paths == 1980
        assert kept / paths < 320, f"{kept / paths:.0f} B a path"

    def test_paths_with_the_same_hops_share_their_tuples(self, dense_planted):
        kg, pairs = dense_planted
        found = [path for paths in enumerate_all(kg, pairs) for path in paths]
        by_hops, by_types = {}, {}
        for path in found:
            first = by_hops.setdefault((path.edge_labels, path.edge_directions), path)
            assert path.edge_labels is first.edge_labels
            assert path.edge_directions is first.edge_directions
            assert path.node_types is by_types.setdefault(path.node_types, path).node_types
        assert len(by_hops) + len(by_types) < 50

    def test_enumeration_under_threads_equals_serial(self, dense_planted):
        kg, pairs = dense_planted
        expected = enumerate_all(kg, pairs)
        fresh = KnowledgeGraph(kg.nodes.values(), edges(kg))  # empty tables
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: enumerate_all(fresh, pairs), range(8),
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)

    def test_full_tables_change_no_path(self, monkeypatch):
        rng = random.Random(12)
        graphs = [random_typed_multigraph(rng, n=10) for _ in range(8)]
        queries = [(pair, max_hops) for max_hops in (2, 4)
                   for pair in itertools.permutations([f"v{i}" for i in range(10)], 2)]

        def paths(kg):
            return [[path.to_dict() for path in enumerate_subgraphs(kg, pair, max_hops)]
                    for pair, max_hops in queries]

        expected = [paths(kg) for kg in graphs]
        monkeypatch.setattr(kg_module, "_SHARED_LIMIT", 1)
        for kg, before in zip(graphs, expected):
            fresh = KnowledgeGraph(kg.nodes.values(), edges(kg))
            assert paths(fresh) == before
            assert len(fresh._shared_hops) == len(fresh._shared_types) == 1
