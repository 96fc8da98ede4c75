"""Knowledge graph loading and subgraph query tests."""

from __future__ import annotations

import itertools
import json
import random

import numpy as np
import pytest

from kgcausal import kg as kg_module
from kgcausal.errors import KGLoadError, NoSuchNodeError
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

    def test_line_checks_come_before_the_string_check(self, tmp_path):
        """A later line's conflicting redeclaration is named, not the earlier
        empty id, as when the empty id was caught only once the file was read."""
        lines = [jsonl_line("", "E", "T", "r", "b", "B", "T"),
                 jsonl_line("a", "A", "T", "r", "b", "B", "T"),
                 jsonl_line("a", "Other", "T", "r", "b", "B", "T")]
        with pytest.raises(KGLoadError, match=r"kg\.jsonl:3: node id 'a' redeclared"):
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

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text(
            "a\tA\tGene\tbinds\tb\tB\tGene\n"
            "b\tB\tGene\tbinds\tc\tC\tDisease\n",
            encoding="utf-8")
        kg = load_kg(path, format="triples-tsv")
        assert kg.load_report.nodes == 3
        assert kg.load_report.edges == 2
        assert kg.node(kg.resolve("c")[0]).node_type == "Disease"

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
        assert kg.resolve("SHARED") == ("x1", "x2")


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
            edges = [EdgeRecord(head=rng.choice(nodes).id, relation=rng.choice(["r1", "r10", "r2"]),
                                tail=rng.choice(nodes).id)
                     for _ in range(rng.randint(0, 40))]
            kg = KnowledgeGraph(nodes, edges)
            unique = set(edges)
            assert kg.edges == tuple(sorted(unique, key=lambda e: (e.head, e.relation, e.tail)))
            assert kg.load_report == LoadReport(nodes=len(nodes), edges=len(unique),
                                                duplicates_dropped=len(edges) - len(unique))
            assert kg.nodes == {node.id: node for node in sorted(nodes, key=lambda n: n.id)}
            names = {}
            for node in sorted(nodes, key=lambda n: n.id):
                names.setdefault(node.name.lower(), []).append(node.id)
            assert kg.name_index == {name: tuple(ids) for name, ids in names.items()}
            for node in nodes:
                assert kg.resolve(node.name.upper()) == tuple(names[node.name.lower()])
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

    def test_unique_rows_the_same_packed_or_not(self):
        """Rows are sorted through one packed int64 key when the column
        bounds allow it, and row by row when they do not."""
        rng = np.random.default_rng(0)
        columns = [rng.integers(0, 5, 300) for _ in range(3)]
        expected = sorted(set(zip(*(c.tolist() for c in columns))))
        for bounds in ((5, 5, 5), (2 ** 31, 2 ** 31, 2 ** 31)):
            rows = kg_module._unique_rows(columns, bounds)
            assert list(zip(*(c.tolist() for c in rows))) == expected

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
    a_ids = set(kg.name_index[a.lower()])
    b_ids = set(kg.name_index[b.lower()])
    undirected = {}
    for edge in kg.edges:
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
    for edge in kg.edges:
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

    def test_unknown_name_raises(self):
        kg = chain_graph("a", "b")
        with pytest.raises(NoSuchNodeError, match="ghost"):
            enumerate_subgraphs(kg, ("a", "ghost"), max_hops=2)

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
            assert [sg.sort_key() for sg in found] == sorted(sg.sort_key() for sg in found)
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
