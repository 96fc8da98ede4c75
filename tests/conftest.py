"""Shared fixtures and tiny fakes for the test suite."""

from __future__ import annotations

import json
import math
import select
import socket
import socketserver
import ssl
import threading
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from kgcausal.cli import main
from kgcausal.kg import FORWARD, KnowledgeGraph, MetapathSubgraph, NodeRecord, EdgeRecord
from kgcausal.llm import Completion
from kgcausal.ltr.losses import _check_ranks, _segments, loss_and_grad
from kgcausal.ltr.models import _FlatScorer
from kgcausal.synthetic import make_planted_world, write_instances_jsonl, write_kg_jsonl


def make_subgraph(names, types=None, labels=None, directions=None, ids=None):
    """Compact MetapathSubgraph builder for tests."""
    n = len(names)
    return MetapathSubgraph(
        node_ids=tuple(ids or [f"id_{x}" for x in names]),
        node_names=tuple(names),
        node_types=tuple(types if types is not None else [f"t{x}" for x in names]),
        edge_labels=tuple(labels if labels is not None else ["rel"] * (n - 1)),
        edge_directions=tuple(directions if directions is not None else [FORWARD] * (n - 1)),
    )


def encode_ranker_input(pair, subgraph):
    """The ranker input's layout, built here from the subgraph's fields
    alone: CLS, the pair's words, SEP, then per node a "-" (but before the
    first), the words of its type, or when that is empty of the label of
    the hop after it (before it, for the last node), and of its name."""
    tokens = ["CLS", *pair[0].split(), *pair[1].split(), "SEP"]
    labels = subgraph.edge_labels
    for i, (node_type, name) in enumerate(zip(subgraph.node_types, subgraph.node_names)):
        kind = node_type or labels[i if i < len(labels) else i - 1]
        if i:
            tokens.append("-")
        tokens += kind.split() + name.split()
    return tokens


def name_index(kg):
    """Lowercased names to the ids of the nodes that have them (a multimap:
    name collisions keep every id), from the graph's name order."""
    index = {}
    for name, u in zip(kg._lowered_names, kg._by_name):
        index[name] = index.get(name, ()) + (kg._ids[u],)
    return index


def edges(kg):
    """Every edge of the graph once, in sorted (head, relation, tail) order,
    read back from its adjacency entries at the head end."""
    ids, offsets = kg._ids, kg._offsets
    return tuple(EdgeRecord(head=ids[u], relation=kg._hop_labels[c], tail=ids[v])
                 for u in range(len(ids))
                 for c, v in sorted(zip(kg._hop_codes[offsets[u]:offsets[u + 1]],
                                        kg._neighbours[offsets[u]:offsets[u + 1]]))
                 if not c & 1)


def ranknet_terms(scores, ranks):
    """One softplus term per ordered pair whose first item ranks better.

    Rank 1 is the most relevant item; each term log(1 + exp(-(s_i - s_j)))
    pushes the better-ranked item's score above the worse-ranked one.  The
    loop is the reference that :func:`losses.loss_and_grad`'s RankNet value
    is tested against.
    """
    s = np.asarray(scores, dtype=np.float64)
    starts, seg = _segments(s.size, None)
    r = _check_ranks(ranks, starts, seg)
    terms = []
    for i in range(len(s)):
        for j in range(len(s)):
            if r[i] < r[j]:
                terms.append(float(np.logaddexp(0.0, -(s[i] - s[j]))))
    return terms


def scorer_loss_and_grads(params, X, loss_kind, targets=None, ranks=None, offsets=None):
    """Loss value and analytic gradients for every scorer parameter, through
    the trainer's own forward and backward pass.

    ``X`` stacks the paths of one or more records, and ``offsets`` gives the
    row where each record starts (one record when omitted).  Loss and
    gradients are sums over the records; see :func:`losses.loss_and_grad`.
    """
    scorer = _FlatScorer(params.w1, params.b1, params.w2, params.b2, len(X))
    loss = scorer.loss_and_grads(X, lambda scores: loss_and_grad(
        loss_kind, scores, targets=targets, ranks=ranks, offsets=offsets))
    return loss, {"w1": scorer.g_w1, "b1": scorer.g_b1, "w2": scorer.g_w2,
                  "b2": float(scorer.grad[-1])}


class FakeBackend:
    """Backend stub that replays scripted completions."""

    def __init__(self, completions):
        self.backend_id = "fake"
        self.parallelism = 1
        self.calls = 0
        self._completions = list(completions)

    @staticmethod
    def single(text, p=0.9):
        return Completion(text=text, tokens=((text, math.log(p)),), backend_id="fake")

    def complete(self, request):
        self.calls += 1
        item = self._completions[(self.calls - 1) % len(self._completions)]
        if isinstance(item, Exception):
            raise item
        return item


@pytest.fixture
def fgf6_path():
    """The gene-to-disease example path used throughout the prompt tests."""
    return make_subgraph(
        names=["FGF6", "tendon", "SDRDL", "FGFR2", "prostate cancer"],
        types=["Gene", "anatomy", "gene", "gene", "disease"],
        labels=["express", "express", "regulate", "associate"],
    )


@pytest.fixture
def hetionet_style_kg():
    """Small typed graph: one compound-gene-disease chain plus clutter."""
    nodes = [
        NodeRecord(id="n1", name="Aspirin", node_type="Compound"),
        NodeRecord(id="n2", name="PTGS2", node_type="Gene"),
        NodeRecord(id="n3", name="Headache", node_type="Disease"),
        NodeRecord(id="n4", name="IL6", node_type="Gene"),
        NodeRecord(id="n5", name="Liver", node_type="Anatomy"),
    ]
    edges = [
        EdgeRecord(head="n1", relation="TARGETS", tail="n2"),
        EdgeRecord(head="n2", relation="ASSOCIATED_WITH", tail="n3"),
        EdgeRecord(head="n1", relation="TARGETS", tail="n4"),
        EdgeRecord(head="n4", relation="ASSOCIATED_WITH", tail="n3"),
        EdgeRecord(head="n1", relation="AFFECTS", tail="n5"),
    ]
    return KnowledgeGraph(nodes, edges)


@dataclass(frozen=True)
class RawAnswer:
    """A stub server script entry sent byte for byte, after which the server
    closes the connection if ``close`` is set."""

    data: bytes
    close: bool = True


class StubHandler(BaseHTTPRequestHandler):
    """Replays the scripted (status, body) or (status, body, headers)
    responses of its server, or a :class:`RawAnswer`; a bytes body is sent
    as is, anything else as JSON.  Records each request body, its
    Authorization header (None when absent), its request line with its
    header fields in order, and the client's address.  Speaks HTTP/1.1, so a
    client keeps its connection open between requests, as with real
    completion endpoints; each response leaves in one write with Nagle's
    algorithm off, so keep-alive adds no delayed-ACK wait."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    wbufsize = -1  # buffered: handle_one_request flushes once per response

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.requests.append(request)
            self.server.authorizations.append(self.headers.get("Authorization"))
            self.server.heads.append((self.requestline, self.headers.items()))
            self.server.peers.append(self.client_address)
            served = len(self.server.requests)
        entry = self.server.script[min(served, len(self.server.script)) - 1]
        if isinstance(entry, RawAnswer):
            self.wfile.write(entry.data)
            self.close_connection = entry.close
            return
        status, body, *headers = entry
        payload = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class StubServer(ThreadingHTTPServer):
    """Serves :class:`StubHandler`; set ``script`` and read ``requests``,
    ``authorizations``, ``heads`` and ``peers``.  ``disconnected`` is set
    once the server has closed a connection, which it does after the client
    closed it, after an answer with ``Connection: close`` or after a
    closing :class:`RawAnswer`."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.script = [(200, {})]
        self.requests = []
        self.authorizations = []
        self.heads = []
        self.peers = []
        self.lock = threading.Lock()
        self.disconnected = threading.Event()

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.disconnected.set()


# Self-signed certificate and key for IP:127.0.0.1, valid until 2126.
TLS_CERT = Path(__file__).parent / "tls" / "cert.pem"
TLS_KEY = Path(__file__).parent / "tls" / "key.pem"


def _serve(server):
    # A short poll lets shutdown() in teardown return at once rather than
    # after the default half-second poll.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory):
    """extract -> estimate -> eval on a small world with a noisy mock; the
    golden digests pin its files."""
    root = tmp_path_factory.mktemp("golden")
    world = make_planted_world(n_pairs=24, flip_rate=0.2, seed=31)
    write_kg_jsonl(world, root / "kg.jsonl")
    write_instances_jsonl(world.instances, root / "pairs.jsonl")
    (root / "mock.json").write_text(json.dumps(asdict(world.mock_config)), encoding="utf-8")
    config = {"kg": {"path": str(root / "kg.jsonl")},
              "llm": {"backend": "mock", "mock_config_path": str(root / "mock.json")},
              "sre": {"k_max": 3},
              "seed": 17}
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    common = ["--config", str(cfg), "--out"]
    assert main(["extract", str(root / "pairs.jsonl"), *common,
                 str(root / "candidates.jsonl")]) == 0
    assert main(["estimate", str(root / "candidates.jsonl"), *common,
                 str(root / "ranked.jsonl")]) == 0
    predictions = root / "predictions.jsonl"
    predictions.write_text("".join(
        json.dumps({"qid": inst.qid, "predicted": inst.groundtruth, "p": 1.0})
        + "\n" for inst in world.instances), encoding="utf-8")
    assert main(["eval", str(predictions), str(root / "pairs.jsonl"), *common,
                 str(root / "report.json")]) == 0
    return root


@pytest.fixture
def stub_server():
    """Loopback completion endpoint over HTTP; see :class:`StubServer`."""
    yield from _serve(StubServer())


@pytest.fixture
def tls_stub_server():
    """:func:`stub_server` over HTTPS, with the certificate ``TLS_CERT``."""
    server = StubServer()
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(TLS_CERT, TLS_KEY)
    # Each accepted socket shakes hands in accept(); one that fails is
    # closed there and never reaches a handler.
    server.socket = context.wrap_socket(server.socket, server_side=True)
    yield from _serve(server)


class TunnelHandler(socketserver.StreamRequestHandler):
    """Answers a CONNECT with 200, then relays bytes both ways until either
    side closes or both stay idle for 5 s."""

    def handle(self):
        target = self.rfile.readline().decode("latin-1").split()[1]
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        self.server.connects.append(target)
        host, port = target.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as upstream:
            self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
            peer = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(peer), [], [], 5)
                chunks = [(sock, sock.recv(65536)) for sock in readable]
                if not chunks or not all(data for _, data in chunks):
                    return
                for sock, data in chunks:
                    peer[sock].sendall(data)


@pytest.fixture
def connect_proxy():
    """Loopback proxy that tunnels CONNECT requests; ``connects`` lists the
    ``host:port`` of each."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), TunnelHandler)
    server.daemon_threads = True
    server.connects = []
    yield from _serve(server)


def ok_body(text="causal", logprob=-0.2):
    return {"choices": [{"text": text,
                         "logprobs": {"tokens": [text], "token_logprobs": [logprob]}}]}


OK_JSON = json.dumps(ok_body()).encode("utf-8")
# The Content-Length field of OK_JSON, the blank line, then OK_JSON.
SIZED_OK = b"Content-Length: %d\r\n\r\n%s" % (len(OK_JSON), OK_JSON)


def chunked(data: bytes, sizes=(7, 30)) -> bytes:
    """``data`` as chunks of the given sizes and then the rest, with a chunk
    extension and a trailer field."""
    out, rest = b"", data
    for size in sizes:
        out += b"%x;note=1\r\n%s\r\n" % (size, rest[:size])
        rest = rest[size:]
    return out + b"%x\r\n%s\r\n0\r\nX-Trailer: done\r\n\r\n" % (len(rest), rest)


# Answers the HTTP client cannot frame, by case.  Sent as a closing
# RawAnswer, so a read past their end meets the end of the connection.
HOSTILE_ANSWERS = {
    "status-http-2": b"HTTP/2 200 OK\r\n\r\n" + OK_JSON,
    "status-without-code": b"HTTP/1.1 OK\r\n\r\n" + OK_JSON,
    "status-not-http": b"<html>gateway hiccup</html>\r\n",
    "length-abc": b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n" + OK_JSON,
    "length-negative": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n" + OK_JSON,
    "length-2**70": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (2 ** 70, OK_JSON),
    "two-lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n" + SIZED_OK,
    "truncated-body": b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
        len(OK_JSON) + 10, OK_JSON),
    "bad-chunk-size": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
                       + OK_JSON + b"\r\n0\r\n\r\n"),
    "gzip-transfer-coding": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
                             + chunked(OK_JSON)),
    "header-line-over-64-KiB": (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 65536
                                + b"\r\n\r\n" + OK_JSON),
    "100-header-fields": b"HTTP/1.1 200 OK" + b"\r\nX-Field: 1" * 100 + b"\r\n\r\n" + OK_JSON,
}
