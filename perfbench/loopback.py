"""Loopback OpenAI-compatible completion endpoint for the cli-http workload.

Each request is answered with the label and log-probability that
``MockOracle`` gives for its prompt, after a fixed delay standing in for
model time.  The server is built so that it measures the client, not
itself:

* HTTP/1.1 keep-alive, so a client session reuses one connection;
* ``TCP_NODELAY`` on every accepted socket, and headers plus body sent in
  one write: with Nagle's algorithm on, the separate body write waits for
  the client's delayed ACK (about 40 ms per request on Linux);
* at most ``MAX_CONNECTIONS`` (the CPUs this process may run on, as
  ``nproc`` counts them) connections served at once,
  extra ones wait in the listen backlog;
* in-flight requests are counted server side, which gives the maximum and
  the time-weighted mean concurrency the client actually achieved.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from kgcausal.llm import CompletionRequest, MockOracle, MockOracleConfig

COMPLETIONS_PATH = "/v1/completions"
MAX_CONNECTIONS = len(os.sched_getaffinity(0))


class ServerStats:
    """Request counters and in-flight accounting, shared by handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.inflight = 0
        self.max_inflight = 0
        self.service_s: list[float] = []
        self._inflight_area = 0.0
        self._last_change = time.perf_counter()

    def _advance(self, now: float) -> None:
        self._inflight_area += self.inflight * (now - self._last_change)
        self._last_change = now

    def begin(self) -> float:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.inflight += 1
            self.requests += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        return now

    def end(self, started: float) -> None:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.inflight -= 1
            self.service_s.append(now - started)

    def snapshot(self) -> dict:
        """Counters as of now; ``area`` is the integral of in-flight count."""
        with self._lock:
            self._advance(time.perf_counter())
            return {"requests": self.requests, "area": self._inflight_area,
                    "max_inflight": self.max_inflight,
                    "service_s": list(self.service_s)}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 10  # close idle keep-alive connections so their slot frees up

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by base class
        pass

    def do_POST(self):
        server = self.server
        started = server.stats.begin()
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            if self.path != COMPLETIONS_PATH:
                self._reply(404, {"error": f"no route {self.path}"})
                return
            completion = server.oracle.complete(CompletionRequest(
                prompt=payload["prompt"], max_tokens=payload.get("max_tokens", 16)))
            time.sleep(server.delay_s)
            tokens = [tok for tok, _ in completion.tokens]
            logprobs = [lp for _, lp in completion.tokens]
            self._reply(200, {"object": "text_completion", "model": payload.get("model", ""),
                              "choices": [{"index": 0, "text": completion.text,
                                           "logprobs": {"tokens": tokens,
                                                        "token_logprobs": logprobs},
                                           "finish_reason": "stop"}]})
        finally:
            server.stats.end(started)

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        head = (f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(data)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + data)


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread

    def __init__(self, config: MockOracleConfig, delay_s: float):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.oracle = MockOracle(config)
        self.delay_s = delay_s
        self.stats = ServerStats()
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._open: set = set()
        self._open_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}{COMPLETIONS_PATH}"

    def process_request(self, request, client_address):
        self._slots.acquire()
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._open_lock:
                self._open.discard(request)
            self._slots.release()

    def start(self) -> "LoopbackServer":
        self._thread = threading.Thread(target=self.serve_forever, name="loopback",
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()
        return self

    def stop(self) -> None:
        """Close idle keep-alive connections, stop the accept loop, and wait
        for it and every handler thread to end."""
        with self._open_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join()
