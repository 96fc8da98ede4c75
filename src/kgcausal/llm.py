"""Text-generation backends: an OpenAI-compatible HTTP client and a
deterministic mock oracle for offline tests.

Both return a :class:`Completion` carrying per-token log-probabilities so
callers can turn a generated label into a confidence value.
"""

from __future__ import annotations

import functools
import http.client
import io
import json
import logging
import math
import os
import random
import re
import select
import socket
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import __version__
from .errors import (
    BackendRejected,
    BackendUnavailable,
    CapabilityMissing,
    UnparseableLabel,
)
from .util import stable_hash

logger = logging.getLogger(__name__)

CAUSAL = "causal"
NON_CAUSAL = "non-causal"

# Each label spelling with its label.  Non-causal spellings are checked
# first: "causal" is a substring of every one of them, so priority order is
# what keeps the matching safe.
LABEL_VARIANTS = (("non-causal", NON_CAUSAL), ("noncausal", NON_CAUSAL),
                  ("non causal", NON_CAUSAL), (CAUSAL, CAUSAL))

# Heads the relation-path block of both prompts; the mock oracle matches there.
PATH_BLOCK_MARKER = "[Relation Paths]:"

# Client errors that are transient in practice: rate limited, request timeout.
_RETRIED_CLIENT_ERRORS = (429, 408)

# Seconds an HTTP request may take, and the cap of the first backoff delay;
# the cap doubles with each further retry.
TIMEOUT = 30.0
BACKOFF_BASE = 0.25

# http.client's limits on a response: the longest line, and the most lines
# in one header block, the blank line that ends it included.  A body is read
# at most _MAX_LINE bytes at a time, so a false length costs no more memory
# than what arrives.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?:[ \t][^\r\n]*)?\r?\n")
# At most 32 digits: more than any body needs, fewer than int() refuses.
_CONTENT_LENGTH = re.compile(r"[0-9]{1,32}")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
# A request target http.client would send: printable ASCII, no spaces.
_TARGET = re.compile(r"[\x21-\x7e]+")


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    max_tokens: int = 16
    want_logprobs: bool = True

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class Completion:
    text: str
    tokens: tuple[tuple[str, float], ...]
    backend_id: str

    def __post_init__(self):
        for tok, lp in self.tokens:
            if lp > 0:
                raise ValueError(f"token {tok!r} has log-probability {lp} > 0")


# Each of LABEL_VARIANTS, in order, as a compiled pattern with its label.
_LABEL_PATTERNS = tuple((re.compile(re.escape(variant), re.ASCII | re.IGNORECASE), label)
                        for variant, label in LABEL_VARIANTS)


def label_logprob(completion: Completion) -> tuple[str, float]:
    """Which label the completion expresses, and the mean log-probability of
    the tokens whose spans overlap the matched label.

    The first of ``LABEL_VARIANTS`` found in the text wins.
    """
    if not completion.tokens:
        raise CapabilityMissing("completion has no token log-probabilities")

    concat = "".join(tok for tok, _ in completion.tokens)
    haystacks = [concat]
    if completion.text not in haystacks:
        haystacks.append(completion.text)

    for haystack in haystacks:
        for pattern, label in _LABEL_PATTERNS:
            # Matched in place, so the span indexes the tokens even where
            # lowercasing would change the text's length.
            match = pattern.search(haystack)
            if match is None:
                continue
            if haystack is not concat:
                # Token offsets are only meaningful in the concatenation;
                # fall back to averaging across all tokens.
                logprobs = [lp for _, lp in completion.tokens]
            else:
                span = match.span()
                logprobs = []
                offset = 0
                for tok, lp in completion.tokens:
                    tok_span = (offset, offset + len(tok))
                    offset += len(tok)
                    if tok_span[0] < span[1] and tok_span[1] > span[0]:
                        logprobs.append(lp)
            mean = sum(logprobs) / len(logprobs)
            if math.isinf(mean):  # the sum overflowed; divide before summing
                mean = sum(lp / len(logprobs) for lp in logprobs)
            return label, mean
    raise UnparseableLabel(f"no relation label found in {completion.text!r}")


def probability(mean_logprob: Optional[float]) -> float:
    """The probability a mean log-probability stands for, the geometric mean
    of its tokens' probabilities, capped at 1; 0 for None (no label)."""
    return 0.0 if mean_logprob is None else min(math.exp(mean_logprob), 1.0)


def label_probability(completion: Completion) -> tuple[str, float]:
    """:func:`label_logprob` with the mean turned into the label's
    :func:`probability`."""
    label, mean_logprob = label_logprob(completion)
    return label, probability(mean_logprob)


def ask_label(backend, prompt: str) -> tuple[Optional[str], Optional[float], str]:
    """(label, mean log-probability, backend id) of the backend's answer to
    ``prompt``, as :func:`label_logprob` reads it; the label and the mean are
    None when the answer names no label."""
    completion = backend.complete(CompletionRequest(prompt=prompt, want_logprobs=True))
    try:
        label, mean_logprob = label_logprob(completion)
    except UnparseableLabel:
        return None, None, completion.backend_id
    return label, mean_logprob, completion.backend_id


@dataclass(frozen=True)
class PairResults:
    """What a per-pair backend stage produced: ``records`` of the pairs that
    were done, in input order, the number of pairs skipped because a backend
    call failed, and the ``complete`` calls made (None for a backend that
    does not count them)."""

    records: list
    skipped_backend_error: int
    backend_calls: Optional[int]


def map_pairs(fn: Callable, jobs: Sequence, backend, qid: Callable) -> PairResults:
    """``fn`` over ``jobs`` on up to ``backend.parallelism`` threads (one for
    a backend without it), in sequence when that is 1 or there is at most one
    job; the records keep input order.  A job whose backend call fails is
    logged under ``qid(job)``, skipped and counted rather than aborting the
    stage.  Any other error cancels the jobs not yet started, and the first
    such error in input order is re-raised."""
    def run(job):
        try:
            return fn(job)
        except (BackendUnavailable, BackendRejected) as exc:
            logger.warning("skipping %s: %s", qid(job), exc)
            return None

    calls_before = getattr(backend, "calls", None)
    parallelism = getattr(backend, "parallelism", 1)
    if parallelism <= 1 or len(jobs) <= 1:
        outcomes = [run(job) for job in jobs]
    else:
        # Executor.map yields in input order, and the first error it yields
        # cancels the jobs not yet started.
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(run, jobs))
    records = [record for record in outcomes if record is not None]
    return PairResults(
        records=records,
        skipped_backend_error=len(outcomes) - len(records),
        backend_calls=None if calls_before is None else backend.calls - calls_before)


@dataclass(frozen=True)
class MockOracleConfig:
    """Planted decision rule for the deterministic mock backend.

    ``causal_motifs`` are token sequences; a prompt whose relation-path
    block contains any motif's tokens in order is answered "causal",
    otherwise "non-causal".  Each answer flips with probability
    ``flip_rate``, seeded by a stable hash of the prompt.
    """

    causal_motifs: tuple[tuple[str, ...], ...]
    base_confidence: float = 0.9
    noise_seed: int = 0
    flip_rate: float = 0.0

    def __post_init__(self):
        if not self.causal_motifs or any(not m for m in self.causal_motifs):
            raise ValueError("causal_motifs must be non-empty token sequences")
        if not 0.5 < self.base_confidence <= 1.0:
            raise ValueError("base_confidence must be in (0.5, 1]")
        if not 0.0 <= self.flip_rate < 0.5:
            raise ValueError("flip_rate must be in [0, 0.5)")


def _path_block(prompt: str) -> str:
    """Text of the relation-path section, or the whole prompt without it."""
    idx = prompt.rfind(PATH_BLOCK_MARKER)
    if idx < 0:
        return prompt
    block = prompt[idx + len(PATH_BLOCK_MARKER):]
    end = block.find("\n\n")
    return block if end < 0 else block[:end]


def _motif_matches(motif: Sequence[str], block: str) -> bool:
    lowered = block.lower()
    pos = 0
    for token in motif:
        found = lowered.find(token.lower(), pos)
        if found < 0:
            return False
        pos = found + len(token)
    return True


class MockOracle:
    """Pure function of (prompt, config); usable wherever a backend is.

    ``calls`` counts ``complete`` calls; it is safe to share across threads.
    """

    def __init__(self, config: MockOracleConfig):
        self.config = config
        self.backend_id = "mock"
        self.calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> Completion:
        with self._calls_lock:
            self.calls += 1
        block = _path_block(request.prompt)
        is_causal = any(_motif_matches(m, block) for m in self.config.causal_motifs)
        if self.config.flip_rate > 0:
            roll = stable_hash("flip", self.config.noise_seed, request.prompt) / 2**64
            if roll < self.config.flip_rate:
                is_causal = not is_causal
        label = CAUSAL if is_causal else NON_CAUSAL
        logprob = math.log(self.config.base_confidence)
        return Completion(text=label, tokens=((label, logprob),), backend_id=self.backend_id)

    def close(self) -> None:
        """Nothing to release; present so callers treat every backend alike."""


def _retry_delay(attempt: int, retry_after: Optional[str], rng: random.Random) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based): a
    ``Retry-After`` header given in whole seconds, else a delay drawn
    uniformly from [0, BACKOFF_BASE * 2 ** (attempt - 1)] (full jitter)."""
    if retry_after is not None and re.fullmatch(r"[0-9]+", retry_after.strip()):
        return float(retry_after)
    return rng.uniform(0.0, BACKOFF_BASE * 2 ** (attempt - 1))


def _logprob(value) -> float:
    """A token log-probability from a response body, clamped to at most 0.
    A bool, a string, NaN or an infinity is a ValueError, not a certainty."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"log-probability {value!r} is not a finite number")
    return min(0.0, float(value))


def _read_line(reader: io.BufferedReader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("response line")
    return line


def _read_headers(reader: io.BufferedReader) -> dict[str, str]:
    """The header fields up to the blank line, by lowercased name.  A
    repeated field keeps its first value; a repeated Content-Length must
    repeat it."""
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        line = _read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if not colon or not name:
            raise http.client.HTTPException(f"malformed header line {line[:60]!r}")
        first = headers.setdefault(name, value)
        if name == "content-length" and value != first:
            raise http.client.HTTPException("conflicting Content-Length headers")
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_exactly(reader: io.BufferedReader, size: int) -> bytes:
    parts = []
    while size:
        part = reader.read(min(size, _MAX_LINE))
        if not part:
            raise http.client.IncompleteRead(b"".join(parts), size)
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_chunked(reader: io.BufferedReader) -> bytes:
    """A chunked body; chunk extensions and trailer fields are dropped."""
    parts = []
    while True:
        line = _read_line(reader)
        size = line.partition(b";")[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise http.client.HTTPException(f"bad chunk size line {line[:60]!r}")
        if not (size := int(size, 16)):
            _read_headers(reader)
            return b"".join(parts)
        parts.append(_read_exactly(reader, size))
        if _read_exactly(reader, 2) != b"\r\n":
            raise http.client.HTTPException("chunk data not followed by CRLF")


def _read_response(reader: io.BufferedReader) -> tuple[int, dict[str, str], bytes, bool]:
    """Status, header fields by lowercased name, body, and whether the
    connection closes after it, of the next HTTP/1.x response on ``reader``;
    1xx interim answers are skipped.  A response the client cannot frame
    raises an http.client.HTTPException."""
    status = 100
    while status < 200:
        line = _read_line(reader)
        if not line:
            raise http.client.RemoteDisconnected("remote end closed connection without response")
        if not (match := _STATUS_LINE.fullmatch(line)):
            raise http.client.BadStatusLine(repr(line[:60]))
        headers = _read_headers(reader)
        status = int(match[2])
    will_close = match[1] == b"0" or "close" in headers.get("connection", "").lower()
    if status in (204, 304):
        return status, headers, b"", will_close
    if "transfer-encoding" in headers:
        if headers["transfer-encoding"].lower() != "chunked":
            raise http.client.UnknownTransferEncoding(headers["transfer-encoding"])
        # A Content-Length beside it may have framed the message differently
        # for some hop in between (RFC 9112 section 6.3).
        return status, headers, _read_chunked(reader), will_close or "content-length" in headers
    if "content-length" in headers:
        length = headers["content-length"]
        if not _CONTENT_LENGTH.fullmatch(length):
            raise http.client.HTTPException(f"bad Content-Length {length[:60]!r}")
        return status, headers, _read_exactly(reader, int(length)), will_close
    return status, headers, reader.read(), True


def _closed_while_idle(sock: socket.socket) -> bool:
    """Whether an idle connection's socket is readable, which means the
    server closed or reset it.  ``poll`` takes any descriptor, where
    ``select`` refuses those of 1,024 or more."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _close_connection(conn: tuple[socket.socket, io.BufferedReader]) -> None:
    sock, reader = conn
    reader.close()
    sock.close()


class HttpBackend:
    """Client for OpenAI-compatible completion endpoints.

    ``http.client`` only opens each connection: TCP, the ``CONNECT`` tunnel
    through an https proxy, and TLS.  Each request then leaves in one write,
    and :func:`_read_response` reads its answer from the connection's one
    buffered reader.  Transient failures (connection errors, HTTP 5xx, 429 and 408, a success
    whose body is not JSON) are retried up to ``max_retries`` extra attempts,
    after the delay of :func:`_retry_delay`; other client errors are surfaced
    immediately.  A 307 or 308 to the same scheme and host is followed once
    with the same POST; any other redirect is rejected.  ``parallelism``
    bounds in-flight requests, and so the kept-alive connections; ``calls``
    counts ``complete`` calls.  The only credential sent is the one named by
    ``credential_env``; netrc files are not read.
    """

    def __init__(self, endpoint: str, model: str, credential_env: Optional[str] = None,
                 max_retries: int = 3, parallelism: int = 4):
        self.endpoint = endpoint
        self.model = model
        self.credential_env = credential_env
        self.max_retries = max_retries
        self.parallelism = max(1, parallelism)
        self.backend_id = f"http:{model}"
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http or https URL")
        # Proxy and CA settings are read once.  An http endpoint sends its
        # proxy the absolute URL; an https one tunnels through it (CONNECT).
        proxy = (None if urllib.request.proxy_bypass(url.hostname)
                 else urllib.request.getproxies().get(url.scheme))
        via = urllib.parse.urlsplit(proxy if "://" in proxy else "//" + proxy) if proxy else url
        self._address = (via.hostname, via.port)
        self._absolute_target = bool(proxy) and url.scheme == "http"
        self._tunnel = (url.hostname, url.port) if proxy and url.scheme == "https" else None
        ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        ca_args = {("capath" if os.path.isdir(ca) else "cafile"): ca} if ca else {}
        self._new_connection = (functools.partial(
            http.client.HTTPSConnection, context=ssl.create_default_context(**ca_args))
            if url.scheme == "https" else http.client.HTTPConnection)
        self._target = self._same_origin_target(endpoint)
        if self._target is None:
            raise ValueError(f"endpoint {endpoint!r} is not an http or https URL")
        # The header fields every request sends, encoded once.  Without
        # Accept-Encoding a server may compress the answer.
        host = url.netloc.rpartition("@")[2]
        self._fields = (b"Host: " + host.encode("idna") + b"\r\nAccept-Encoding: identity\r\n"
                        b"Content-Type: application/json\r\n"
                        b"User-Agent: kgcausal/" + __version__.encode("ascii") + b"\r\n")
        # Each pooled connection is its socket with the one reader of its
        # responses; most recently used last.
        self._idle: list[tuple[socket.socket, io.BufferedReader]] = []
        self._idle_lock = threading.Lock()
        self._jitter = random.Random()
        self._slots = threading.Semaphore(self.parallelism)
        self.calls = 0
        self._calls_lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled connections; call once no request is in flight."""
        with self._idle_lock:
            while self._idle:
                _close_connection(self._idle.pop())

    def _request(self, target: bytes, body: bytes) -> bytes:
        """A POST of ``body`` to ``target``, as sent.  The credential is read
        from the environment each time."""
        secret = os.environ.get(self.credential_env) if self.credential_env else None
        authorization = b""
        if secret:
            if "\r" in secret or "\n" in secret:
                raise ValueError(f"{self.credential_env} holds a line break")
            authorization = b"Authorization: Bearer %s\r\n" % secret.encode("latin-1")
        return b"POST %s HTTP/1.1\r\n%s%sContent-Length: %d\r\n\r\n%s" % (
            target, self._fields, authorization, len(body), body)

    def _same_origin_target(self, location: str) -> Optional[bytes]:
        """The request target of ``location`` if it has the endpoint's origin
        and is printable ASCII without spaces."""
        url = urllib.parse.urlsplit(urllib.parse.urljoin(self.endpoint, location))
        if url[:2] != urllib.parse.urlsplit(self.endpoint)[:2]:
            return None
        target = (url.geturl() if self._absolute_target
                  else urllib.parse.urlunsplit(("", "", url.path or "/", url.query, "")))
        return target.encode("ascii") if _TARGET.fullmatch(target) else None

    def _connect(self) -> tuple[socket.socket, io.BufferedReader]:
        """A new connection, through the proxy tunnel and the TLS handshake
        that http.client makes, with the reader of its responses."""
        conn = self._new_connection(*self._address, timeout=TIMEOUT)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return conn.sock, conn.sock.makefile("rb")

    def _post(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        """Status, header fields and body of the answer to ``request``, sent
        in one write over the last idle connection or a new one; the
        connection is pooled again unless it raised or the answer closes it."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
            while conn is not None and _closed_while_idle(conn[0]):
                _close_connection(conn)
                conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connect()
        try:
            conn[0].sendall(request)
            status, headers, answer, will_close = _read_response(conn[1])
        except BaseException:
            _close_connection(conn)
            raise
        if will_close:
            _close_connection(conn)
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return status, headers, answer

    def complete(self, request: CompletionRequest) -> Completion:
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": 0.0,
            "logprobs": request.want_logprobs,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        with self._calls_lock:
            self.calls += 1
        last_error: Optional[Exception] = None
        retry_after: Optional[str] = None
        with self._slots:
            for attempt in range(1 + self.max_retries):
                if attempt:
                    time.sleep(_retry_delay(attempt, retry_after, self._jitter))
                retry_after = None
                try:
                    status, headers, answer = self._post(self._request(self._target, body))
                    location = headers.get("location")
                    if status in (307, 308) and location and (
                            target := self._same_origin_target(location)):
                        status, headers, answer = self._post(self._request(target, body))
                except (OSError, http.client.HTTPException) as exc:
                    last_error = exc
                    logger.warning("backend attempt %d failed: %s", attempt + 1, exc)
                    continue
                excerpt = answer.decode("utf-8", "replace")[:200]
                if status >= 500 or status in _RETRIED_CLIENT_ERRORS:
                    retry_after = headers.get("retry-after")
                    last_error = BackendUnavailable(f"HTTP {status}: {excerpt}")
                    logger.warning("backend attempt %d failed: HTTP %d", attempt + 1, status)
                    continue
                if status >= 300:
                    raise BackendRejected(status, excerpt if status >= 400
                                          else f"redirect to {headers.get('location')}")
                try:
                    parsed = json.loads(answer)
                except ValueError as exc:
                    last_error = BackendUnavailable(f"response body is not JSON: {exc}")
                    logger.warning("backend attempt %d failed: body is not JSON", attempt + 1)
                    continue
                return self._parse(parsed, request)
        raise BackendUnavailable(
            f"backend unreachable after {1 + self.max_retries} attempts: {last_error}")

    def _parse(self, body: dict, request: CompletionRequest) -> Completion:
        """The completion in an OpenAI-style body.  A body of any other shape
        raises BackendUnavailable, so the caller skips the pair."""
        try:
            choice = body["choices"][0]
            text = choice["text"]
            logprobs = choice.get("logprobs") or {}
            token_strings = logprobs.get("tokens")
            token_logprobs = logprobs.get("token_logprobs")
            tokens: tuple[tuple[str, float], ...] = ()
            if token_strings is not None and token_logprobs is not None:
                tokens = tuple((tok, _logprob(lp))
                               for tok, lp in zip(token_strings, token_logprobs)
                               if lp is not None)
        except (KeyError, IndexError, TypeError, AttributeError, ValueError,
                OverflowError) as exc:
            raise BackendUnavailable(f"malformed backend response: {exc}") from exc
        if not all(isinstance(t, str) for t in (text, *(tok for tok, _ in tokens))):
            raise BackendUnavailable("malformed backend response: non-string text or token")
        if request.want_logprobs and not tokens:
            raise CapabilityMissing("backend did not return token log-probabilities")
        return Completion(text=text, tokens=tokens, backend_id=self.backend_id)
