"""Text-generation backends: an OpenAI-compatible HTTP client and a
deterministic mock oracle for offline tests.

Both return a :class:`Completion` carrying per-token log-probabilities so
callers can turn a generated label into a confidence value.
"""

from __future__ import annotations

import logging
import math
import os
import random
import re
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import requests

from .errors import (
    BackendRejected,
    BackendUnavailable,
    CapabilityMissing,
    UnparseableLabel,
)
from .util import map_in_order, stable_hash

logger = logging.getLogger(__name__)

CAUSAL = "causal"
NON_CAUSAL = "non-causal"

# Non-causal spellings are checked first: "causal" is a substring of every
# one of them, so priority order is what keeps the matching safe.
LABEL_VARIANTS = ("non-causal", "noncausal", "non causal", CAUSAL)

# Heads the relation-path block of both prompts; the mock oracle matches there.
PATH_BLOCK_MARKER = "[Relation Paths]:"

# Client errors that are transient in practice: rate limited, request timeout.
_RETRIED_CLIENT_ERRORS = (429, 408)

# Seconds an HTTP request may take, and the cap of the first backoff delay;
# the cap doubles with each further retry.
TIMEOUT = 30.0
BACKOFF_BASE = 0.25


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


def canonical_label(variant: str) -> str:
    """Collapse a label spelling to 'causal' or 'non-causal'."""
    collapsed = re.sub(r"[^a-z]", "", variant.lower())
    return NON_CAUSAL if collapsed.startswith("non") else CAUSAL


def label_probability(completion: Completion) -> tuple[str, float]:
    """Which label the completion expresses and with what probability.

    The first of ``LABEL_VARIANTS`` found in the text wins;
    the probability is the exponentiated mean log-probability of the tokens
    whose spans overlap the matched label, i.e. the geometric mean of the
    per-token probabilities.
    """
    if not completion.tokens:
        raise CapabilityMissing("completion has no token log-probabilities")

    concat = "".join(tok for tok, _ in completion.tokens)
    haystacks = [concat]
    if completion.text not in haystacks:
        haystacks.append(completion.text)

    for haystack in haystacks:
        for variant in LABEL_VARIANTS:
            # Matched in place, so the span indexes the tokens even where
            # lowercasing would change the text's length.
            match = re.search(re.escape(variant), haystack, re.ASCII | re.IGNORECASE)
            if match is None:
                continue
            label = canonical_label(variant)
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
            p = math.exp(sum(logprobs) / len(logprobs))
            return label, min(p, 1.0)
    raise UnparseableLabel(f"no relation label found in {completion.text!r}")


def ask_label(backend, prompt: str) -> tuple[Optional[str], float, str]:
    """(label, p, backend id) for the backend's answer to ``prompt``; the
    label is None and p is 0 when the answer names no label."""
    completion = backend.complete(CompletionRequest(prompt=prompt, want_logprobs=True))
    try:
        label, p = label_probability(completion)
    except UnparseableLabel:
        return None, 0.0, completion.backend_id
    return label, p, completion.backend_id


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
    """``fn`` over ``jobs`` on up to ``backend.parallelism`` threads.  A job
    whose backend call fails is logged under ``qid(job)``, skipped and counted
    rather than aborting the stage; any other error cancels the jobs not yet
    started and is re-raised."""
    def run(job):
        try:
            return fn(job)
        except (BackendUnavailable, BackendRejected) as exc:
            logger.warning("skipping %s: %s", qid(job), exc)
            return None

    calls_before = getattr(backend, "calls", None)
    outcomes = map_in_order(run, jobs, getattr(backend, "parallelism", 1))
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MockOracleConfig":
        return cls(
            causal_motifs=tuple(tuple(m) for m in d["causal_motifs"]),
            base_confidence=d.get("base_confidence", 0.9),
            noise_seed=d.get("noise_seed", 0),
            flip_rate=d.get("flip_rate", 0.0),
        )


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
        self.parallelism = 1
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
    A bool, a string or NaN is a ValueError, not a certainty."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise ValueError(f"log-probability {value!r} is not a number")
    return min(0.0, float(value))


class HttpBackend:
    """Client for OpenAI-compatible completion endpoints.

    Transient failures (connection errors, HTTP 5xx, 429 and 408, a success
    whose body is not JSON) are retried up to ``max_retries`` extra attempts,
    after the delay of :func:`_retry_delay`; other client errors are surfaced
    immediately.  ``parallelism`` bounds in-flight requests; ``calls`` counts
    ``complete`` calls.  The only credential sent is the one named by
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
        # Proxy and CA settings are read once; with trust_env on, the session
        # rescanned them per request and let a netrc entry replace the header.
        self._session = requests.Session()
        self._session.trust_env = False
        self._session.proxies = requests.utils.get_environ_proxies(endpoint)
        self._session.verify = (os.environ.get("REQUESTS_CA_BUNDLE")
                                or os.environ.get("CURL_CA_BUNDLE") or True)
        self._jitter = random.Random()
        self._slots = threading.Semaphore(self.parallelism)
        self.calls = 0
        self._calls_lock = threading.Lock()

    def close(self) -> None:
        """Close the pooled connections; call once no request is in flight."""
        self._session.close()

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.credential_env:
            secret = os.environ.get(self.credential_env)
            if secret:
                headers["Authorization"] = f"Bearer {secret}"
        return headers

    def complete(self, request: CompletionRequest) -> Completion:
        payload = {
            "model": self.model,
            "prompt": request.prompt,
            "max_tokens": request.max_tokens,
            "temperature": 0.0,
            "logprobs": request.want_logprobs,
        }
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
                    response = self._session.post(self.endpoint, json=payload,
                                                  headers=self._headers(), timeout=TIMEOUT)
                except requests.RequestException as exc:
                    last_error = exc
                    logger.warning("backend attempt %d failed: %s", attempt + 1, exc)
                    continue
                status = response.status_code
                if status >= 500 or status in _RETRIED_CLIENT_ERRORS:
                    retry_after = response.headers.get("Retry-After")
                    last_error = BackendUnavailable(f"HTTP {status}: {response.text[:200]}")
                    logger.warning("backend attempt %d failed: HTTP %d", attempt + 1, status)
                    continue
                if status >= 400:
                    raise BackendRejected(status, response.text[:200])
                try:
                    body = response.json()
                except ValueError as exc:
                    last_error = BackendUnavailable(f"response body is not JSON: {exc}")
                    logger.warning("backend attempt %d failed: body is not JSON", attempt + 1)
                    continue
                return self._parse(body, request)
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
