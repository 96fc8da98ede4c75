"""Backend gateway tests: mock oracle, label parsing, HTTP client."""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import random
import resource
import sys
import threading
import time
import warnings
from dataclasses import asdict

import pytest

from conftest import (
    HOSTILE_ANSWERS,
    OK_JSON,
    SIZED_OK,
    TLS_CERT,
    FakeBackend,
    RawAnswer,
    StubHandler,
    chunked,
    ok_body,
)
from kgcausal import __version__
from kgcausal.errors import (
    BackendRejected,
    BackendUnavailable,
    CapabilityMissing,
    KgcausalError,
    UnparseableLabel,
)
from kgcausal.llm import (
    BACKOFF_BASE,
    Completion,
    CompletionRequest,
    HttpBackend,
    MockOracle,
    MockOracleConfig,
    ask_label,
    label_logprob,
    label_probability,
    map_pairs,
    probability,
)
from kgcausal.util import read_fields, read_json

MOTIF_CONFIG = MockOracleConfig(causal_motifs=(("stress hormone",),),
                                base_confidence=0.8, noise_seed=3, flip_rate=0.0)


def sre_like_prompt(path_line):
    return (f"Classify the relation.\n\n[Pair]:\na and b\n\n"
            f"[Relation Paths]: {path_line}\n\n[Relation]: ")


class TestMockOracle:
    def test_motif_prompt_answers_causal_with_base_confidence(self):
        backend = MockOracle(MOTIF_CONFIG)
        request = CompletionRequest(prompt=sre_like_prompt("a - stress hormone m1 - b"))
        completion = backend.complete(request)
        assert completion.text == "causal"
        label, p = label_probability(completion)
        assert label == "causal"
        assert p == pytest.approx(0.8)

    def test_no_motif_answers_non_causal(self):
        backend = MockOracle(MOTIF_CONFIG)
        completion = backend.complete(
            CompletionRequest(prompt=sre_like_prompt("a - protein m2 - b")))
        assert completion.text == "non-causal"

    def test_motif_outside_path_block_is_ignored(self):
        backend = MockOracle(MOTIF_CONFIG)
        prompt = ("Context mentions stress hormone levels.\n\n"
                  "[Relation Paths]: a - protein m2 - b\n\n[Relation]: ")
        assert backend.complete(CompletionRequest(prompt=prompt)).text == "non-causal"

    def test_multi_token_motif_requires_order(self):
        config = MockOracleConfig(causal_motifs=(("gene", "disease"),),
                                  base_confidence=0.9)
        backend = MockOracle(config)
        assert backend.complete(CompletionRequest(
            prompt=sre_like_prompt("gene g1 - disease d1"))).text == "causal"
        assert backend.complete(CompletionRequest(
            prompt=sre_like_prompt("disease d1 - gene g1"))).text == "non-causal"

    def test_pure_function_across_instances(self):
        prompt = sre_like_prompt("a - stress hormone m1 - b")
        one = MockOracle(MOTIF_CONFIG).complete(CompletionRequest(prompt=prompt))
        two = MockOracle(MOTIF_CONFIG).complete(CompletionRequest(prompt=prompt))
        assert one == two

    def test_flips_are_deterministic_and_roughly_at_rate(self):
        config = MockOracleConfig(causal_motifs=(("stress hormone",),),
                                  base_confidence=0.9, noise_seed=1, flip_rate=0.2)
        backend = MockOracle(config)
        flipped = 0
        for i in range(500):
            prompt = sre_like_prompt(f"a - protein m{i} - b")
            first = backend.complete(CompletionRequest(prompt=prompt)).text
            again = backend.complete(CompletionRequest(prompt=prompt)).text
            assert first == again
            if first == "causal":
                flipped += 1
        assert 0.1 < flipped / 500 < 0.3

    def test_call_counter(self):
        backend = MockOracle(MOTIF_CONFIG)
        for _ in range(4):
            backend.complete(CompletionRequest(prompt="x [Relation]: "))
        assert backend.calls == 4

    def test_call_counter_under_threads(self):
        backend = MockOracle(MOTIF_CONFIG)
        request = CompletionRequest(prompt="x [Relation]: ")

        def hammer():
            for _ in range(300):
                backend.complete(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert backend.calls == 8 * 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MockOracleConfig(causal_motifs=(), base_confidence=0.9)
        with pytest.raises(ValueError):
            MockOracleConfig(causal_motifs=(("m",),), base_confidence=0.4)
        with pytest.raises(ValueError):
            MockOracleConfig(causal_motifs=(("m",),), base_confidence=0.9, flip_rate=0.6)

    def test_config_json_round_trip(self, tmp_path):
        path = tmp_path / "mock.json"
        path.write_text(json.dumps(asdict(MOTIF_CONFIG)), encoding="utf-8")
        assert read_json(path, lambda d: read_fields(MockOracleConfig, d)) == MOTIF_CONFIG
        assert read_fields(MockOracleConfig, asdict(MOTIF_CONFIG)) == MOTIF_CONFIG


class TestLabelProbability:
    def test_single_token_probability(self):
        completion = Completion(text="causal", tokens=(("causal", math.log(0.8)),),
                                backend_id="fake")
        assert label_probability(completion) == ("causal", pytest.approx(0.8))

    def test_multi_token_geometric_mean(self):
        completion = Completion(
            text="non-causal",
            tokens=(("non-", math.log(0.9)), ("causal", math.log(0.9))),
            backend_id="fake")
        label, p = label_probability(completion)
        assert label == "non-causal"
        assert p == pytest.approx(0.9)

    def test_unparseable(self):
        completion = Completion(text="the answer is unclear",
                                tokens=(("the answer is unclear", -0.5),),
                                backend_id="fake")
        with pytest.raises(UnparseableLabel):
            label_probability(completion)

    def test_non_causal_never_parses_as_causal(self):
        for text in ("non-causal", "noncausal", "Non Causal", " NON-CAUSAL."):
            completion = Completion(text=text, tokens=((text, -0.1),), backend_id="fake")
            label, _ = label_probability(completion)
            assert label == "non-causal"

    def test_surrounding_text_ok(self):
        completion = Completion(
            text="I think it is causal here",
            tokens=(("I think it is ", -2.0), ("causal", math.log(0.7)), (" here", -1.0)),
            backend_id="fake")
        label, p = label_probability(completion)
        assert label == "causal"
        assert p == pytest.approx(0.7)

    def test_label_after_text_whose_lowercase_is_longer(self):
        """"İ".lower() is two characters, so a label found in the lowercased
        text would sit past the tokens it came from."""
        completion = Completion(text="İİİİİİcausal",
                                tokens=(("İİİİİİ", -2.0), ("causal", math.log(0.7))),
                                backend_id="fake")
        assert label_probability(completion) == ("causal", pytest.approx(0.7))

    def test_probability_always_in_unit_interval(self):
        import random
        rng = random.Random(9)
        for _ in range(200):
            tokens = tuple(("causal" if i == 0 else f"t{i}", -rng.random() * 5)
                           for i in range(rng.randint(1, 4)))
            completion = Completion(text="causal etc", tokens=tokens, backend_id="fake")
            _, p = label_probability(completion)
            assert 0.0 <= p <= 1.0

    def test_requires_logprobs(self):
        completion = Completion(text="causal", tokens=(), backend_id="fake")
        with pytest.raises(CapabilityMissing):
            label_probability(completion)


class TestLabelLogprob:
    def test_label_only_in_text_averages_every_token(self):
        """The tokens concatenate to "cax", so their offsets do not locate
        the label found in the text; the mean covers all of them."""
        completion = Completion(text="causal", tokens=(("ca", -0.2), ("x", -0.4)),
                                backend_id="fake")
        assert label_logprob(completion) == ("causal", -0.30000000000000004)

    def test_mean_of_logprobs_whose_sum_overflows_is_finite(self):
        completion = Completion(text="causal", tokens=(("cau", -1e308), ("sal", -1e308)),
                                backend_id="fake")
        assert label_logprob(completion) == ("causal", -1e308)

    def test_probability_of_a_mean(self):
        assert probability(math.log(0.8)) == pytest.approx(0.8)
        assert probability(-800.0) == 0.0
        assert probability(None) == 0.0

    def test_ask_label_reads_no_label_as_none(self):
        backend = FakeBackend([FakeBackend.single("no idea"), FakeBackend.single("causal", 0.8)])
        assert ask_label(backend, "p") == (None, None, "fake")
        assert ask_label(backend, "p") == ("causal", math.log(0.8), "fake")


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """The delays the backend waits before its retries, not slept."""
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        return delays

    @pytest.fixture(autouse=True)
    def close_backends(self):
        """Every backend a test made is closed when the test ends."""
        self.opened = []
        yield
        for backend in self.opened:
            backend.close()

    def backend(self, server, scheme="http", **kwargs):
        backend = HttpBackend(endpoint=f"{scheme}://127.0.0.1:{server.server_address[1]}",
                              model="test-model", **kwargs)
        self.opened.append(backend)
        return backend

    def test_close_releases_the_pooled_connection(self, stub_server):
        stub_server.script = [(200, ok_body())]
        unraisable = []
        previous_hook = sys.unraisablehook
        # A warning raised as an error inside a finalizer reaches
        # sys.unraisablehook instead of the caller.
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                backend = self.backend(stub_server)
                backend.complete(CompletionRequest(prompt="p"))
                assert not stub_server.disconnected.is_set()
                backend.close()
                # the backend is still referenced: only close() can have
                # dropped the connection
                assert stub_server.disconnected.wait(timeout=5)
                del backend
                self.opened.clear()
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        assert [str(u.exc_value) for u in unraisable] == []

    def test_parses_canned_response(self, stub_server):
        stub_server.script = [(200, ok_body("causal", -0.25))]
        completion = self.backend(stub_server).complete(CompletionRequest(prompt="p"))
        assert completion.text == "causal"
        assert completion.tokens == (("causal", -0.25),)
        assert completion.backend_id == "http:test-model"
        sent = stub_server.requests[0]
        assert sent["prompt"] == "p"
        assert sent["logprobs"] is True

    @pytest.mark.parametrize("status", [500, 429, 408])
    def test_retries_transient_500_then_succeeds(self, stub_server, status):
        stub_server.script = [(status, {}), (status, {}), (200, ok_body())]
        completion = self.backend(stub_server, max_retries=3).complete(
            CompletionRequest(prompt="p"))
        assert completion.text == "causal"
        assert len(stub_server.requests) == 3

    def test_retry_after_seconds_are_honoured(self, stub_server, sleeps):
        stub_server.script = [(429, {}, {"Retry-After": "7"}),
                              (503, {}, {"Retry-After": "0"}), (200, ok_body())]
        completion = self.backend(stub_server, max_retries=3).complete(
            CompletionRequest(prompt="p"))
        assert completion.text == "causal"
        assert sleeps == [7.0, 0.0]

    def test_backoff_is_exponential_with_jitter(self, stub_server, sleeps):
        # A Retry-After that is not whole seconds (an HTTP date here) is ignored.
        stub_server.script = [(500, {}), (429, {}, {"Retry-After": "Wed, 21 Oct 2015"})]
        with pytest.raises(BackendUnavailable):
            self.backend(stub_server, max_retries=6).complete(CompletionRequest(prompt="p"))
        caps = [BACKOFF_BASE * 2 ** i for i in range(6)]
        assert len(sleeps) == 6
        assert all(0.0 <= delay <= cap for delay, cap in zip(sleeps, caps))
        assert sleeps != caps

    def test_attempts_capped_by_max_retries(self, stub_server):
        stub_server.script = [(500, {})]
        with pytest.raises(BackendUnavailable):
            self.backend(stub_server, max_retries=2).complete(CompletionRequest(prompt="p"))
        assert len(stub_server.requests) == 1 + 2

    def test_client_error_rejected_without_retry(self, stub_server):
        stub_server.script = [(400, {"error": "bad request"})]
        with pytest.raises(BackendRejected) as info:
            self.backend(stub_server, max_retries=3).complete(CompletionRequest(prompt="p"))
        assert info.value.status == 400
        assert "bad request" in info.value.body_excerpt
        assert len(stub_server.requests) == 1

    def test_non_json_success_body_is_retried(self, stub_server):
        stub_server.script = [(200, b"<html>gateway hiccup</html>"), (200, ok_body())]
        completion = self.backend(stub_server, max_retries=1).complete(
            CompletionRequest(prompt="p"))
        assert completion.text == "causal"
        assert len(stub_server.requests) == 2

    def test_non_json_success_body_unavailable_after_retries(self, stub_server):
        stub_server.script = [(200, b"not json")]
        with pytest.raises(BackendUnavailable, match="not JSON"):
            self.backend(stub_server, max_retries=2).complete(CompletionRequest(prompt="p"))
        assert len(stub_server.requests) == 1 + 2

    def test_call_counter(self, stub_server):
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server)
        for _ in range(3):
            backend.complete(CompletionRequest(prompt="p"))
        assert backend.calls == 3

    def test_missing_logprobs_raises_capability(self, stub_server):
        stub_server.script = [(200, {"choices": [{"text": "causal"}]})]
        with pytest.raises(CapabilityMissing):
            self.backend(stub_server).complete(CompletionRequest(prompt="p"))

    @pytest.mark.parametrize("choice", [
        {"text": "causal", "logprobs": "oops"},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": ["x"]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [{}]}},
        {"text": "causal", "logprobs": {"tokens": [5], "token_logprobs": [-0.1]}},
        {"text": 5, "logprobs": {"tokens": ["5"], "token_logprobs": [-0.1]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [True]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": ["nan"]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": ["-0.5"]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [math.nan]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [-10 ** 400]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [-math.inf]}},
        {"text": "causal", "logprobs": {"tokens": ["causal"], "token_logprobs": [math.inf]}},
    ], ids=["logprobs-not-an-object", "logprob-not-a-number", "logprob-an-object",
            "token-not-a-string", "text-not-a-string", "logprob-true", "logprob-string-nan",
            "logprob-string-number", "logprob-nan", "logprob-overflows-float",
            "logprob-minus-infinity", "logprob-plus-infinity"])
    def test_malformed_body_skips_only_its_pair(self, stub_server, choice):
        stub_server.script = [(200, {"choices": [choice]}), (200, ok_body("causal"))]
        backend = self.backend(stub_server, parallelism=1)
        result = map_pairs(lambda prompt: ask_label(backend, prompt), ["p1", "p2"], backend,
                           qid=str)
        assert result.skipped_backend_error == 1
        assert [label for label, _, _ in result.records] == ["causal"]

    def test_connection_refused_unavailable(self):
        backend = HttpBackend(endpoint="http://127.0.0.1:1", model="m", max_retries=1)
        with pytest.raises(BackendUnavailable):
            backend.complete(CompletionRequest(prompt="p"))

    @pytest.mark.parametrize("endpoint", ["localhost:8000/v1/completions",
                                          "ftp://127.0.0.1/v1", "http:///v1"])
    def test_endpoint_that_is_not_an_http_url_is_rejected(self, endpoint):
        with pytest.raises(ValueError, match="not an http or https URL"):
            HttpBackend(endpoint=endpoint, model="m")

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1/v1 completions",
                                          "http://127.0.0.1/v1/complétions"],
                             ids=["space", "non-ascii"])
    def test_endpoint_whose_target_is_not_printable_ascii_is_rejected(self, endpoint):
        with pytest.raises(ValueError, match="not an http or https URL"):
            HttpBackend(endpoint=endpoint, model="m")

    @pytest.mark.parametrize("location", ["/v2 completions", "/v2/complétions"],
                             ids=["space", "non-ascii"])
    def test_redirect_to_a_target_that_is_not_printable_ascii_is_rejected(
            self, stub_server, location):
        stub_server.script = [(307, b"", {"Location": location}), (200, ok_body())]
        with pytest.raises(BackendRejected) as info:
            self.backend(stub_server, max_retries=3).complete(CompletionRequest(prompt="p"))
        assert info.value.status == 307
        assert len(stub_server.requests) == 1

    def test_credential_header(self, stub_server, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "sk-secret")
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server, credential_env="TEST_LLM_KEY")
        backend.complete(CompletionRequest(prompt="p"))
        assert stub_server.authorizations == ["Bearer sk-secret"]
        assert "sk-secret" not in json.dumps(stub_server.requests[0])

    @pytest.mark.parametrize("credential_env, expected", [
        ("TEST_LLM_KEY", "Bearer sk-secret"), (None, None)])
    def test_netrc_entry_is_never_sent(self, stub_server, monkeypatch, tmp_path,
                                       credential_env, expected):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login alice password hunter2\n")
        netrc.chmod(0o600)
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("TEST_LLM_KEY", "sk-secret")
        stub_server.script = [(200, ok_body())]
        self.backend(stub_server, credential_env=credential_env).complete(
            CompletionRequest(prompt="p"))
        assert stub_server.authorizations == [expected]

    def test_environment_proxy_carries_the_request(self, stub_server, monkeypatch):
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{stub_server.server_address[1]}")
        stub_server.script = [(200, ok_body())]
        backend = HttpBackend(endpoint="http://backend.invalid/v1/completions", model="m",
                              max_retries=0)
        self.opened.append(backend)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(stub_server.requests) == 1

    def test_no_proxy_is_honoured(self, stub_server, monkeypatch):
        for name in ("http_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:1")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server, max_retries=0)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(stub_server.requests) == 1

    def test_connection_closed_by_its_answer_is_replaced(self, stub_server, caplog):
        stub_server.script = [(200, ok_body(), {"Connection": "close"}), (200, ok_body())]
        backend = self.backend(stub_server, max_retries=0)
        backend.complete(CompletionRequest(prompt="p"))
        assert stub_server.disconnected.wait(timeout=5)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(stub_server.requests) == 2
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_connection_closed_while_idle_is_replaced(self, stub_server, monkeypatch,
                                                      caplog):
        monkeypatch.setattr(StubHandler, "timeout", 0.2)
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server, max_retries=0)
        backend.complete(CompletionRequest(prompt="p"))
        # the handler's idle timeout closes the kept-alive connection
        assert stub_server.disconnected.wait(timeout=5)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(stub_server.requests) == 2
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    @pytest.mark.parametrize("status, location", [
        (301, "/v2"), (302, "/v2"), (303, "/v2"),
        (307, "http://backend.invalid/v1"), (308, "https://127.0.0.1/v1")],
        ids=["301", "302", "303", "307-other-host", "308-other-scheme"])
    def test_redirect_is_rejected_without_a_second_request(self, stub_server, status,
                                                           location):
        stub_server.script = [(status, b"", {"Location": location}), (200, ok_body())]
        with pytest.raises(BackendRejected) as info:
            self.backend(stub_server, max_retries=3).complete(CompletionRequest(prompt="p"))
        assert info.value.status == status
        assert location in str(info.value)
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("status", [307, 308])
    def test_same_origin_redirect_repeats_the_post(self, stub_server, status):
        stub_server.script = [(status, b"", {"Location": "/v2"}), (200, ok_body())]
        completion = self.backend(stub_server, max_retries=0).complete(
            CompletionRequest(prompt="p"))
        assert completion.text == "causal"
        assert len(stub_server.requests) == 2
        assert stub_server.requests[0] == stub_server.requests[1]

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_https_trusts_the_ca_bundle_variable(self, tls_stub_server, monkeypatch,
                                                 variable):
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(variable, str(TLS_CERT))
        tls_stub_server.script = [(200, ok_body())]
        backend = self.backend(tls_stub_server, scheme="https", max_retries=0)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(tls_stub_server.requests) == 1

    def test_https_without_a_trusted_certificate_is_unavailable(self, tls_stub_server,
                                                                monkeypatch, caplog):
        for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        with pytest.raises(BackendUnavailable, match="after 3 attempts"):
            self.backend(tls_stub_server, scheme="https", max_retries=2).complete(
                CompletionRequest(prompt="p"))
        assert len([r for r in caplog.records if "attempt" in r.getMessage()]) == 3
        assert tls_stub_server.requests == []

    def test_https_proxy_tunnels_with_connect(self, tls_stub_server, connect_proxy,
                                              monkeypatch):
        for name in ("https_proxy", "no_proxy", "NO_PROXY", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{connect_proxy.server_address[1]}")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(TLS_CERT))
        tls_stub_server.script = [(200, ok_body())]
        backend = self.backend(tls_stub_server, scheme="https", max_retries=0)
        assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        backend.close()  # ends the tunnel before the proxy shuts down
        assert connect_proxy.connects == [f"127.0.0.1:{tls_stub_server.server_address[1]}"]
        assert len(tls_stub_server.requests) == 1

    def test_request_head(self, stub_server):
        stub_server.script = [(200, ok_body())]
        port = stub_server.server_address[1]
        backend = HttpBackend(endpoint=f"http://127.0.0.1:{port}/v1/completions?version=2",
                              model="m")
        self.opened.append(backend)
        backend.complete(CompletionRequest(prompt="p"))
        line, fields = stub_server.heads[0]
        assert line == "POST /v1/completions?version=2 HTTP/1.1"
        assert sorted(fields) == sorted([
            ("Host", f"127.0.0.1:{port}"), ("Accept-Encoding", "identity"),
            ("Content-Type", "application/json"), ("User-Agent", f"kgcausal/{__version__}"),
            ("Content-Length", str(len(json.dumps(stub_server.requests[0]))))])

    @pytest.mark.parametrize("endpoint, host", [
        ("http://backend.invalid:8080/v1/completions", "backend.invalid:8080"),
        ("http://backend.invalid/v1/completions?version=2", "backend.invalid")])
    def test_http_proxy_is_sent_the_absolute_url(self, stub_server, monkeypatch, endpoint,
                                                 host):
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{stub_server.server_address[1]}")
        stub_server.script = [(200, ok_body())]
        backend = HttpBackend(endpoint=endpoint, model="m", max_retries=0)
        self.opened.append(backend)
        backend.complete(CompletionRequest(prompt="p"))
        line, fields = stub_server.heads[0]
        assert line == f"POST {endpoint} HTTP/1.1"
        assert dict(fields)["Host"] == host

    def test_credential_is_read_for_each_request(self, stub_server, monkeypatch):
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server, credential_env="TEST_LLM_KEY")
        for secret in ("sk-one", "sk-two", None):
            if secret:
                monkeypatch.setenv("TEST_LLM_KEY", secret)
            else:
                monkeypatch.delenv("TEST_LLM_KEY", raising=False)
            backend.complete(CompletionRequest(prompt="p"))
        monkeypatch.setenv("TEST_LLM_KEY", "sk-three")
        self.backend(stub_server).complete(CompletionRequest(prompt="p"))
        assert stub_server.authorizations == ["Bearer sk-one", "Bearer sk-two", None, None]

    def test_each_request_is_one_write(self, stub_server, monkeypatch):
        class WriteRecorder:
            """A socket that records each use of its send methods."""

            def __init__(self, sock):
                self.sock = sock
                self.writes = []

            def __getattr__(self, name):
                if name.startswith("send"):
                    self.writes.append(name)
                return getattr(self.sock, name)

        connect = http.client.HTTPConnection.connect
        sockets = []

        def recording_connect(conn):
            connect(conn)
            conn.sock = WriteRecorder(conn.sock)
            sockets.append(conn.sock)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", recording_connect)
        stub_server.script = [(200, ok_body())]
        backend = self.backend(stub_server)
        for _ in range(3):
            assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert len(sockets) == 1
        assert sockets[0].writes == ["sendall"] * 3

    def test_pooled_connection_past_descriptor_1024_is_reused(self, stub_server):
        """select() refuses a descriptor of 1,024 or more; the check of an
        idle connection must not."""
        if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
            pytest.skip("the soft limit on open files is below 1,200")
        stub_server.script = [(200, ok_body())]
        fds = [os.open(os.devnull, os.O_RDONLY)]
        try:
            fds += [os.dup(fds[0]) for _ in range(1100)]
            backend = self.backend(stub_server, max_retries=0)
            for _ in range(2):
                assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        finally:
            for fd in fds:
                os.close(fd)
        assert max(fds) >= 1024
        assert len(stub_server.requests) == 2
        assert stub_server.peers[0] == stub_server.peers[1]

    @pytest.mark.parametrize("answer, pooled", [
        (RawAnswer(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(OK_JSON),
                   close=False), True),
        (RawAnswer(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + OK_JSON),
         False),
        (RawAnswer(b"HTTP/1.1 200 OK\r\nConnection: close\r\n" + SIZED_OK, close=False), False),
        (RawAnswer(b"HTTP/1.0 200 OK\r\n" + SIZED_OK, close=False), False),
        (RawAnswer(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n" + SIZED_OK, close=False),
         True),
        (RawAnswer(b"HTTP/1.1 204 No Content\r\n\r\n", close=False), True),
        (RawAnswer(b"HTTP/1.1 200 OK\r\n" + b"X-Field: 1\r\n" * 98 + SIZED_OK, close=False),
         True),
        (RawAnswer(b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\nTransfer-Encoding: chunked\r\n\r\n"
                   + chunked(OK_JSON), close=False), False),
    ], ids=["chunked", "close-delimited", "connection-close", "http-1.0", "100-continue",
            "204-then-retry", "99-header-fields", "chunked-beside-a-length"])
    def test_framing(self, stub_server, answer, pooled):
        """Each answer is read whole; its connection is used again only when
        the answer leaves it open."""
        stub_server.script = [answer, (200, ok_body())]
        backend = self.backend(stub_server, max_retries=1)
        for _ in range(2):
            assert backend.complete(CompletionRequest(prompt="p")).text == "causal"
        assert (stub_server.peers[0] == stub_server.peers[-1]) == pooled

    @pytest.mark.parametrize("answer", HOSTILE_ANSWERS.values(), ids=HOSTILE_ANSWERS)
    def test_unframeable_answer_is_retried_then_skips_its_pair(self, stub_server, sleeps,
                                                               caplog, answer):
        stub_server.script = [RawAnswer(answer)] * 3 + [(200, ok_body())]
        backend = self.backend(stub_server, max_retries=2, parallelism=1)
        result = map_pairs(lambda prompt: ask_label(backend, prompt), ["p1", "p2"], backend,
                           qid=str)
        assert result.skipped_backend_error == 1
        assert [label for label, _, _ in result.records] == ["causal"]
        assert len(stub_server.requests) == 4
        assert len(sleeps) == 2
        assert "skipping p1: backend unreachable after 3 attempts" in caplog.text

    def test_mangled_answers_parse_or_raise_a_kgcausal_error(self, stub_server):
        """A seeded fuzz of the response reader: valid answers cut short at
        random points, or with one byte changed.  The client either returns
        a completion or raises a KgcausalError, which the commands report;
        any other exception is a traceback."""
        rng = random.Random("fuzz:http")
        valid = (b"HTTP/1.1 200 OK\r\n" + SIZED_OK,
                 b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked(OK_JSON))
        failures = []
        for answer in valid:
            for _ in range(60):
                flipped = bytearray(answer)
                flipped[rng.randrange(len(answer))] ^= rng.randrange(1, 256)
                for mangled in (answer[:rng.randrange(len(answer))], bytes(flipped)):
                    stub_server.script = [RawAnswer(mangled)]
                    backend = self.backend(stub_server, max_retries=0)
                    try:
                        backend.complete(CompletionRequest(prompt="p"))
                    except KgcausalError:
                        pass
                    except Exception as exc:  # a traceback at the command line
                        failures.append(f"{mangled!r}: {type(exc).__name__}: {exc}")
                    backend.close()
        assert not failures, "\n".join(failures[:20])


class TestMapPairs:
    def test_threads_skip_a_failed_pair_and_keep_input_order(self):
        """Five jobs on two threads, the middle one failing; later jobs sleep
        less, so they finish first."""
        threads = set()

        def fn(job):
            threads.add(threading.get_ident())
            if job == 2:
                raise BackendUnavailable("down")
            time.sleep(0.01 * (5 - job))
            return f"record {job}"

        class TwoThreads:
            parallelism = 2

        result = map_pairs(fn, list(range(5)), TwoThreads(), qid=str)
        assert result.records == ["record 0", "record 1", "record 3", "record 4"]
        assert result.skipped_backend_error == 1
        assert result.backend_calls is None
        assert len(threads) == 2


class TestRequestValidation:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="")

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            Completion(text="x", tokens=(("x", 0.5),), backend_id="b")
