"""End-to-end CLI tests on bundled synthetic fixtures."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ok_body
from kgcausal import cli
from kgcausal.cli import DEFAULT_CONFIG, EXIT_CONFIG, EXIT_DEGRADED, EXIT_OK, main
from kgcausal.synthetic import make_planted_world, write_instances_jsonl, write_kg_jsonl


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic world written to disk plus a ready pipeline config."""
    root = tmp_path_factory.mktemp("cliworld")
    world = make_planted_world(n_pairs=30, flip_rate=0.0, seed=13)
    write_kg_jsonl(world, root / "kg.jsonl")
    write_instances_jsonl(world.instances, root / "pairs.jsonl")
    (root / "mock.json").write_text(json.dumps(world.mock_config.to_dict()), encoding="utf-8")
    config = {
        "kg": {"path": str(root / "kg.jsonl")},
        "llm": {"backend": "mock", "mock_config_path": str(root / "mock.json")},
        "ranker": {"kind": "gbdt", "gbdt": {"rounds": 10, "depth": 3, "lr": 0.3},
                   "ngram": {"n": 2, "d": 32, "epochs": 3, "lr": 0.5}},
        "seed": 42,
    }
    (root / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return root, world


def run(*argv):
    return main([str(a) for a in argv])


def test_cli_loads_no_third_party_http_stack():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kgcausal.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


class TestExtract:
    def test_writes_one_record_per_pair(self, workdir, tmp_path):
        root, world = workdir
        out = tmp_path / "candidates.jsonl"
        code = run("extract", root / "pairs.jsonl", "--config", root / "config.json",
                   "--out", out)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == len(world.instances)
        assert all(row["subgraphs"] for row in rows)
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"]["seed"] == 42
        assert meta["summary"]["pairs_with_candidates"] == len(world.instances)

    def test_rerun_deterministic(self, workdir, tmp_path):
        root, _ = workdir
        one = tmp_path / "a.jsonl"
        two = tmp_path / "b.jsonl"
        run("extract", root / "pairs.jsonl", "--config", root / "config.json", "--out", one)
        run("extract", root / "pairs.jsonl", "--config", root / "config.json", "--out", two)
        assert one.read_bytes() == two.read_bytes()

    def test_unknown_pair_yields_empty_candidates(self, workdir, tmp_path):
        root, _ = workdir
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({
            "qid": "qx", "e1": "missing entity", "e2": "also missing",
            "context": "", "label": "causal"}) + "\n", encoding="utf-8")
        out = tmp_path / "candidates.jsonl"
        code = run("extract", pairs, "--config", root / "config.json", "--out", out)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[0]["subgraphs"] == []

    def test_bad_kg_path_exits_2(self, workdir, tmp_path, capsys):
        root, _ = workdir
        config = {"kg": {"path": str(tmp_path / "missing.jsonl")},
                  "llm": {"backend": "mock", "mock_config_path": str(root / "mock.json")}}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = run("extract", root / "pairs.jsonl", "--config", cfg,
                   "--out", tmp_path / "out.jsonl")
        assert code == EXIT_CONFIG
        assert "missing.jsonl" in capsys.readouterr().err


RANKED_SCHEMA = {
    "type": "object",
    "required": ["qid", "e1", "e2", "groundtruth", "metapaths"],
    "properties": {
        "qid": {"type": "string"},
        "e1": {"type": "string"},
        "e2": {"type": "string"},
        "groundtruth": {"enum": ["0", "1"]},
        "metapaths": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["pathid", "relscore", "probscore", "relevant",
                             "stops", "reltypes", "nodelabels"],
                "properties": {
                    "pathid": {"type": "integer", "minimum": 1},
                    "relscore": {"type": "number"},
                    "probscore": {"type": ["number", "null"]},
                    "relevant": {"enum": ["0", "1"]},
                    "stops": {"type": "string"},
                    "reltypes": {"type": "string"},
                    "nodelabels": {"type": "string"},
                },
            },
        },
    },
}


@pytest.fixture(scope="module")
def pipeline(workdir, tmp_path_factory):
    """Run extract -> estimate -> train -> rank -> discover once."""
    root, world = workdir
    out = tmp_path_factory.mktemp("artifacts")
    args = ["--config", root / "config.json"]
    assert run("extract", root / "pairs.jsonl", *args,
               "--out", out / "candidates.jsonl") == EXIT_OK
    assert run("estimate", out / "candidates.jsonl", *args,
               "--out", out / "ranked.jsonl") == EXIT_OK
    assert run("train", out / "ranked.jsonl", *args,
               "--out", out / "model.json") == EXIT_OK
    assert run("rank", out / "model.json", out / "ranked.jsonl", *args,
               "--out", out / "rankings.jsonl") == EXIT_OK
    assert run("discover", out / "model.json", root / "pairs.jsonl", *args,
               "--out", out / "predictions.jsonl") == EXIT_OK
    return root, world, out


class TestEstimate:
    def test_output_matches_record_schema(self, pipeline):
        jsonschema = pytest.importorskip("jsonschema")
        _, world, out = pipeline
        rows = [json.loads(line)
                for line in (out / "ranked.jsonl").read_text().splitlines()]
        assert len(rows) == len(world.instances)
        for row in rows:
            jsonschema.validate(row, RANKED_SCHEMA)
            assert [m["pathid"] for m in row["metapaths"]] == list(
                range(1, len(row["metapaths"]) + 1))

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        root, _, out = pipeline
        again = tmp_path / "ranked2.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config",
                   root / "config.json", "--out", again) == EXIT_OK
        assert again.read_bytes() == (out / "ranked.jsonl").read_bytes()

    def test_backend_down_exits_2_without_output(self, workdir, tmp_path, capsys):
        root, _ = workdir
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "endpoint": "http://127.0.0.1:1/v1/completions",
                    "model": "m", "max_retries": 0},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        candidates = tmp_path / "cands.jsonl"
        assert run("extract", root / "pairs.jsonl", "--config", cfg,
                   "--out", candidates) == EXIT_OK
        out = tmp_path / "ranked.jsonl"
        code = run("estimate", candidates, "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert not out.exists()


    def test_http_sidecar_counts_requests_served(self, workdir, pipeline, stub_server,
                                                 tmp_path):
        root, world, out = pipeline
        stub_server.script = [(200, ok_body("causal"))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m", "parallelism": 2,
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
            "seed": 42,
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ranked = tmp_path / "ranked.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config", cfg,
                   "--out", ranked) == EXIT_OK
        rows = [json.loads(line) for line in ranked.read_text().splitlines()]
        assert [row["qid"] for row in rows] == [inst.qid for inst in world.instances]
        meta = json.loads(Path(str(ranked) + ".meta.json").read_text())
        assert meta["summary"]["backend_calls"] == len(stub_server.requests)
        assert len(stub_server.requests) == sum(len(row["metapaths"]) for row in rows)

    def test_unparseable_answer_is_counted_and_exits_1(self, pipeline, stub_server, tmp_path):
        root, world, out = pipeline
        stub_server.script = [(200, ok_body("maybe")), (200, ok_body("causal"))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m",
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ranked = tmp_path / "ranked.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config", cfg,
                   "--out", ranked) == EXIT_DEGRADED
        rows = [json.loads(line) for line in ranked.read_text().splitlines()]
        assert [row["qid"] for row in rows] == [inst.qid for inst in world.instances]
        assert sum(mp["probscore"] is None for row in rows for mp in row["metapaths"]) == 1
        summary = json.loads(Path(str(ranked) + ".meta.json").read_text())["summary"]
        assert summary["unparseable"] == 1

    @pytest.mark.parametrize("logprob", [-0.1, -800.0])
    def test_probscore_is_the_answer_logprob(self, pipeline, stub_server, tmp_path, logprob):
        """At -800 the probability underflows to 0; the label still parsed."""
        root, _, out = pipeline
        stub_server.script = [(200, ok_body("causal", logprob=logprob))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m",
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ranked = tmp_path / "ranked.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config", cfg,
                   "--out", ranked) == EXIT_OK
        rows = [json.loads(line) for line in ranked.read_text().splitlines()]
        assert {mp["probscore"] for row in rows for mp in row["metapaths"]} == {logprob}
        summary = json.loads(Path(str(ranked) + ".meta.json").read_text())["summary"]
        assert summary["unparseable"] == 0

    def test_label_split_over_tokens_whose_sum_overflows(self, pipeline, stub_server,
                                                         tmp_path):
        """Two tokens at -1e308 each: their sum is -inf, their mean is not, and
        ranked.jsonl stays JSON."""
        root, _, out = pipeline
        stub_server.script = [(200, {"choices": [{"text": "causal", "logprobs": {
            "tokens": ["cau", "sal"], "token_logprobs": [-1e308, -1e308]}}]})]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m",
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ranked = tmp_path / "ranked.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config", cfg,
                   "--out", ranked) == EXIT_OK
        assert "Infinity" not in ranked.read_text()
        rows = [json.loads(line) for line in ranked.read_text().splitlines()]
        assert {mp["probscore"] for row in rows for mp in row["metapaths"]} == {-1e308}

    def test_credential_goes_to_the_header_and_nowhere_else(self, pipeline, stub_server,
                                                            tmp_path, monkeypatch):
        root, _, out = pipeline
        secret = "sk-do-not-log-3141"
        monkeypatch.setenv("KGCAUSAL_TEST_CREDENTIAL", secret)
        stub_server.script = [(200, ok_body("causal"))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m",
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}",
                    "credential_env": "KGCAUSAL_TEST_CREDENTIAL"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        ranked = tmp_path / "ranked.jsonl"
        assert run("estimate", out / "candidates.jsonl", "--config", cfg,
                   "--out", ranked) == EXIT_OK
        assert set(stub_server.authorizations) == {f"Bearer {secret}"}
        meta = Path(str(ranked) + ".meta.json").read_text()
        assert json.loads(meta)["config"]["llm"]["credential_env"] == \
            "KGCAUSAL_TEST_CREDENTIAL"
        assert secret not in meta
        assert secret not in ranked.read_text()


class TestTrainRankDiscoverEval:
    def test_model_file_is_versioned_json(self, pipeline):
        _, _, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        assert doc["version"] == "v2"
        assert doc["kind"] == "gbdt"
        assert doc["ngram_lm"] is None
        assert doc["gbdt"]["n"] == 2

    def test_rankings_carry_gains(self, pipeline):
        _, _, out = pipeline
        rows = [json.loads(line)
                for line in (out / "rankings.jsonl").read_text().splitlines()]
        assert all("gain" in row["entries"][0] for row in rows if row["entries"])

    def test_full_report_has_all_sections(self, pipeline, tmp_path):
        root, _, out = pipeline
        report_path = tmp_path / "report.json"
        code = run("eval", out / "predictions.jsonl", root / "pairs.jsonl",
                   "--rankings", out / "rankings.jsonl",
                   "--config", root / "config.json", "--out", report_path)
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert {"precision", "recall", "f1", "tp", "fp", "fn", "tn"} <= set(
            report["classification"])
        assert "ndcg@5" in report["ranking"]
        assert "recall@5" in report["ranking"]
        assert report["config"]["seed"] == 42
        # flip_rate 0 and a planted signal: discovery should be near-perfect
        assert report["classification"]["f1"] >= 95.0

    def test_no_subgraph_baseline_runs(self, pipeline, tmp_path):
        root, world, out = pipeline
        predictions = tmp_path / "baseline.jsonl"
        code = run("discover", "none", root / "pairs.jsonl", "--config",
                   root / "config.json", "--out", predictions)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in predictions.read_text().splitlines()]
        assert all(row["subgraphs_used"] == [] for row in rows)
        assert all(row["predicted"] == "non-causal" for row in rows)

    def test_no_subgraph_baseline_loads_no_kg(self, workdir, tmp_path):
        """A config with only the llm section runs discover none, and its
        predictions are those of the same run with kg.path set."""
        root, world = workdir
        llm = json.loads((root / "config.json").read_text())["llm"]
        outputs = []
        for name, config in (("with_kg", {"llm": llm, "kg": {"path": str(root / "kg.jsonl")}}),
                             ("llm_only", {"llm": llm})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            predictions = tmp_path / f"{name}.jsonl"
            assert run("discover", "none", root / "pairs.jsonl", "--config", cfg,
                       "--out", predictions) == EXIT_OK
            outputs.append(predictions.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[1].splitlines()) == len(world.instances)

    def test_discover_backend_down_exits_2_without_output(self, pipeline, tmp_path):
        root, _, out = pipeline
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "endpoint": "http://127.0.0.1:1/v1/completions",
                    "model": "m", "max_retries": 0, "parallelism": 2},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        code = run("discover", out / "model.json", root / "pairs.jsonl", "--config", cfg,
                   "--out", predictions)
        assert code == EXIT_CONFIG
        assert not predictions.exists()

    def test_discover_skips_and_counts_failed_pairs_and_exits_1(self, pipeline, stub_server,
                                                                tmp_path):
        root, world, out = pipeline
        stub_server.script = [(400, {"error": "bad request"}), (200, ok_body("causal"))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m", "max_retries": 0,
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        code = run("discover", out / "model.json", root / "pairs.jsonl", "--config", cfg,
                   "--out", predictions)
        assert code == EXIT_DEGRADED
        rows = [json.loads(line) for line in predictions.read_text().splitlines()]
        assert [row["qid"] for row in rows] == [inst.qid for inst in world.instances[1:]]
        summary = json.loads(Path(str(predictions) + ".meta.json").read_text())["summary"]
        assert summary["skipped_backend_error"] == 1
        assert summary["predictions_written"] == len(world.instances) - 1
        assert summary["backend_calls"] == len(stub_server.requests) == len(world.instances)

    def test_eval_of_a_partial_discover_counts_the_missing_pair_and_exits_1(
            self, pipeline, stub_server, tmp_path):
        root, world, out = pipeline
        stub_server.script = [(400, {"error": "bad request"}), (200, ok_body("causal"))]
        config = {
            "kg": {"path": str(root / "kg.jsonl")},
            "llm": {"backend": "http", "model": "m", "max_retries": 0,
                    "endpoint": f"http://127.0.0.1:{stub_server.server_address[1]}"},
        }
        cfg = tmp_path / "http.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        assert run("discover", out / "model.json", root / "pairs.jsonl", "--config", cfg,
                   "--out", predictions) == EXIT_DEGRADED
        report_path = tmp_path / "report.json"
        code = run("eval", predictions, root / "pairs.jsonl", "--config", cfg,
                   "--out", report_path)
        assert code == EXIT_DEGRADED
        classification = json.loads(report_path.read_text())["classification"]
        assert classification["missing"] == 1
        # Every answer is "causal"; the pair without one counts as wrong.
        first_causal = world.instances[0].groundtruth == "causal"
        answered_causal = sum(inst.groundtruth == "causal" for inst in world.instances[1:])
        assert classification["tp"] == answered_causal
        assert classification["fn"] == int(first_causal)
        assert classification["fp"] == len(world.instances) - 1 - answered_causal \
            + int(not first_causal)
        assert classification["tn"] == 0

    def test_failed_write_leaves_previous_artifacts(self, pipeline, tmp_path, monkeypatch):
        root, _, out = pipeline
        model_path = tmp_path / "model.json"
        meta_path = Path(str(model_path) + ".meta.json")
        assert run("train", out / "ranked.jsonl", "--config", root / "config.json",
                   "--out", model_path) == EXIT_OK
        before = model_path.read_bytes(), meta_path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        code = run("train", out / "ranked.jsonl", "--config", root / "config.json",
                   "--kind", "random", "--out", model_path)
        assert code == EXIT_CONFIG
        assert (model_path.read_bytes(), meta_path.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "model.json", "model.json.meta.json"]

    def test_discover_rerun_byte_identical(self, pipeline, tmp_path):
        root, _, out = pipeline
        again = tmp_path / "predictions2.jsonl"
        assert run("discover", out / "model.json", root / "pairs.jsonl", "--config",
                   root / "config.json", "--out", again) == EXIT_OK
        assert again.read_bytes() == (out / "predictions.jsonl").read_bytes()


class TestVariants:
    def test_rank_accepts_raw_candidate_files(self, pipeline, tmp_path):
        root, _, out = pipeline
        rankings = tmp_path / "rankings.jsonl"
        code = run("rank", out / "model.json", out / "candidates.jsonl",
                   "--config", root / "config.json", "--out", rankings)
        assert code == EXIT_OK
        rows = [json.loads(line) for line in rankings.read_text().splitlines()]
        assert rows and all("score" in e for row in rows for e in row["entries"])
        assert all("gain" not in e for row in rows for e in row["entries"])

    def test_rank_of_a_pair_without_paths_writes_an_empty_ranking(self, pipeline, tmp_path):
        """A candidate row without subgraphs and a ranked row without
        metapaths each rank to an empty order."""
        root, _, out = pipeline
        source = tmp_path / "pathless.jsonl"
        source.write_text(
            json.dumps({"qid": "c", "e1": "a", "e2": "b", "context": "", "label": "causal",
                        "subgraphs": []}) + "\n"
            + json.dumps({"qid": "r", "e1": "a", "e2": "b", "groundtruth": "1",
                          "metapaths": []}) + "\n", encoding="utf-8")
        rankings = tmp_path / "rankings.jsonl"
        assert run("rank", out / "model.json", source, "--config", root / "config.json",
                   "--out", rankings) == EXIT_OK
        assert rankings.read_text() == (
            '{"qid": "c", "order": [], "entries": []}\n'
            '{"qid": "r", "order": [], "entries": []}\n')

    def test_train_flags_override_config(self, pipeline, tmp_path):
        root, _, out = pipeline
        model_path = tmp_path / "listnet.json"
        code = run("train", out / "ranked.jsonl", "--config", root / "config.json",
                   "--kind", "neural", "--loss", "listnet", "--out", model_path)
        assert code == EXIT_OK
        doc = json.loads(model_path.read_text())
        assert doc["kind"] == "neural"
        assert doc["loss_kind"] == "listnet"

    def test_report_carries_template_hashes(self, pipeline, tmp_path):
        root, _, out = pipeline
        report_path = tmp_path / "report.json"
        assert run("eval", out / "predictions.jsonl", root / "pairs.jsonl",
                   "--config", root / "config.json", "--out", report_path) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert set(report["template_hashes"]) == {"sre", "discovery"}


def first_row(edit):
    """A rewrite of a file's text into its first line as changed by ``edit``."""
    def rewrite(text):
        row = json.loads(text.splitlines()[0])
        edit(row)
        return json.dumps(row) + "\n"
    return rewrite


class TestBadInputs:
    @pytest.mark.parametrize("command,field,source,rest", [
        ("extract", "label", "pairs.jsonl", []),
        ("train", "groundtruth", "ranked.jsonl", []),
        ("rank", "kind", "model.json", ["ranked.jsonl"]),
        ("eval", "p", "predictions.jsonl", ["pairs.jsonl"]),
    ], ids=["extract", "train", "rank", "eval"])
    def test_row_without_a_required_field_exits_2_naming_file_and_field(
            self, pipeline, tmp_path, capsys, command, field, source, rest):
        """The first row of a good input, less one field, in place of that input."""
        root, _, out = pipeline

        def artifact(name):
            return out / name if (out / name).exists() else root / name

        row = json.loads(artifact(source).read_text().splitlines()[0])
        del row[field]
        bad = tmp_path / source
        bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
        result = tmp_path / "result"
        code = run(command, bad, *map(artifact, rest), "--config", root / "config.json",
                   "--out", result)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and f"missing field '{field}'" in err
        assert not result.exists()

    def test_row_that_is_not_an_object_exits_2(self, pipeline, tmp_path, capsys):
        root, _, _ = pipeline
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text('["q0", "a", "b"]\n', encoding="utf-8")
        result = tmp_path / "candidates.jsonl"
        code = run("extract", pairs, "--config", root / "config.json", "--out", result)
        assert code == EXIT_CONFIG
        assert f"error: {pairs}:1: expected a JSON object, not list" in capsys.readouterr().err
        assert not result.exists()

    @pytest.mark.parametrize("command,argv,source,rewrite,keys,message", [
        pytest.param("extract", ["BAD"], "pairs.jsonl", lambda _: "not json\n", {},
                     "invalid JSON", id="pairs-not-json"),
        pytest.param("extract", ["BAD"], "pairs.jsonl",
                     lambda _: '{"qid": 1, "e1": 5, "e2": "x", "label": "causal"}\n', {},
                     "e1 must be a string, not 5", id="int-e1"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     first_row(lambda row: row.update(metapaths=[1])), {},
                     "metapaths[0] must be an object, not 1", id="int-metapath"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     first_row(lambda row: row["metapaths"][0].update(pathid="x")), {},
                     'metapaths[0].pathid must be an integer, not "x"', id="pathid-x"),
        pytest.param("rank", ["model.json", "BAD"], "candidates.jsonl",
                     first_row(lambda row: row.update(e1=5)), {},
                     "e1 must be a string, not 5", id="rank-int-e1"),
        pytest.param("rank", ["BAD", "ranked.jsonl"], "model.json",
                     lambda text: text[:len(text) // 2], {}, "invalid JSON", id="truncated-model"),
        pytest.param("discover", ["BAD", "pairs.jsonl"], "model.json",
                     lambda text: text[:len(text) // 2], {"kg.path": "missing-kg.jsonl"},
                     "invalid JSON", id="model-read-before-graph"),
        pytest.param("estimate", ["candidates.jsonl"], "mock.json",
                     first_row(lambda doc: doc.pop("causal_motifs")),
                     {"llm.mock_config_path": "BAD"}, "missing field 'causal_motifs'",
                     id="mock-without-motifs"),
        pytest.param("estimate", ["candidates.jsonl"], "mock.json",
                     first_row(lambda doc: doc.update(causal_motifs=[[1]])),
                     {"llm.mock_config_path": "BAD"},
                     "causal_motifs[0][0] must be a string, not 1", id="mock-motif-int"),
        pytest.param("estimate", ["candidates.jsonl"], "mock.json",
                     first_row(lambda doc: doc.update(causal_motifs=["stress hormone"])),
                     {"llm.mock_config_path": "BAD"},
                     'causal_motifs[0] must be a list, not "stress hormone"',
                     id="mock-motif-string"),
        *[pytest.param("estimate", ["candidates.jsonl"], "mock.json",
                       first_row(lambda doc, value=value: doc.update(noise_seed=value)),
                       {"llm.mock_config_path": "BAD"}, "noise_seed must be an integer",
                       id=f"mock-noise-seed-{name}")
          for name, value in (("string", "7"), ("true", True), ("list", [1]),
                              ("object", {"a": 1}))],
        *[pytest.param("estimate", ["candidates.jsonl"], "mock.json",
                       first_row(lambda doc, key=key, value=value: doc.update({key: value})),
                       {"llm.mock_config_path": "BAD"}, f"{key} must be a number",
                       id=f"mock-{key.replace('_', '-')}-{name}")
          for key, name, value in (("base_confidence", "true", True),
                                   ("base_confidence", "string", "0.9"),
                                   ("flip_rate", "true", True), ("flip_rate", "null", None))],
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--rankings", "BAD"],
                     "rankings.jsonl", first_row(lambda row: row.update(entries=5)), {},
                     "entries must be a list of objects, not 5", id="int-entries"),
        *[pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--rankings", "BAD"],
                       "rankings.jsonl", first_row(lambda row, value=value: row.update(
                           entries=value)), {},
                       f"entries must be a list of objects, not {json.dumps(value)}",
                       id=f"rankings-entries-{name}")
          for value, name in (("x", "string"), ({}, "empty-object"),
                              ({"gain": 1}, "object"))],
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": ["a", "b"], "matrix": [[0, 1], [0]]}', {},
                     "setting an array element with a sequence", id="ragged-adjacency"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": ["a", "b"], "matrix": [[0, 1, 0], [0, 0, 0]]}',
                     {}, "adjacency matrix must have shape (2, 2), not (2, 3)",
                     id="non-square-adjacency"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": "ab", "matrix": [[0, 1], [0, 0]]}',
                     {}, "adjacency variables must be a list of distinct strings",
                     id="adjacency-variables-string"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": {"a": 0, "b": 1}, "matrix": [[0, 1], [0, 0]]}',
                     {}, "adjacency variables must be a list of distinct strings",
                     id="adjacency-variables-object"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": [1, 2], "matrix": [[0, 1], [0, 0]]}',
                     {}, "adjacency variables must be a list of distinct strings",
                     id="adjacency-variables-not-strings"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--gold-adjacency", "BAD"],
                     "adjacency.json",
                     lambda _: '{"variables": ["a", "a"], "matrix": [[0, 1], [0, 0]]}',
                     {}, "adjacency variables must be a list of distinct strings",
                     id="adjacency-variables-repeated"),
        pytest.param("train", ["BAD"], "ranked.jsonl", first_row(lambda row: row.update(e1=5)),
                     {}, "e1 must be a string, not 5", id="ranked-int-e1"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     first_row(lambda row: row["metapaths"][0].update(stops=5)), {},
                     "metapaths[0].stops must be a string, not 5", id="ranked-int-stops"),
        pytest.param("eval", ["BAD", "pairs.jsonl"], "predictions.jsonl",
                     first_row(lambda row: row.update(predicted="maybe")), {},
                     "predicted must be 'causal', 'non-causal' or null, not 'maybe'",
                     id="predicted-maybe"),
        pytest.param("extract", ["BAD"], "pairs.jsonl", lambda text: text.splitlines(True)[0] * 2,
                     {}, "qid 'q0000' repeated", id="pairs-repeated-qid"),
        pytest.param("eval", ["BAD", "pairs.jsonl"], "predictions.jsonl",
                     lambda text: text.splitlines(True)[0] * 2, {}, "qid 'q0000' repeated",
                     id="predictions-repeated-qid"),
        pytest.param("estimate", ["BAD"], "candidates.jsonl",
                     lambda text: text.splitlines(True)[0] * 2, {}, "qid 'q0000' repeated",
                     id="candidates-repeated-qid"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     lambda text: text.splitlines(True)[0] * 2, {}, "qid 'q0000' repeated",
                     id="ranked-repeated-qid"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--rankings", "BAD"],
                     "rankings.jsonl", lambda text: text.splitlines(True)[0] * 2, {},
                     "qid 'q0000' repeated", id="rankings-repeated-qid"),
        pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--rankings", "BAD"],
                     "rankings.jsonl", first_row(lambda row: row["entries"][0].update(
                         relevant="0")), {},
                     'entries[0].relevant must be a boolean, not "0"',
                     id="rankings-relevant-string"),
        *[pytest.param("eval", ["predictions.jsonl", "pairs.jsonl", "--rankings", "BAD"],
                       "rankings.jsonl", first_row(lambda row, i=i: row["entries"][i].pop("gain")),
                       {}, f"missing field 'entries[{i}].gain'", id=f"rankings-{name}-without-gain")
          for i, name in ((0, "first"), (1, "second"))],
        *[pytest.param("train", ["BAD"], "ranked.jsonl",
                       first_row(lambda row, key=key, value=value:
                                 row["metapaths"][0].update({key: value})), {},
                       f"metapaths[0].{key} must be {message}", id=f"ranked-{key}-{name}")
          for key, value, name, message in (
              ("pathid", True, "true", "an integer, not true"),
              ("relscore", True, "true", "a number, not true"),
              ("probscore", "-0.5", "string", 'a number, not "-0.5"'),
              ("relevant", [], "list", "a string, not []"))],
        pytest.param("eval", ["BAD", "pairs.jsonl"], "predictions.jsonl",
                     first_row(lambda row: row.update(p=True)), {},
                     "p must be a number, not true", id="predictions-p-true"),
        pytest.param("eval", ["BAD", "pairs.jsonl"], "predictions.jsonl",
                     first_row(lambda row: row.update(subgraphs_used="abc")), {},
                     'subgraphs_used must be a list, not "abc"',
                     id="predictions-subgraphs-used-string"),
        pytest.param("extract", ["BAD"], "pairs.jsonl",
                     first_row(lambda row: row.update(qid=True)), {},
                     "qid must be a string or an integer, not true", id="pairs-qid-true"),
        pytest.param("extract", ["BAD"], "pairs.jsonl",
                     first_row(lambda row: row.update(label=5)), {},
                     "label must be a string, not 5", id="pairs-label-int"),
        pytest.param("rank", ["BAD", "ranked.jsonl"], "model.json",
                     first_row(lambda doc: doc.update(seed="x")), {},
                     'seed must be an integer, not "x"', id="model-seed-string"),
        pytest.param("rank", ["BAD", "ranked.jsonl"], "model.json",
                     first_row(lambda doc: doc.update(train_loss_history="ab")), {},
                     'train_loss_history must be a list, not "ab"',
                     id="model-loss-history-string"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     first_row(lambda row: row.update(groundtruth="yes")), {},
                     'groundtruth must be "1" or "0", not "yes"', id="ranked-groundtruth-yes"),
        pytest.param("train", ["BAD"], "ranked.jsonl",
                     first_row(lambda row: row["metapaths"][0].update(relevant="maybe")), {},
                     'metapaths[0].relevant must be "1" or "0", not "maybe"',
                     id="ranked-relevant-maybe"),
        pytest.param("rank", ["model.json", "BAD"], "ranked.jsonl",
                     first_row(lambda row: row["metapaths"][0].update(relevant="true")), {},
                     'metapaths[0].relevant must be "1" or "0", not "true"',
                     id="rank-relevant-true-string"),
    ])
    def test_malformed_input_exits_2_naming_file_and_line(
            self, pipeline, tmp_path, capsys, command, argv, source, rewrite, keys, message):
        """A good input, or its first row, rewritten into a malformed one;
        ``BAD`` in the arguments and config values stands for its path."""
        root, _, out = pipeline

        def artifact(name):
            return out / name if (out / name).exists() else root / name

        good = artifact(source)
        bad = tmp_path / source
        bad.write_text(rewrite(good.read_text() if good.exists() else ""), encoding="utf-8")
        config = json.loads((root / "config.json").read_text())
        for key, value in keys.items():
            set_key(config, key, str(bad) if value == "BAD" else str(tmp_path / value))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = tmp_path / "result"
        code = run(command, *[bad if a == "BAD" else a if a.startswith("--") else artifact(a)
                              for a in argv], "--config", cfg, "--out", result)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        line = ":1" if source.endswith(".jsonl") else ""
        if "repeated" in message:  # reported on the second of two rows with one qid
            line = ":2"
        assert f"error: {bad}{line}: " in err and message in err
        assert err.count("error:") == 1
        assert not result.exists()

    @pytest.mark.parametrize("feature", [{"include_types": False, "hash_dim": 1024},
                                         {"include_types": True, "hash_dim": 256}],
                             ids=["untyped", "hash-dim-256"])
    def test_rank_rejects_a_model_with_other_feature_settings(self, pipeline, tmp_path,
                                                              capsys, feature):
        root, _, out = pipeline
        doc = json.loads((out / "model.json").read_text())
        doc["feature"] = feature
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        rankings = tmp_path / "rankings.jsonl"
        code = run("rank", model, out / "ranked.jsonl", "--config", root / "config.json",
                   "--out", rankings)
        assert code == EXIT_CONFIG
        assert "unsupported feature settings" in capsys.readouterr().err
        assert not rankings.exists()

    @pytest.mark.parametrize("command,source,edit,message", [
        ("train", "ranked.jsonl", lambda row: row["metapaths"][0].update(relscore=math.nan),
         "NaN is not a finite number"),
        ("train", "ranked.jsonl", lambda row: row["metapaths"][0].update(relscore=math.inf),
         "Infinity is not a finite number"),
        ("train", "ranked.jsonl", lambda row: row["metapaths"][0].update(probscore=-math.inf),
         "-Infinity is not a finite number"),
        ("train", "ranked.jsonl", lambda row: row["metapaths"][0].update(relscore=2.5),
         "metapaths[0].relscore must lie in [0, 2], not 2.5"),
        ("train", "ranked.jsonl", lambda row: row["metapaths"][0].update(relscore=-0.5),
         "metapaths[0].relscore must lie in [0, 2], not -0.5"),
        ("rank", "ranked.jsonl", lambda row: row["metapaths"][0].update(pathid=1.5),
         "pathid must be an integer, not 1.5"),
        ("rank", "ranked.jsonl", lambda row: row["metapaths"][0].update(pathid=math.inf),
         "Infinity is not a finite number"),
        ("eval", "rankings.jsonl", lambda row: row["entries"][0].update(gain=math.nan),
         "NaN is not a finite number"),
        ("estimate", "candidates.jsonl",
         lambda row: row["subgraphs"][0]["node_names"].__setitem__(1, 7),
         "subgraphs[0].node_names[1] must be a string, not 7"),
        ("rank", "candidates.jsonl",
         lambda row: row["subgraphs"][0]["node_names"].__setitem__(1, 7),
         "subgraphs[0].node_names[1] must be a string, not 7"),
        ("rank", "candidates.jsonl",
         lambda row: row["subgraphs"][0]["node_types"].__setitem__(0, None),
         "subgraphs[0].node_types[0] must be a string, not null"),
    ], ids=["relscore-nan", "relscore-infinity", "probscore-minus-infinity",
            "relscore-above-2", "relscore-below-0", "pathid-fraction", "pathid-infinity",
            "rankings-gain-nan", "estimate-int-node-name", "rank-int-node-name",
            "rank-null-node-type"])
    def test_value_outside_its_domain_exits_2_naming_file_and_line(
            self, pipeline, tmp_path, capsys, command, source, edit, message):
        """``json.dumps`` writes NaN and the infinities as the literals
        ``NaN``, ``Infinity`` and ``-Infinity``."""
        root, _, out = pipeline
        bad = tmp_path / source
        bad.write_text(first_row(edit)((out / source).read_text()), encoding="utf-8")
        argv = {"train": [bad], "estimate": [bad], "rank": [out / "model.json", bad],
                "eval": [out / "predictions.jsonl", root / "pairs.jsonl", "--rankings", bad]}
        result = tmp_path / "result"
        code = run(command, *argv[command], "--config", root / "config.json", "--out", result)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {bad}:1: " in err and message in err
        assert not result.exists()

    @pytest.mark.parametrize("kind,section", [
        ("gbdt", "gbdt"), ("neural", "train"), ("neural", "ngram"), ("similarity", "ngram"),
    ], ids=["gbdt-lr", "neural-train-lr", "neural-ngram-lr", "similarity-ngram-lr"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_train_exits_2_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                       kind, section):
        """A learning rate of 1e308 trains to NaN.  Every reader refuses a
        model file that holds one, so train writes neither the model nor its
        sidecar."""
        root, _, out = pipeline
        config = json.loads((root / "config.json").read_text())
        config["ranker"].update(kind=kind, train={"epochs": 5})
        config["ranker"][section]["lr"] = 1e308
        runs = tmp_path / "runs"
        runs.mkdir()
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        model = runs / "model.json"
        code = run("train", out / "ranked.jsonl", "--config", cfg, "--out", model)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"error: {model}: " in err and "not JSON compliant" in err
        assert "Traceback" not in err
        assert list(runs.iterdir()) == []


@pytest.fixture(scope="module")
def trained(pipeline, tmp_path_factory):
    """A model file of every kind, trained on the pipeline's ranked file."""
    root, _, out = pipeline
    models = tmp_path_factory.mktemp("models")
    config = json.loads((root / "config.json").read_text())
    config["ranker"]["train"] = {"epochs": 5}
    (models / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for kind in cli.MODEL_KINDS:
        assert run("train", out / "ranked.jsonl", "--kind", kind, "--config",
                   models / "config.json", "--out", models / f"{kind}.json") == EXIT_OK
    return models


def v1_document(trained, kind):
    """The v2 model file of ``kind`` as the v1 format held it: the LM in
    every kind, output layer included, and a GBDT's order only in the LM."""
    doc = json.loads((trained / f"{kind}.json").read_text())
    lm = json.loads((trained / "neural.json").read_text())["ngram_lm"]
    doc["ngram_lm"] = {**lm, "output_weights": [[0.25] * len(lm["vocab"])] * lm["d"]}
    if kind == "gbdt":
        del doc["gbdt"]["n"]
    doc["version"] = "v1"
    return doc


def edit_first_split(field, value):
    """An edit of the first split node of the first GBDT tree: ``field``
    becomes ``value(tree, node)``."""
    def edit(doc):
        tree = doc["gbdt"]["trees"][0]
        node = next(i for i, feature in enumerate(tree["feature"]) if feature >= 0)
        tree[field][node] = value(tree, node)
    return edit


class TestModelFile:
    """A model file holds what its kind's scorer reads, and the reader checks
    that it does."""

    def test_random_model_fits_no_language_model(self, pipeline, tmp_path, monkeypatch):
        root, _, out = pipeline
        trained = []
        monkeypatch.setattr(cli, "train_ngram_lm", lambda *a, **k: trained.append(a))
        model = tmp_path / "model.json"
        assert run("train", out / "ranked.jsonl", "--kind", "random", "--config",
                   root / "config.json", "--out", model) == EXIT_OK
        assert trained == []
        assert json.loads(model.read_text())["ngram_lm"] is None
        meta = json.loads(Path(str(model) + ".meta.json").read_text())
        assert meta["summary"]["lm_vocab"] is None

    @pytest.mark.parametrize("kind", ["neural", "gbdt", "similarity", "random"])
    def test_file_holds_only_what_its_scorer_reads(self, trained, kind):
        text = (trained / f"{kind}.json").read_text()
        doc = json.loads(text)
        assert "output_weights" not in text
        assert (doc["neural"] is not None) == (kind == "neural")
        assert (doc["gbdt"] is not None) == (kind == "gbdt")
        if kind in ("neural", "similarity"):
            lm = doc["ngram_lm"]
            assert set(lm) == {"n", "d", "seed", "vocab", "embeddings"}
            assert len(lm["embeddings"]) == len(lm["vocab"])
        else:
            assert doc["ngram_lm"] is None
        if kind == "gbdt":
            assert doc["gbdt"]["n"] == 2

    def test_v1_file_exits_2_as_an_unsupported_version(self, pipeline, trained, tmp_path,
                                                       capsys):
        """v1 files held the whole LM in every kind; they no longer load."""
        root, _, out = pipeline
        model = tmp_path / "v1.json"
        model.write_text(json.dumps(v1_document(trained, "neural")), encoding="utf-8")
        rankings = tmp_path / "rankings.jsonl"
        assert run("rank", model, out / "ranked.jsonl", "--config", root / "config.json",
                   "--out", rankings) == EXIT_CONFIG
        assert (f"error: {model}: unsupported model format version 'v1'"
                in capsys.readouterr().err)
        assert not rankings.exists()

    def test_v1_gbdt_file_without_its_language_model_exits_2(self, pipeline, trained,
                                                             tmp_path, capsys):
        root, _, out = pipeline
        doc = v1_document(trained, "gbdt")
        doc["ngram_lm"] = None
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc), encoding="utf-8")
        assert run("rank", model, out / "ranked.jsonl", "--config", root / "config.json",
                   "--out", tmp_path / "rankings.jsonl") == EXIT_CONFIG
        assert f"error: {model}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind,edit,message", [
        pytest.param("gbdt", lambda doc: doc.update(gbdt=None),
                     "a gbdt model must hold gbdt", id="gbdt-without-trees"),
        pytest.param("neural", lambda doc: doc.update(ngram_lm=None),
                     "a neural model must hold ngram_lm", id="neural-without-lm"),
        pytest.param("random", lambda doc: doc.update(neural={}),
                     "a random model must not hold neural", id="random-with-neural"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(n="2"),
                     'gbdt.n must be an integer, not "2"', id="order-string"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(n=0),
                     "n-gram order must be an integer from 1 to 16, not 0", id="order-0"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(n=2**70),
                     f"n-gram order must be an integer from 1 to 16, not {2**70}",
                     id="order-2**70"),
        pytest.param("similarity", lambda doc: doc["ngram_lm"].update(n=True),
                     "n-gram order must be an integer from 1 to 16, not True",
                     id="lm-order-boolean"),
        pytest.param("neural", lambda doc: doc["ngram_lm"].update(d=True),
                     "language model d must be an integer, not true", id="lm-width-boolean"),
        pytest.param("similarity", lambda doc: doc["ngram_lm"].update(d="32"),
                     'language model d must be an integer, not "32"', id="lm-width-string"),
        pytest.param("neural", lambda doc: doc["ngram_lm"].update(seed="x"),
                     'language model seed must be an integer, not "x"', id="lm-seed-string"),
        pytest.param("similarity", lambda doc: doc["ngram_lm"].update(seed=None),
                     "language model seed must be an integer, not null", id="lm-seed-null"),
        pytest.param("neural", lambda doc: doc["ngram_lm"].update(seed=False),
                     "language model seed must be an integer, not false", id="lm-seed-boolean"),
        pytest.param("neural", lambda doc: doc["ngram_lm"]["embeddings"].pop(),
                     "language model embeddings must have shape", id="embeddings-row-short"),
        pytest.param("similarity", lambda doc: doc["ngram_lm"].update(d=31),
                     "language model embeddings must have shape", id="embeddings-width"),
        pytest.param("neural", lambda doc: (doc["ngram_lm"]["vocab"].remove("<unk>"),
                                            doc["ngram_lm"]["embeddings"].pop()),
                     "language model vocab must hold <unk>", id="vocab-without-unk"),
        pytest.param("neural", lambda doc: doc["ngram_lm"]["embeddings"][0].__setitem__(
            0, math.nan), "NaN is not a finite number", id="embedding-nan"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(base_score=math.inf),
                     "Infinity is not a finite number", id="base-score-infinity"),
        pytest.param("neural", lambda doc: doc["neural"].update(b2="1e999"),
                     "1e999 is not a finite number", id="weight-overflows"),
        pytest.param("gbdt", edit_first_split("feature", lambda tree, node: 1024),
                     "tree node 0 splits on feature 1024, not one in [-1, 1024)",
                     id="tree-feature-beyond-hash-dim"),
        pytest.param("gbdt", edit_first_split("feature", lambda tree, node: -2),
                     "splits on feature -2", id="tree-feature-below-leaf-mark"),
        pytest.param("gbdt", edit_first_split("left", lambda tree, node: len(tree["left"])),
                     "not later nodes of its tree", id="tree-child-outside"),
        pytest.param("gbdt", edit_first_split("right", lambda tree, node: -1),
                     "not later nodes of its tree", id="tree-child-negative"),
        pytest.param("gbdt", lambda doc: doc["gbdt"]["trees"][0]["value"].pop(),
                     "tree node lists must have one length", id="tree-lists-ragged"),
        pytest.param("neural", lambda doc: doc["neural"]["w1"].pop(),
                     "neural w1 must have shape (32, hidden), not (31,", id="w1-row-dropped"),
        pytest.param("neural", lambda doc: doc["neural"]["b1"].pop(),
                     "neural b1 must have shape", id="b1-short"),
        pytest.param("neural", lambda doc: doc["neural"]["w2"].append(0.5),
                     "neural w2 must have shape", id="w2-long"),
        pytest.param("neural", lambda doc: doc["neural"]["x_std"].pop(),
                     "neural x_std must have shape (32,), not (31,)", id="x-std-short"),
        pytest.param("neural", lambda doc: doc["neural"].update(x_mean=None),
                     "neural x_mean and x_std must both be arrays or both null",
                     id="x-mean-null"),
        pytest.param("gbdt", lambda doc: doc["gbdt"]["trees"][0]["value"].__setitem__(0, None),
                     "gbdt.trees[0].value[0] must be a number, not null", id="tree-value-null"),
        pytest.param("gbdt", lambda doc: doc["gbdt"]["trees"][0]["value"].__setitem__(0, True),
                     "gbdt.trees[0].value[0] must be a number, not true", id="tree-value-true"),
        pytest.param("gbdt", edit_first_split("threshold", lambda tree, node: None),
                     "gbdt.trees[0].threshold[0] must be a number, not null",
                     id="tree-threshold-null"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(base_score=True),
                     "gbdt.base_score must be a number, not true", id="base-score-true"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(trees={}),
                     "gbdt.trees must be a list, not {}", id="trees-object"),
        pytest.param("gbdt", lambda doc: doc["gbdt"].update(learning_rate=-0.1),
                     "gbdt.learning_rate must be positive, not -0.1",
                     id="learning-rate-negative"),
        pytest.param("neural", lambda doc: doc["neural"]["w1"][0].__setitem__(0, None),
                     "neural.w1 must hold only numbers, not null", id="w1-null"),
        pytest.param("neural", lambda doc: doc["neural"]["b1"].__setitem__(0, None),
                     "neural.b1 must hold only numbers, not null", id="b1-null"),
        pytest.param("neural", lambda doc: doc["neural"]["x_std"].__setitem__(0, None),
                     "neural.x_std must hold only numbers, not null", id="x-std-null"),
        pytest.param("neural", lambda doc: doc["neural"]["x_std"].__setitem__(0, 0.0),
                     "neural x_std must be positive", id="x-std-zero"),
        pytest.param("neural", lambda doc: doc["neural"].update(b2=True),
                     "neural.b2 must be a number, not true", id="b2-true"),
        pytest.param("neural", lambda doc: doc["ngram_lm"]["embeddings"][0].__setitem__(0, None),
                     "language model embeddings must hold only numbers, not null",
                     id="embedding-null"),
        pytest.param("similarity",
                     lambda doc: doc["ngram_lm"]["embeddings"][0].__setitem__(0, "0.5"),
                     'language model embeddings must hold only numbers, not "0.5"',
                     id="embedding-string"),
    ])
    def test_model_its_scorer_cannot_read_exits_2_naming_the_file(
            self, pipeline, trained, tmp_path, capsys, kind, edit, message):
        root, _, out = pipeline
        doc = json.loads((trained / f"{kind}.json").read_text())
        edit(doc)
        model = tmp_path / "model.json"
        # a quoted 1e999 stands for the bare number, which json.dumps cannot write
        model.write_text(json.dumps(doc).replace('"1e999"', "1e999"), encoding="utf-8")
        for command, inputs in (("rank", [model, out / "ranked.jsonl"]),
                                ("discover", [model, root / "pairs.jsonl"])):
            result = tmp_path / f"{command}.jsonl"
            code = run(command, *inputs, "--config", root / "config.json", "--out", result)
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"error: {model}: " in err and message in err
            assert not result.exists()

    def test_train_refuses_an_order_no_reader_takes(self, pipeline, tmp_path, capsys):
        root, _, out = pipeline
        config = json.loads((root / "config.json").read_text())
        config["ranker"]["ngram"]["n"] = 17
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        model = tmp_path / "model.json"
        code = run("train", out / "ranked.jsonl", "--config", cfg, "--out", model)
        assert code == EXIT_CONFIG
        assert "n-gram order must be an integer from 1 to 16, not 17" in capsys.readouterr().err
        assert not model.exists()


def set_key(config, dotted, value):
    *sections, key = dotted.split(".")
    for name in sections:
        config = config.setdefault(name, {})
    config[key] = value


def key_paths(config, prefix=""):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from key_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


class TestConfigKeys:
    def _write_config(self, root, tmp_path, edit):
        config = json.loads((root / "config.json").read_text())
        edit(config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_no_default_key_names_a_secret(self):
        """The echoed configs are not redacted: a credential lives only in the
        environment variable that llm.credential_env names."""
        paths = list(key_paths(DEFAULT_CONFIG))
        assert "llm.credential_env" in paths
        for path in paths:
            for part in ("api_key", "apikey", "token", "secret", "password"):
                assert part not in path.lower(), path

    def test_list_item_of_the_wrong_type_exits_2(self, pipeline, tmp_path, capsys):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config.update(eval={"ks": ["1"]}))
        report = tmp_path / "report.json"
        code = run("eval", out / "predictions.jsonl", root / "pairs.jsonl",
                   "--rankings", out / "rankings.jsonl", "--config", cfg, "--out", report)
        assert code == EXIT_CONFIG
        assert 'config key eval.ks[0] must be an integer, not "1"' in \
            capsys.readouterr().err
        assert not report.exists()

    def test_integer_for_a_float_runs(self, pipeline, tmp_path):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path, lambda config: config["ranker"].update(
            kind="neural", train={"lr": 1, "epochs": 2}))
        model_path = tmp_path / "model.json"
        assert run("train", out / "ranked.jsonl", "--config", cfg,
                   "--out", model_path) == EXIT_OK
        meta = json.loads(Path(str(model_path) + ".meta.json").read_text())
        assert meta["config"]["ranker"]["train"]["lr"] == 1

    @pytest.mark.parametrize("kind", ["gbdt", "random"])
    def test_order_one_trains_and_ranks(self, pipeline, tmp_path, kind):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path, lambda config: (
            config["ranker"].update(kind=kind), config["ranker"]["ngram"].update(n=1)))
        model = tmp_path / "model.json"
        assert run("train", out / "ranked.jsonl", "--config", cfg, "--out", model) == EXIT_OK
        rankings = tmp_path / "rankings.jsonl"
        assert run("rank", model, out / "ranked.jsonl", "--config", cfg,
                   "--out", rankings) == EXIT_OK
        rows = [json.loads(line) for line in rankings.read_text().splitlines()]
        assert rows and all(math.isfinite(e["score"]) for row in rows for e in row["entries"])

    @pytest.mark.parametrize("kind", ["neural", "similarity"])
    def test_order_one_refused_for_the_kinds_that_read_embeddings(self, pipeline, tmp_path,
                                                                  capsys, kind):
        """An order-1 LM has no context, so its embeddings keep their random
        initial draw; the kinds that score from them refuse it."""
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path, lambda config: (
            config["ranker"].update(kind=kind), config["ranker"]["ngram"].update(n=1)))
        model = tmp_path / "model.json"
        assert run("train", out / "ranked.jsonl", "--config", cfg, "--out", model) == EXIT_CONFIG
        assert "ranker.ngram.n" in capsys.readouterr().err
        assert not model.exists()

    def test_null_candidate_limit_runs_uncapped(self, workdir, tmp_path):
        root, world = workdir
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config["kg"].update(candidate_limit=None))
        out = tmp_path / "candidates.jsonl"
        assert run("extract", root / "pairs.jsonl", "--config", cfg,
                   "--out", out) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == len(world.instances)
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"]["kg"]["candidate_limit"] is None

    def test_config_that_is_not_an_object_exits_2(self, workdir, tmp_path, capsys):
        root, _ = workdir
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        out = tmp_path / "candidates.jsonl"
        code = run("extract", root / "pairs.jsonl", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert f"error: {cfg}: expected a JSON object, not list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "estimate"])
    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_exits_2(self, pipeline, tmp_path, capsys, command, k_max):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config.update(sre={"k_max": k_max}))
        source = {"extract": root / "pairs.jsonl", "estimate": out / "candidates.jsonl"}
        target = tmp_path / "out.jsonl"
        code = run(command, source[command], "--config", cfg, "--out", target)
        assert code == EXIT_CONFIG
        assert "sre.k_max must be >= 1" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("key, value, command", [
        ("ranker.ngram.d", 0, "train"),
        ("ranker.ngram.n", 0, "train"),
        ("llm.max_retries", -1, "estimate"),
        ("kg.max_hops", 0, "extract"),
        ("kg.candidate_limit", 0, "extract"),
        ("llm.parallelism", 0, "estimate"),
        ("ranker.ngram.epochs", 0, "train"),
        ("ranker.train.epochs", 0, "train"),
        ("ranker.train.batch", 0, "train"),
        ("ranker.gbdt.rounds", 0, "train"),
        ("ranker.gbdt.depth", -1, "train"),
        ("discovery.k", 0, "discover"),
        ("eval.ks", [1, 0], "eval"),
    ])
    def test_value_below_its_minimum_exits_2(self, pipeline, tmp_path, capsys,
                                             key, value, command):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path, lambda config: set_key(config, key, value))
        source = {"extract": [root / "pairs.jsonl"], "train": [out / "ranked.jsonl"],
                  "estimate": [out / "candidates.jsonl"],
                  "discover": [out / "model.json", root / "pairs.jsonl"],
                  "eval": [out / "predictions.jsonl", root / "pairs.jsonl",
                           "--rankings", out / "rankings.jsonl"]}
        target = tmp_path / "out.json"
        code = run(command, *source[command], "--config", cfg, "--out", target)
        assert code == EXIT_CONFIG
        minimum = 0 if key in ("llm.max_retries", "ranker.gbdt.depth") else 1
        if isinstance(value, list):
            key, value = f"{key}[{value.index(0)}]", 0
        assert f"config key {key} must be >= {minimum}, not {value}" in \
            capsys.readouterr().err
        assert not target.exists()

    def test_max_hops_flag_below_one_exits_2_naming_its_key(self, workdir, tmp_path, capsys):
        root, _ = workdir
        out = tmp_path / "candidates.jsonl"
        code = run("extract", root / "pairs.jsonl", "--config", root / "config.json",
                   "--max-hops", 0, "--out", out)
        assert code == EXIT_CONFIG
        assert "config key kg.max_hops must be >= 1, not 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_ranker_kind_exits_2_before_training(self, pipeline, tmp_path, capsys,
                                                         monkeypatch):
        root, _, out = pipeline
        trained = []
        monkeypatch.setattr(cli, "train_ngram_lm", lambda *a, **k: trained.append(a))
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config["ranker"].update(kind="nope"))
        model_path = tmp_path / "model.json"
        code = run("train", out / "ranked.jsonl", "--config", cfg, "--out", model_path)
        assert code == EXIT_CONFIG
        assert "config key ranker.kind must be one of neural, gbdt, similarity, random, " \
            "not 'nope'" in capsys.readouterr().err
        assert trained == []
        assert not model_path.exists()

    def test_misspelt_key_exits_2_naming_its_path(self, workdir, tmp_path, capsys):
        root, _ = workdir
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config["llm"].update(paralellism=4))
        out = tmp_path / "candidates.jsonl"
        code = run("extract", root / "pairs.jsonl", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert "unknown config key llm.paralellism" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["seed", "patience"])
    def test_removed_train_key_exits_2_without_a_model(self, pipeline, tmp_path, capsys,
                                                       key):
        root, _, out = pipeline
        cfg = self._write_config(root, tmp_path,
                                 lambda config: config["ranker"].update(train={key: 3}))
        model_path = tmp_path / "model.json"
        code = run("train", out / "ranked.jsonl", "--config", cfg, "--out", model_path)
        assert code == EXIT_CONFIG
        assert f"unknown config key ranker.train.{key}" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("kg", "oops", "config key kg must be a section"),
        ("seed", {"x": 1}, 'config key seed must be an integer, not {"x": 1}'),
        ("kg.max_hops", "4", 'config key kg.max_hops must be an integer, not "4"'),
        ("kg.max_hops", 4.0, "config key kg.max_hops must be an integer, not 4.0"),
        ("kg.candidate_limit", "8",
         'config key kg.candidate_limit must be an integer, not "8"'),
        ("llm.model", None, "config key llm.model must be a string, not null"),
        ("llm.endpoint", 8080, "config key llm.endpoint must be a string, not 8080"),
        ("ranker.gbdt.lr", True, "config key ranker.gbdt.lr must be a number, not true"),
        ("seed", True, "config key seed must be an integer, not true"),
        ("eval.ks", 5, "config key eval.ks must be a list, not 5"),
    ], ids=["section-given-a-value", "value-given-a-section", "string-for-integer",
            "float-for-integer", "string-for-nullable-integer", "null-for-string",
            "integer-for-optional-string", "boolean-for-number", "boolean-for-integer",
            "integer-for-list"])
    def test_value_of_the_wrong_kind_exits_2(self, workdir, tmp_path, capsys,
                                             key, value, message):
        root, _ = workdir
        cfg = self._write_config(root, tmp_path, lambda config: set_key(config, key, value))
        out = tmp_path / "candidates.jsonl"
        code = run("extract", root / "pairs.jsonl", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [lambda models: ["extract"],
                                         lambda models: ["discover", models / "model.json"]],
                             ids=["extract", "discover"])
    def test_missing_kg_path_exits_2(self, pipeline, tmp_path, capsys, command):
        root, _, models = pipeline
        cfg = self._write_config(root, tmp_path, lambda config: config.pop("kg"))
        out = tmp_path / "out.jsonl"
        code = run(*command(models), root / "pairs.jsonl", "--config", cfg, "--out", out)
        assert code == EXIT_CONFIG
        assert "kg.path is required" in capsys.readouterr().err
        assert not out.exists()

    def test_discover_k_below_one_exits_2(self, workdir, tmp_path, capsys):
        root, _ = workdir
        out = tmp_path / "predictions.jsonl"
        code = run("discover", "none", root / "pairs.jsonl", "--config", root / "config.json",
                   "--k", 0, "--out", out)
        assert code == EXIT_CONFIG
        assert "config key discovery.k must be >= 1, not 0" in capsys.readouterr().err
        assert not out.exists()


class TestSeedFlag:
    """--seed overrides the config seed on every command, as the echo shows."""

    @pytest.mark.parametrize("command", ["extract", "estimate", "train", "rank",
                                         "discover", "eval"])
    def test_seed_flag_reaches_the_config_echo(self, pipeline, tmp_path, command):
        root, _, out = pipeline
        inputs = {
            "extract": [root / "pairs.jsonl"],
            "estimate": [out / "candidates.jsonl"],
            "train": [out / "ranked.jsonl"],
            "rank": [out / "model.json", out / "ranked.jsonl"],
            "discover": [out / "model.json", root / "pairs.jsonl"],
            "eval": [out / "predictions.jsonl", root / "pairs.jsonl"],
        }
        target = tmp_path / "out.json"
        assert run(command, *inputs[command], "--config", root / "config.json",
                   "--seed", 99, "--out", target) == EXIT_OK
        echo = target if command == "eval" else Path(str(target) + ".meta.json")
        assert json.loads(echo.read_text())["config"]["seed"] == 99


class TestEvalArithmetic:
    def _write_predictions(self, path, rows):
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def test_confusion_counts_reproduce_reference_f1(self, tmp_path):
        # 14 causal hits, 24 causal misses, nothing spurious
        golds, predictions = [], []
        for i in range(48):
            gold = "causal" if i < 38 else "non-causal"
            predicted = "causal" if i < 14 else "non-causal"
            golds.append({"qid": f"q{i}", "e1": "a", "e2": f"b{i}",
                          "context": "", "label": gold})
            predictions.append({"qid": f"q{i}", "predicted": predicted, "p": 0.9,
                                "subgraphs_used": [], "backend_id": "fake"})
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text("".join(json.dumps(g) + "\n" for g in golds),
                             encoding="utf-8")
        pred_path = tmp_path / "pred.jsonl"
        self._write_predictions(pred_path, predictions)
        report_path = tmp_path / "report.json"
        assert run("eval", pred_path, gold_path, "--out", report_path) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert list(report) == ["classification", "ranking", "graph", "config",
                                "template_hashes"]
        assert report["ranking"] == {}
        assert report["graph"] is None
        assert report["classification"]["precision"] == pytest.approx(100.0)
        assert report["classification"]["recall"] == pytest.approx(36.84, abs=0.01)
        assert report["classification"]["f1"] == pytest.approx(53.85, abs=0.01)

    def test_gold_adjacency_normalized_distance(self, tmp_path):
        variables = [f"v{i}" for i in range(11)]
        golds, predictions = [], []
        qid = 0
        causal_budget = 24
        for a in variables:
            for b in variables:
                if a == b:
                    continue
                predicted = "causal" if causal_budget > 0 else "non-causal"
                causal_budget -= 1 if causal_budget > 0 else 0
                golds.append({"qid": f"q{qid}", "e1": a, "e2": b, "context": "",
                              "label": "non-causal"})
                predictions.append({"qid": f"q{qid}", "predicted": predicted, "p": 0.9,
                                    "subgraphs_used": [], "backend_id": "fake"})
                qid += 1
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text("".join(json.dumps(g) + "\n" for g in golds),
                             encoding="utf-8")
        pred_path = tmp_path / "pred.jsonl"
        self._write_predictions(pred_path, predictions)
        adjacency_path = tmp_path / "adjacency.json"
        adjacency_path.write_text(json.dumps({
            "variables": variables,
            "matrix": [[0] * 11 for _ in range(11)]}), encoding="utf-8")
        report_path = tmp_path / "report.json"
        assert run("eval", pred_path, gold_path, "--gold-adjacency", adjacency_path,
                   "--out", report_path) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert list(report) == ["classification", "ranking", "graph", "config",
                                "template_hashes"]
        assert list(report["graph"]) == ["hd", "nhd", "n", "orientation"]
        assert report["graph"]["orientation"] == "all-ordered-pairs"
        assert report["graph"]["hd"] == 24
        assert report["graph"]["nhd"] == pytest.approx(0.198, abs=0.001)
        assert report["graph"]["n"] == 11

    def test_unparseable_predictions_degrade_exit_code(self, tmp_path):
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text(json.dumps({"qid": "q0", "e1": "a", "e2": "b",
                                         "context": "", "label": "causal"}) + "\n",
                             encoding="utf-8")
        pred_path = tmp_path / "pred.jsonl"
        self._write_predictions(pred_path, [{"qid": "q0", "predicted": None, "p": 0.0,
                                             "subgraphs_used": [], "backend_id": "f"}])
        assert run("eval", pred_path, gold_path,
                   "--out", tmp_path / "r.json") == EXIT_DEGRADED

    def test_prediction_for_a_qid_not_in_the_gold_file_exits_2(self, tmp_path, capsys):
        gold_path = tmp_path / "gold.jsonl"
        gold_path.write_text(json.dumps({"qid": "q0", "e1": "a", "e2": "b",
                                         "context": "", "label": "causal"}) + "\n",
                             encoding="utf-8")
        pred_path = tmp_path / "pred.jsonl"
        self._write_predictions(pred_path, [
            {"qid": qid, "predicted": "causal", "p": 0.9, "subgraphs_used": [],
             "backend_id": "f"} for qid in ("q0", "q9")])
        report_path = tmp_path / "r.json"
        assert run("eval", pred_path, gold_path, "--out", report_path) == EXIT_CONFIG
        assert "'q9'" in capsys.readouterr().err
        assert not report_path.exists()
