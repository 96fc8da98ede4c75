"""Tests of the benchmark's own code: the hub-graph generator, the loopback
endpoint, the tracer, and the metric names against BENCHMARK.json."""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from kgcausal.kg import enumerate_subgraphs  # noqa: E402
from kgcausal.llm import (  # noqa: E402
    CompletionRequest,
    HttpBackend,
    MockOracle,
    label_probability,
)
from kgcausal.synthetic import MOTIF_TYPE, make_planted_world  # noqa: E402

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from hubgraph import HubGraphSpec, make_hub_world  # noqa: E402
from loopback import LoopbackServer  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import CountingBackend, Tracer  # noqa: E402

SMALL = HubGraphSpec(variables=10, hubs=20, hubs_per_variable=6, leaves=60, causal_pairs=4)


def _component_size(kg) -> int:
    start = next(iter(kg.nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        for v, _, _ in kg.neighbors(queue.popleft()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen)


@pytest.mark.parametrize("spec", [SMALL, HubGraphSpec()], ids=["small", "default"])
def test_hub_graph_is_one_component_with_planted_pairs(spec):
    world = make_hub_world(spec, seed=3)
    assert _component_size(world.kg) == len(world.kg.nodes)
    motifs = [n for n in world.nodes if n.node_type == MOTIF_TYPE]
    assert len(motifs) == spec.causal_pairs
    gold = world.gold_matrix
    assert sum(map(sum, gold)) == 2 * spec.causal_pairs
    assert all(gold[i][j] == gold[j][i] for i in range(spec.variables)
               for j in range(spec.variables))
    assert len(world.instances) == spec.variables * (spec.variables - 1)


def test_hub_graph_has_two_shortest_paths_per_pair():
    world = make_hub_world(SMALL, seed=5)
    for inst in world.instances:
        paths = enumerate_subgraphs(world.kg, (inst.e1, inst.e2), max_hops=4)
        assert len(paths) >= 2, inst.qid
        assert all(len(p) == 2 for p in paths)  # two hops, through a hub or motif
        has_motif = any(MOTIF_TYPE in p.node_types for p in paths)
        assert has_motif == (inst.groundtruth == "causal")


def test_loopback_answers_like_mock_oracle():
    world = make_planted_world(n_pairs=6, flip_rate=0.3, seed=2)
    oracle = MockOracle(world.mock_config)
    server = LoopbackServer(world.mock_config, delay_s=0.0).start()
    try:
        client = HttpBackend(endpoint=server.endpoint, model="m", max_retries=0)
        prompts = [f"Classify.\n\n[Relation Paths]:\n{inst.e1} - {mid} - {inst.e2}\n\nLabel:"
                   for inst in world.instances for mid in ("stress hormone x", "protein y")]
        for prompt in prompts:
            request = CompletionRequest(prompt=prompt)
            expected = oracle.complete(request)
            got = client.complete(request)
            assert got.text == expected.text
            assert got.tokens == expected.tokens
            assert label_probability(got) == label_probability(expected)
        snapshot = server.stats.snapshot()
    finally:
        server.stop()
    assert snapshot["requests"] == len(prompts)
    assert snapshot["max_inflight"] == 1
    assert not server._thread.is_alive()


def test_tracer_nests_spans_and_costs_nothing_when_off():
    tracer = Tracer(True)
    backend = CountingBackend(MockOracle(make_planted_world(n_pairs=2).mock_config), tracer)
    with tracer.span("outer", pair="q1"):
        backend.complete(CompletionRequest(prompt="[Relation Paths]:\nstress hormone"))
    (outer, inner) = (tracer.spans[0], tracer.spans[1])
    assert outer[0] == "outer" and outer[3] is None and outer[4] == "q1"
    assert inner[0] == "llm.complete" and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    cover = workloads.coverage_metrics(tracer, (outer[1], outer[2]))
    assert math.isclose(cover["trace.covered_frac"], 1.0)

    off = Tracer(False)
    counting = CountingBackend(MockOracle(make_planted_world(n_pairs=2).mock_config), off)
    with off.span("outer"):
        counting.complete(CompletionRequest(prompt="x"))
    assert off.spans == [] and counting.completions == 1


def test_speed_meter_probes_on_a_timer_and_leaves_waiting_unscaled():
    with SpeedMeter(interval_s=0.05) as meter:
        start = time.perf_counter()
        while time.perf_counter() < start + 0.3:  # CPU-bound stretch
            sum(i * i for i in range(1000))
        cpu_probes = len(meter.probes)
        cpu_wall, cpu_reference = meter.wall_s, meter.reference_s
        time.sleep(0.3)  # waiting stretch, interrupted by the timer
        end = time.perf_counter()
    assert cpu_probes >= 4 and len(meter.probes) > cpu_probes
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # Measured time plus the probes in between is the elapsed time.
    assert abs(meter.wall_s + sum(meter.probes[1:-1]) - (end - start)) < 0.01
    # Waiting is not rescaled: the sleep adds about as much reference time as wall time.
    waited_wall = meter.wall_s - cpu_wall
    waited_reference = meter.reference_s - cpu_reference
    assert abs(waited_reference - waited_wall) < 0.1 * waited_wall


def test_metric_names_match_benchmark_json():
    spec = bench_run.load_spec()
    traced = workloads.Pass(wall=1.0, reference=1.0, result=workloads.PassResult(pairs=1),
                            tracer=Tracer(True), window=(0.0, 1.0), server=None)
    produced = set(workloads.traced_metrics(traced, {}))
    assert produced == {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in e2e
    assert e2e.isdisjoint(bench_run.EXTRA_UNITS)
    shared = {n for names in bench_run.LAYER_SHARES.values() for n in names}
    assert shared <= produced


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-http",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == b""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
