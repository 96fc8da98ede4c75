"""kgcausal benchmark.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced and then traced, with a summary of all metrics:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

Each workload runs in a fresh interpreter with BLAS threads pinned to 1,
because the thread count changes both timings and trained models.  The
last line of standard output is the result as JSON: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics named in
BENCHMARK.json when untraced, its per-layer metrics when traced).

A digest of each run's outputs is kept in ``.bench_state/digests.json`` per
(workload, seed, digest of the code in ``src/`` and ``perfbench/``); a later
run of the same code and seed whose outputs hash differently fails its
determinism check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("planted-train", "hub-graph", "cli-http")
LEDGER = ROOT / ".bench_state" / "digests.json"
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Printed by --all next to the BENCHMARK.json metrics; not every workload
# has them, so the contract's per-run result leaves them out.
EXTRA_UNITS = {"pairs_per_s": "pairs/s", "failed_frac": "ratio", "ndcg1.rmse": "0-1",
               "ndcg1.ranknet": "0-1", "ndcg1.listnet": "0-1", "nhd": "ratio"}

# Top-level layers for the traced wall-time shares, as per-layer metrics.
LAYER_SHARES = {
    "kg": ("kg.load_kg.s", "kg.enumerate_subgraphs.s"),
    "relevance": ("relevance.rank_pair.s",),
    "ltr.ngram": ("ngram.train_ngram_lm.s",),
    "ltr.models": ("models.train_neural_ranker.rmse.s", "models.train_neural_ranker.ranknet.s",
                   "models.train_neural_ranker.listnet.s", "models.train_gbdt_ranker.s",
                   "models.ranker_input_tokens.s", "models.score_subgraphs.s"),
    "discovery": ("discovery.classify_pair.s", "discovery.evaluate.s"),
    **{f"cli.{c}": (f"cli.{c}.s",) for c in
       ("extract", "estimate", "train", "rank", "discover", "eval")},
    "uncovered": ("trace.uncovered_s",),
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_timeout(seconds: float) -> float:
    """Set-ups plus measuring time: a run measures whole passes for about
    ``seconds``, and may finish one pass past it."""
    return 110 + 2 * seconds


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh interpreter and return its JSON report."""
    env = dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=child_timeout(seconds),
        check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def check_determinism(report: dict) -> None:
    """Compare the output digest with the one recorded for the same
    workload, seed and source; record it when there is none yet."""
    key = f"{report['workload']}:{report['seed']}:{report['env']['code_digest']}"
    ledger = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.is_file() else {}
    recorded = ledger.get(key)
    if recorded is None:
        ledger[key] = report["digest"]
        LEDGER.parent.mkdir(exist_ok=True)
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, LEDGER)
    ok = recorded is None or recorded == report["digest"]
    report["checks"].append(["outputs match earlier runs of this seed", ok,
                             "first run" if recorded is None else report["digest"][:16]])
    report["attempted"] += 1
    report["failed"] += 0 if ok else 1


def contract_result(report: dict, spec: dict) -> dict:
    section = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    values = report["per_layer"] if report["trace"] else report["e2e"]
    failed_checks = [c for c in report["checks"] if not c[1]]
    return {"correct": not failed_checks and report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in section}}


def print_metrics(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


def print_checks(report: dict) -> None:
    for name, ok, detail in report["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} {detail}".rstrip())


def run_one(args, spec: dict) -> int:
    report = run_child(args.workload, args.seed, args.seconds, bool(args.trace))
    check_determinism(report)
    result = contract_result(report, spec)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(report['pass_s'])}")
    if report["probe_ms"] is not None:
        print(f"speed probe median {report['probe_ms']:.2f} ms "
              f"(reference {report['reference_probe_ms']:g} ms)")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print_checks(report)
    print_metrics(result["metrics"])
    if not report["trace"]:
        print_metrics({k: {"value": v, "unit": EXTRA_UNITS[k]}
                       for k, v in report["extra"].items()})
    print(json.dumps(result))
    return 0


def layer_shares(per_layer: dict) -> dict:
    wall = per_layer["trace.wall_s"]
    return {layer: sum(per_layer[m] for m in names) / wall
            for layer, names in LAYER_SHARES.items()}


def run_all(args, spec: dict) -> int:
    """Untraced then traced run of every workload, with all metrics."""
    summary = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    for workload in WORKLOADS:
        untraced = run_child(workload, args.seed, args.seconds, False)
        check_determinism(untraced)
        traced = run_child(workload, args.seed, args.seconds, True)
        check_determinism(traced)
        per_layer = traced["per_layer"]
        shares = layer_shares(per_layer)
        overhead = per_layer["trace.pairs_per_s"] - untraced["extra"]["pairs_per_s"]
        print(f"== {workload} (seed {args.seed})")
        print_checks(untraced)
        print(" end-to-end (untraced):")
        print_metrics({k: {"value": v, "unit": units[k]}
                       for k, v in {**untraced["e2e"], **untraced["extra"]}.items()})
        print(" per-layer (traced, zero where the workload does not reach the layer):")
        print_metrics({k: {"value": v, "unit": units[k]}
                       for k, v in per_layer.items() if v})
        print(f" tracing overhead: pairs_per_s traced - untraced = {overhead:+.4g} pairs/s "
              f"({overhead / untraced['extra']['pairs_per_s']:+.2%})")
        print(f" top-level spans cover {per_layer['trace.covered_frac']:.2%} of "
              f"{per_layer['trace.wall_s']:.3f} s; uncovered {per_layer['trace.uncovered_s']:.4f} s")
        print(" wall-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v))
        summary[workload] = {
            "untraced": {k: untraced[k] for k in
                         ("e2e", "extra", "attempted", "failed", "checks", "pass_s", "setup_s")},
            "traced": {k: traced[k] for k in ("per_layer", "attempted", "failed", "checks")},
            "tracing_overhead_pairs_per_s": overhead,
            "layer_shares": shares,
        }
    env = untraced["env"]
    print("env " + json.dumps(env, sort_keys=True))
    ok = all(not any(not c[1] for c in s[run]["checks"]) and s[run]["failed"] == 0
             for s in summary.values() for run in ("untraced", "traced"))
    doc = {"seed": args.seed, "seconds": args.seconds, "env": env, "correct": ok,
           "workloads": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kgcausal benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="--all: write results here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kgcausal" / "__init__.py").is_file():
        print(f"error: no kgcausal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        return run_all(args, spec) if args.all else run_one(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
