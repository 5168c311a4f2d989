#!/usr/bin/env python3
"""Sensitivity self-check: shows that the benchmark measures the program.

For each workload it runs the normal workload and its heavier variant
(--variant heavy) in alternating pairs with the same seed, and asserts
two things on the medians:

1. the workload's headline end-to-end metric moves past its bound from
   BENCHMARK.json, in the predicted direction;
2. the counted work of the layer that should dominate moves with it.

    python3 perfbench/selfcheck.py [--pairs 3] [--workloads query-warm,design-cold,whatif-eco]

Alternating the two variants keeps a slow spell of the host from
landing on one side only. Exits 1 when any assertion fails.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spread import ROOT, run_once  # noqa: E402

# workload -> (heavier variant, headline metric, direction, layer metric)
CHECKS = {
    "query-warm": ("k from 2 to 6", "throughput_ops_per_s", "falls", "core.candidates_per_op"),
    "design-cold": ("i7-sized designs", "latency_p50_ms", "rises", "noise.fixpoint_evals_per_op"),
    "whatif-eco": ("gen.Scale(20000)", "latency_p50_ms", "rises", "noise.incremental_ms_per_op"),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--workloads", default=",".join(CHECKS))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        variant, head, direction, layer = CHECKS[w]
        runs = {"base": [], "heavy": []}
        for i in range(a.pairs):
            order = ["base", "heavy"] if i % 2 == 0 else ["heavy", "base"]
            for side in order:
                r = run_once(w, a.seed + i, bench["run_seconds"], 1, "heavy" if side == "heavy" else None)
                if not r["correct"]:
                    print(f"{w} {side} seed {a.seed + i}: failed operations ({r['failed']})")
                    ok = False
                runs[side].append(r)
        hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True) for s in runs.values() for r in s}
        if len(hosts) != 1:
            sys.exit(f"refusing to compare {w}: runs from different hosts {sorted(hosts)}")
        med = {s: {"head": statistics.median(r["end_to_end"][head]["value"] for r in rs),
                   "layer": statistics.median(r["metrics"][layer]["value"] for r in rs)}
               for s, rs in runs.items()}
        change = med["heavy"]["head"] / med["base"]["head"] - 1
        head_ok = change < -bounds[head] if direction == "falls" else change > bounds[head]
        layer_change = med["heavy"]["layer"] / med["base"]["layer"] - 1
        layer_ok = layer_change > 0
        ok = ok and head_ok and layer_ok
        print(f"{w} heavier with {variant}:")
        print(f"  {head} {direction}: {med['base']['head']:.3f} -> {med['heavy']['head']:.3f} "
              f"({change:+.1%}, bound {bounds[head]:.2f}) {'ok' if head_ok else 'FAIL'}")
        print(f"  {layer} rises: {med['base']['layer']:.3f} -> {med['heavy']['layer']:.3f} "
              f"({layer_change:+.1%}) {'ok' if layer_ok else 'FAIL'}")
        cpu = statistics.median(r["end_to_end"]["server_cpu_ms_per_op"]["value"] for r in runs["base"])
        client = statistics.median(r["metrics"]["bench.client_cpu_ms_per_op"]["value"] for r in runs["base"])
        print(f"  bench.client_cpu_ms_per_op {client:.3f} beside server_cpu_ms_per_op {cpu:.3f} ({client / cpu:.1%})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
