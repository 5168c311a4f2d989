#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median
and quartile spread (IQR / median), the figure the bounds in
BENCHMARK.json are checked against.

    python3 perfbench/spread.py --workload query-warm --seeds 1-10 [--trace 1] [--save runs.json]
    python3 perfbench/spread.py --compare a.json b.json

--compare prints the change of each metric's median from the first set
of runs to the second, and refuses when the two sets ran on different
hosts (CPU, nproc, GOMAXPROCS or Go version differ): wall times from
different hosts are not comparable.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace, variant=None):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if variant:
        cmd += ["--variant", variant]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"run failed ({' '.join(cmd)}):\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# fingerprint "):
            out["fingerprint"] = json.loads(line[len("# fingerprint "):])
        elif line.startswith("# end-to-end "):
            out["end_to_end"] = json.loads(line[len("# end-to-end "):])
    return out


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(runs):
    names = sorted(runs[0]["metrics"])
    rows = {}
    for n in names:
        vals = [r["metrics"][n]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rows[n] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                   "unit": runs[0]["metrics"][n]["unit"], "values": vals}
    return rows


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m for m in b["end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    a = ap.parse_args()
    if a.compare:
        sets = [json.load(open(p)) for p in a.compare]
        hosts = [{json.dumps(r["fingerprint"]["host"], sort_keys=True) for r in s["runs"]} for s in sets]
        if len(hosts[0] | hosts[1]) != 1:
            sys.exit("refusing to compare: the runs come from different hosts: %s" % sorted(hosts[0] | hosts[1]))
        b = bounds()
        s0, s1 = summary(sets[0]["runs"]), summary(sets[1]["runs"])
        all_ok = True
        for n in s0:
            m0, m1 = s0[n]["median"], s1[n]["median"]
            change = (m1 - m0) / m0 if m0 else 0.0
            line = f"{n:28s} {m0:14.4f} -> {m1:14.4f} {change:+8.2%}"
            if n in b:
                sign = 1 if b[n]["better"] == "lower" else -1
                ok = sign * change <= b[n]["bound"]
                all_ok = all_ok and ok
                line += f"  bound {b[n]['bound']:.2f} {'ok' if ok else 'WORSE'}"
            print(line)
        sys.exit(0 if all_ok else 1)
    seconds = a.seconds or json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"]
    runs = []
    for s in seeds_of(a.seeds):
        r = run_once(a.workload, s, seconds, a.trace)
        r["seed"] = s
        runs.append(r)
        print(f"seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
    b = bounds() if a.trace == 0 else {}
    for n, row in summary(runs).items():
        flag = ""
        if n in b:
            flag = f"bound {b[n]['bound']:.2f} " + ("ok" if row["spread"] < b[n]["bound"] / 3 else "WIDE")
        print(f"{n:34s} median {row['median']:14.4f} {row['unit']:8s} spread {row['spread']:7.2%} {flag}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump({"workload": a.workload, "trace": a.trace, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
