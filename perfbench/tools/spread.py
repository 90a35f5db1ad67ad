#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median, quartiles and spread (interquartile range as a share of
the median), next to its bound in BENCHMARK.json.

    python3 perfbench/tools/spread.py --seeds 1-10 [--workload NAME ...]
        [--seconds S] [--out FILE.json]

Run from the repository root. `--out` writes the per-run values and the
summary as JSON (the committed baselines are made this way).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    took = time.time() - t
    lines = p.stdout.strip().splitlines()
    diag = next((json.loads(l.split(" ", 2)[2]) for l in lines
                 if l.startswith("perfbench diagnostics ")), {})
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    return result, diag, took


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    report = {"git_rev": rev, "seconds": seconds, "nproc": os.cpu_count(),
              "seeds": seeds_of(a.seeds), "workloads": {}}
    for w in workloads:
        runs = []
        for seed in seeds_of(a.seeds):
            result, diag, took = run_once(bench["command"], w, seed, seconds, a.trace)
            assert result["correct"], (w, seed)
            steal = [r["query_phase_noise"]["host_steal_share"] for r in diag.get("rounds", [])]
            print(f"{w} seed {seed}: {took:.1f}s, steal per round "
                  + " ".join(f"{x:.3f}" for x in steal), file=sys.stderr)
            runs.append({
                "seed": seed, "took_s": took, "correct": result["correct"],
                "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                "steal_per_round": steal,
            })
        names = list(runs[0]["metrics"])
        summ = {}
        for n in names:
            vals = [r["metrics"][n] for r in runs]
            summ[n] = summary(vals) if len(vals) >= 2 else {"median": vals[0]}
            s = summ[n]
            b = bounds.get(n)
            flag = ""
            if b is not None and "spread" in s:
                flag = "ok" if s["spread"] < b / 3 else ("within" if s["spread"] <= b else "OVER")
            print(f"  {w:15s} {n:20s} median {s['median']:12.4f} "
                  f"spread {s.get('spread', 0):.4f} bound {b} {flag}")
        report["workloads"][w] = {"summary": summ, "runs": runs}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
