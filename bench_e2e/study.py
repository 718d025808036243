#!/usr/bin/env python3
"""Steadiness and determinism studies for the end-to-end benchmark.

Run from the repository root:

    python3 bench_e2e/study.py steadiness [--runs 10] [--first-seed 1000] [--workload W ...]
    python3 bench_e2e/study.py determinism [--seeds 11 424242] [--seconds 10] [--workload W ...]

`steadiness` runs every workload `--runs` times, each with another seed,
and reports each end-to-end metric's spread: the distance between the
first and third quartile of its values (Python's
`statistics.quantiles(values, n=4)`) as a share of their median, next to
the metric's bound from BENCHMARK.json.

`determinism` runs the traced and the untraced command twice per seed and
checks that every per-layer count and the quality ratio repeat exactly.

Both write their raw results as JSON under bench_e2e/results/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# Per-layer metrics that depend on timing, not only on the seed.
TIMING_DEPENDENT = {"loadgen.backlog", "trace.overhead_frac", "service.overloaded", "service.timeouts"}


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def steadiness(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "runs": {}, "spread": {}}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(bench, workload, seed, bench["run_seconds"], 0)
            if not r["correct"] or r["failed"]:
                raise SystemExit(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']}")
            runs.append({"seed": seed, "wall_s": round(r["wall_s"], 2),
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{workload} seed {seed}: {r['wall_s']:.1f} s", flush=True)
        out["runs"][workload] = runs
        out["spread"][workload] = {}
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            out["spread"][workload][name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bounds[name],
            }
    print("\n| workload | metric | median | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|")
    for workload, metrics in out["spread"].items():
        for name, s in metrics.items():
            print(f"| {workload} | {name} | {s['median']:.6g} | {s['spread']:.4f} | {s['bound']} "
                  f"| {s['spread'] / s['bound']:.2f} |")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / args.out
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwritten to {path.relative_to(ROOT)}")


def determinism(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    exact = [n for n, u in units.items() if u != "ms" and n not in TIMING_DEPENDENT]
    out = {"seconds": args.seconds, "seeds": args.seeds, "checked": exact, "results": {}}
    ok = True
    for workload in workloads:
        for seed in args.seeds:
            traced = [run_once(bench, workload, seed, args.seconds, 1) for _ in range(2)]
            plain = [run_once(bench, workload, seed, args.seconds, 0) for _ in range(2)]
            counts = [{n: r["metrics"][n]["value"] for n in exact} for r in traced]
            quality = [r["metrics"]["quality_ratio"]["value"] for r in plain]
            differing = [n for n in exact if counts[0][n] != counts[1][n]]
            same = not differing and quality[0] == quality[1]
            ok &= same
            out["results"][f"{workload}/{seed}"] = {
                "repeat_exactly": same,
                "differing": differing,
                "quality_ratio": quality,
                "counts": counts[0],
            }
            print(f"{workload} seed {seed}: {'repeats exactly' if same else 'DIFFERS: ' + str(differing)}"
                  f" (quality_ratio {quality[0]!r} / {quality[1]!r})", flush=True)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / args.out
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"written to {path.relative_to(ROOT)}")
    if not ok:
        raise SystemExit("a count or quality ratio did not repeat")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="study", required=True)
    s = sub.add_parser("steadiness")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1000)
    s.add_argument("--workload", action="append")
    s.add_argument("--out", default="steadiness.json")
    d = sub.add_parser("determinism")
    d.add_argument("--seeds", type=int, nargs="+", default=[11, 424242])
    d.add_argument("--seconds", type=int, default=10)
    d.add_argument("--workload", action="append")
    d.add_argument("--out", default="determinism.json")
    args = parser.parse_args()
    steadiness(args) if args.study == "steadiness" else determinism(args)


if __name__ == "__main__":
    main()
