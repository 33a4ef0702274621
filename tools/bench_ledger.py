#!/usr/bin/env python3
"""Run perfbench over workloads x seeds and write a BENCH_<pr>.json ledger.

    python3 tools/bench_ledger.py --pr N --seeds 1-10 --seconds 20
    python3 tools/bench_ledger.py --pr N --seeds 1-10 --seconds 20 \\
        --workloads fanout --baseline ../parent-checkout

Each cell is one `perfbench/run.py` run in the tree it belongs to; its
last stdout line (the JSON result) is kept verbatim in the ledger. Per
workload the ledger holds every run, and per metric the median, quartiles
and IQR, plus the host's core count and the git revision.

With --baseline DIR (another checkout of this repository, e.g. the parent
commit) every (workload, seed) cell runs on both trees, alternating which
side runs first, and the ledger adds per-metric pair counts: on how many
seeds the change read better, worse or equal, by each metric's "better"
direction in BENCHMARK.json. Each tree builds perfbench in its own tree.

The workloads and metric directions come from BENCHMARK.json, which this
script only reads.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_rev(tree):
    def git(*args):
        return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True).stdout.strip()
    rev = git("rev-parse", "HEAD") or "unknown"
    return rev, bool(git("status", "--porcelain", "--untracked-files=no"))


def run_cell(tree, workload, seed, seconds, trace, env):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error": f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    result["workload"] = workload
    result["seed"] = seed
    return result


def summarize(runs):
    values = {}
    for run in runs:
        for name, metric in run.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        if len(vals) >= 2:
            q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
        else:
            q1 = median = q3 = vals[0]
        summary[name] = {"n": len(vals), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
    return {
        "runs": runs,
        "correct_runs": sum(1 for r in runs if r.get("correct") is True),
        "failed_operations": sum(r.get("failed", 0) for r in runs),
        "summary": summary,
    }


def pair_counts(change_runs, baseline_runs, better):
    by_seed = {r["seed"]: r for r in baseline_runs if "metrics" in r}
    counts = {}
    for run in change_runs:
        base = by_seed.get(run["seed"])
        if base is None or "metrics" not in run:
            continue
        for name, metric in run["metrics"].items():
            if name not in base["metrics"] or name not in better:
                continue
            delta = metric["value"] - base["metrics"][name]["value"]
            if better[name] == "lower":
                delta = -delta
            cell = counts.setdefault(name, {"change_better": 0, "change_worse": 0, "equal": 0})
            cell["change_better" if delta > 0 else "change_worse" if delta < 0 else "equal"] += 1
    return counts


def fmt(s):
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="ledger name: writes BENCH_<pr>.json")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="another checkout to pair every run with")
    parser.add_argument("--out", help="output path (default: BENCH_<pr>.json at the root)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    env = dict(os.environ)
    if args.baseline:
        # An absolute build dir would be shared by both trees.
        env.pop("CARGO_TARGET_DIR", None)
    rev, dirty = git_rev(ROOT)
    ledger = {"pr": args.pr, "git_rev": rev, "git_dirty": dirty, "nproc": os.cpu_count(),
              "seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    if args.baseline:
        base_rev, base_dirty = git_rev(args.baseline)
        ledger["baseline"] = {"git_rev": base_rev, "git_dirty": base_dirty}

    for workload in workloads:
        change_runs, baseline_runs = [], []
        for i, seed in enumerate(seeds):
            sides = [(ROOT, change_runs)]
            if args.baseline:
                sides.append((args.baseline, baseline_runs))
                if i % 2 == 0:
                    sides.reverse()
            for tree, runs in sides:
                runs.append(run_cell(tree, workload, seed, args.seconds, args.trace, env))
                side = "change" if runs is change_runs else "baseline"
                print(f"{workload} seed {seed} {side}: "
                      f"{runs[-1].get('error') or 'correct=' + str(runs[-1].get('correct'))}",
                      file=sys.stderr)
        entry = {"change": summarize(change_runs)}
        if args.baseline:
            entry["baseline"] = summarize(baseline_runs)
            entry["pairs"] = pair_counts(change_runs, baseline_runs, better)
        ledger["workloads"][workload] = entry

    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")

    for workload, entry in ledger["workloads"].items():
        print(f"== {workload}", file=sys.stderr)
        for name, s in entry["change"]["summary"].items():
            line = f"  {name:32s} change {fmt(s)}"
            base = entry.get("baseline", {}).get("summary", {}).get(name)
            if base:
                p = entry["pairs"].get(name, {})
                line += (f"  baseline {fmt(base)}  pairs +{p.get('change_better', 0)}"
                         f"/-{p.get('change_worse', 0)}/={p.get('equal', 0)}")
            print(line, file=sys.stderr)
    print(f"wrote {os.path.relpath(out, ROOT)}", file=sys.stderr)
    failed = any("error" in r or r.get("correct") is not True
                 for e in ledger["workloads"].values()
                 for side in ("change", "baseline") if side in e
                 for r in e[side]["runs"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
