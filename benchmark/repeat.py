#!/usr/bin/env python3
"""Repeats whybench runs and summarises each metric by its quartiles.

Run from the repository root. Examples:

  # the spread check: ten seeds per workload, end-to-end metrics
  python3 benchmark/repeat.py --seeds 1,2,3,4,5,6,7,8,9,10

  # the repeatability record kept in benchmark/baseline.json
  python3 benchmark/repeat.py --seeds 1,1,1,1,1 --held-out 7777 --trace 0,1 \
      --out benchmark/baseline.json

  # a second set of the same code, checked against the first
  python3 benchmark/repeat.py --seeds 1,1,1,1,1 --against benchmark/baseline.json

  # ten alternating pairs against another checkout (the parent commit,
  # with this benchmark/ directory copied into it)
  python3 benchmark/repeat.py --seeds 1,2,3,4,5,6,7,8,9,10 --pair ../parent

Quartiles are those of statistics.quantiles(values, n=4); the spread is
(q3 - q1) / median. Each run is `sh benchmark/run.sh` with identical
flags on every side, for BENCHMARK.json's run_seconds unless --seconds
says otherwise. In untraced runs, an end-to-end metric is flagged when
its spread exceeds its bound in BENCHMARK.json (setup_s excepted), and,
with --against, when its median is worse than the recorded one by more
than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["explain-dense", "explain-sparse", "decide", "batch-doctors", "cold-start"]


def run(checkout, workload, seed, seconds, trace, names):
    """One run: its metrics by name, and its outcome digest. The metrics
    are the JSON result's, plus every other metric in [names] that the
    run printed, such as the per-layer latencies of an untraced run."""
    out = subprocess.run(
        ["sh", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} gave a wrong answer")
    digest = next((l.split()[-1] for l in lines if l.startswith(workload + " digest ")), "")
    metrics = {}
    for line in lines:
        words = line.split()
        if len(words) >= 4 and words[0] == workload and words[1] in names:
            metrics[words[1]] = float(words[2])
    metrics.update({name: m["value"] for name, m in result["metrics"].items()})
    return metrics, digest


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarise(runs):
    """{metric: {median, q1, q3, spread, values}} over the runs' metrics."""
    metrics = {}
    for run_metrics in runs:
        for name, value in run_metrics.items():
            metrics.setdefault(name, []).append(value)
    summary = {}
    for name, values in metrics.items():
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": values}
    return summary


def worse_by(metric, new, old):
    """How much worse [new] is than [old], as a share of [old]."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--held-out", type=int, help="one more run at this seed, recorded apart")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--pair", help="another checkout, run alternately with this one")
    ap.add_argument("--against", help="a record written by --out: compare end-to-end medians")
    ap.add_argument("--out", help="write the summary as JSON")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    recorded = None
    if args.against:
        with open(args.against) as f:
            recorded = json.load(f)["workloads"]
    here = os.getcwd()
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True, text=True).stdout.strip()
    report = {"seeds": seeds, "seconds": args.seconds, "cpus": os.cpu_count(), "ocaml": ocaml,
              "workloads": {}}
    flagged = []
    for workload in args.workloads.split(","):
        for trace in [int(t) for t in args.trace.split(",")]:
            sides = {here: []} if not args.pair else {here: [], args.pair: []}
            digests = {}
            for i, seed in enumerate(seeds):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for checkout in order:
                    metrics, digest = run(checkout, workload, seed, args.seconds, trace, declared)
                    sides[checkout].append(metrics)
                    digests.setdefault((checkout, seed), set()).add(digest)
            entry = report["workloads"].setdefault(workload, {})
            key = "traced" if trace else "untraced"
            for checkout, runs in sides.items():
                summary = summarise(runs)
                label = "" if checkout == here else f" [{checkout}]"
                for name, s in summary.items():
                    note = ""
                    # End-to-end metrics are judged on untraced runs only.
                    bound = e2e[name]["bound"] if name in e2e and not trace else None
                    if bound is not None and checkout == here:
                        note = f" bound {bound:.2f}"
                        # setup_s is judged by its median only, not its spread.
                        if name != "setup_s" and s["spread"] > bound:
                            note += " SPREAD-EXCEEDS-BOUND"
                            flagged.append((workload, name, "spread"))
                    old = (recorded or {}).get(workload, {}).get(key, {}).get(name)
                    if old and old["median"] and checkout == here:
                        change = worse_by(declared[name], s["median"], old["median"])
                        note += f" worse-than-recorded {change:+.3f}"
                        if bound is not None and change > bound:
                            note += " EXCEEDS-BOUND"
                            flagged.append((workload, name, "median"))
                    print(f"{workload}{label} {name} median {s['median']:.6g} q1 {s['q1']:.6g} "
                          f"q3 {s['q3']:.6g} spread {s['spread']:.3f}{note}")
                if checkout == here:
                    entry[key] = summary
            if args.pair:
                for name in summarise(sides[here]):
                    mine = [r[name] for r in sides[here]]
                    theirs = [r.get(name, 0) for r in sides[args.pair]]
                    print(f"{workload} {name} this/other per pair: "
                          + " ".join(f"{a / b:.3f}" if b else "-" for a, b in zip(mine, theirs)))
            # The outcome digest of each seed: identical on every run of it.
            mine = {seed: d for (c, seed), d in digests.items() if c == here}
            entry["digests_repeat"] = all(len(d) == 1 for d in mine.values())
            entry["digests"] = {str(seed): sorted(d) for seed, d in mine.items()}
            if not entry["digests_repeat"]:
                flagged.append((workload, "digest", "differs between runs of one seed"))
            old_digests = (recorded or {}).get(workload, {}).get("digests", {})
            for seed, d in entry["digests"].items():
                if seed in old_digests and old_digests[seed] != d:
                    flagged.append((workload, "digest", f"seed {seed} differs from the record"))
            if args.held_out is not None:
                metrics, _ = run(here, workload, args.held_out, args.seconds, trace, declared)
                entry.setdefault("held_out", {"seed": args.held_out})[key] = metrics
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    for workload, name, what in flagged:
        print(f"FLAGGED {workload} {name}: {what}")
    if flagged:
        sys.exit(1)


if __name__ == "__main__":
    main()
