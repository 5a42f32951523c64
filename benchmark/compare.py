#!/usr/bin/env python3
"""Compare sets of mcdc-bench results against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py parent.jsonl change.jsonl [more.jsonl ...]

Each argument is one set: a file of JSON lines as written by
`run.py --log` (or `mcdc_bench --log`), one line per run, tagged with its
workload and seed. For every workload and metric the script prints each
set's median and quartiles, and the spread (quartile distance over the
median). Every later set is then judged against the first one:

  ok          its median is not worse than the first set's by more than the
              metric's bound (when a set's spread exceeds the bound: every
              later run is better than every first-set run);
  WORSE       its median is worse by more than the bound (when a spread
              exceeds the bound: every later run is worse than every
              first-set run);
  unresolved  a spread exceeds the bound and the runs overlap;
  GAIN        the pair rule holds: runs paired by seed, the later set wins
              at least 9 of every 10 pairs (ties count for neither side),
              and the medians differ by more than the first set's quartile
              distance.

Per-layer metrics have no bound; they get medians and the pair rule only.
--summary FILE writes every set's medians and quartiles as JSON. The exit
code is 1 when any end-to-end metric is WORSE, else 0.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(path):
    """{(workload, trace): {metric: {seed: value}}}, units, host threads."""
    runs, units, nproc = {}, {}, set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec.get("trace", 0))
            for name, m in rec["result"]["metrics"].items():
                runs.setdefault(key, {}).setdefault(name, {})[rec["seed"]] = m["value"]
                units[name] = m["unit"]
            nproc.add(rec.get("nproc"))
    return runs, units, nproc


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base, cand, higher_better, bound):
    """Verdict of `cand` ({seed: value}) against `base`."""
    b = list(base.values())
    c = list(cand.values())
    bq1, bmed, bq3 = quartiles(b)
    cq1, cmed, cq3 = quartiles(c)
    sign = 1.0 if higher_better else -1.0
    better = lambda x, y: sign * (x - y) > 0  # x better than y

    seeds = sorted(set(base) & set(cand))
    wins = sum(better(cand[s], base[s]) for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and abs(cmed - bmed) > bq3 - bq1 \
            and better(cmed, bmed):
        return "GAIN", wins, len(seeds)
    if bound is None:
        return "-", wins, len(seeds)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    if spread > bound:
        # Too noisy to compare medians: only a complete separation counts.
        if all(better(y, x) for x in b for y in c):
            return "ok", wins, len(seeds)
        if all(better(x, y) for x in b for y in c):
            return "WORSE", wins, len(seeds)
        return "unresolved", wins, len(seeds)
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    return ("ok" if worse_by <= bound else "WORSE"), wins, len(seeds)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="JSON-lines result files")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    ap.add_argument("--summary", help="write medians and quartiles as JSON")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = [load_set(p) for p in args.sets]
    for path, (_, _, nproc) in zip(args.sets, sets):
        print(f"{path}: host threads {sorted(n for n in nproc if n is not None)}")

    summary = {}
    any_worse = False
    keys = sorted(set().union(*(s[0].keys() for s in sets)))
    for workload, trace in keys:
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}) ==")
        header = f"{'metric':32s} {'unit':7s}"
        for i in range(len(sets)):
            header += f" | set {i}: median [q1, q3] spread"
        print(header + " | vs set 0 (bound): verdict, pairs won")
        for name in metrics:
            per_set = [s[0].get((workload, trace), {}).get(name) for s in sets]
            if per_set[0] is None:
                continue
            unit = sets[0][1].get(name, "")
            row = f"{name:32s} {unit:7s}"
            for i, vals in enumerate(per_set):
                if not vals:
                    row += " | (missing)"
                    continue
                q1, med, q3 = quartiles(list(vals.values()))
                spread = (q3 - q1) / abs(med) if med else 0.0
                row += f" | {med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}"
                summary.setdefault(str(i), {}).setdefault(workload, {})[name] = {
                    "median": med, "q1": q1, "q3": q3, "runs": len(vals)}
            higher = metrics[name]["better"] == "higher"
            bound = bounds.get(name)
            verdicts = []
            for vals in per_set[1:]:
                if not vals:
                    continue
                verdict, wins, pairs = judge(per_set[0], vals, higher, bound)
                any_worse = any_worse or verdict == "WORSE"
                verdicts.append(f"{verdict}, {wins}/{pairs}")
            if verdicts:
                b = "-" if bound is None else f"{bound:g}"
                row += f" | ({b}) " + "; ".join(verdicts)
            print(row)

    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
