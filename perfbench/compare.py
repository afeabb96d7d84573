#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]

Each directory holds result files written by `run.py --trace 0`
(`<workload>-seed<n>-trace0.json`). Runs are paired by seed when both sets
used the same seeds, otherwise in seed order. For every metric the tool
prints each set's median and quartiles, the relative spread (interquartile
range over median) and a verdict:

  better / worse  the change wins (loses) at least 9/10 of the pairs, ties
                  counting for neither, and the medians differ by more than
                  the parent's interquartile range;
  unresolved      either set spreads wider than the metric's bound, unless
                  every change run reads better than every parent run;
  unchanged       otherwise.

`bound ok` says whether the change's median is no worse than the parent's by
more than the bound. Exit code 0 when every metric is within its bound and
neither set spreads wider than it, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    gap = sign * (cm - pm)
    parent_iqr = p3 - p1
    spreads = ((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(pairs) and gap > parent_iqr:
        word = "better"
    elif losses >= WIN_SHARE * len(pairs) and -gap > parent_iqr:
        word = "worse"
    elif max(spreads) > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3), "spreads": spreads,
        "wins": wins, "losses": losses, "pairs": len(pairs), "verdict": word,
        "bound_ok": -gap <= bound * abs(pm),
    }


def pair_up(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    common = sorted({r["seed"] for r in parent} & {r["seed"] for r in change})
    if len(common) == min(len(parent), len(change)):
        by_seed_p = {r["seed"]: r for r in parent}
        by_seed_c = {r["seed"]: r for r in change}
        return [by_seed_p[s] for s in common], [by_seed_c[s] for s in common]
    n = min(len(parent), len(change))
    return parent[:n], change[:n]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--bench", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)

    metrics = json.loads(args.bench.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    ok = True
    header = (f"{'workload':11s} {'metric':12s} {'parent q1/med/q3':>28s} {'spread':>7s} "
              f"{'change q1/med/q3':>28s} {'spread':>7s} {'wins':>7s} {'bound':>6s} verdict")
    print(header)
    for workload in sorted(set(parent_runs) | set(change_runs)):
        if workload not in parent_runs or workload not in change_runs:
            print(f"{workload:11s} missing from one set")
            ok = False
            continue
        parent, change = pair_up(parent_runs[workload], change_runs[workload])
        for metric in metrics:
            name = metric["name"]
            v = verdict([r["metrics"][name] for r in parent], [r["metrics"][name] for r in change],
                        metric["better"], metric["bound"])
            spread_ok = name == "setup_s" or max(v["spreads"]) <= metric["bound"]
            ok = ok and v["bound_ok"] and spread_ok
            fmt = "{:9.4g}/{:9.4g}/{:8.4g}"
            print(f"{workload:11s} {name:12s} {fmt.format(*v['parent']):>28s} "
                  f"{v['spreads'][0]:7.3f} {fmt.format(*v['change']):>28s} {v['spreads'][1]:7.3f} "
                  f"{v['wins']:3d}/{v['pairs']:<3d} {'ok' if v['bound_ok'] else 'NO':>6s} "
                  f"{v['verdict']} (n={v['pairs']}, bound {metric['bound']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
