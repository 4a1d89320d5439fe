#!/usr/bin/env python3
"""Summarise or compare sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py BASE [NEW] [--bench BENCHMARK.json]

BASE and NEW are result files written by `run.sh`/`e2e_bench --out`, or
directories of them. For every workload and metric it prints the median and
quartiles of each set (quartiles as statistics.quantiles(values, n=4) gives
them) and, for end-to-end metrics, a verdict against the bound BENCHMARK.json
fixes:

  steady       one set: the spread (q3 - q1) / median is within the bound
  unresolved   a spread exceeds the bound, so a change of that size cannot
               be seen (unless every NEW run beats every BASE run: better)
  REGRESSION   NEW's median is worse than BASE's by more than the bound
  better       NEW wins at least 9 of 10 seed-paired runs and its median is
               better by more than BASE's own spread
  same         none of the above

Per-layer metrics (traced runs) get medians and quartiles only. The failed
share (failed / attempted) of each workload is printed too; a NEW share above
BASE's is flagged, as is any run that reported correct=false. The exit code
is 1 when anything is flagged REGRESSION or incorrect.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(path):
    """Result records under `path` (a file or a directory of *.json)."""
    p = pathlib.Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        lines = [ln for ln in f.read_text().splitlines() if ln.strip()]
        if not lines:
            continue
        rec = json.loads(lines[-1])
        if "workload" not in rec:
            sys.exit(f"compare.py: {f} is not an e2e_bench --out result file")
        out.append(rec)
    if not out:
        sys.exit(f"compare.py: no result files in {path}")
    return out


def group(records):
    """{(workload, trace): [record, ...]}"""
    g = {}
    for r in records:
        g.setdefault((r["workload"], bool(r["trace"])), []).append(r)
    return g


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def failed_share(records):
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def by_seed(records, name):
    return {r["seed"]: r["metrics"][name]["value"] for r in records if name in r["metrics"]}


def verdict(base, new, bound, lower_better):
    """One end-to-end metric: base/new are {seed: value}."""
    b = list(base.values())
    if new is None:
        return "steady" if spread(b) <= bound else "unresolved"
    n = list(new.values())
    bmed, nmed = statistics.median(b), statistics.median(n)
    sign = 1.0 if lower_better else -1.0
    worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    all_better = (max(n) < min(b)) if lower_better else (min(n) > max(b))
    if spread(b) > bound or spread(n) > bound:
        return "better" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSION"
    pairs = [s for s in base if s in new]
    wins = sum(1 for s in pairs if sign * (new[s] - base[s]) < 0)
    q1, _, q3 = quartiles(b)
    if pairs and wins >= 0.9 * len(pairs) and -worse * abs(bmed) > (q3 - q1):
        return "better"
    return "same"


def print_table(lines):
    """Rows aligned in columns; string entries print as they are."""
    rows = [r for r in lines if isinstance(r, list)]
    width = [max(len(r[i]) for r in rows if i < len(r)) for i in range(max(map(len, rows)))]
    for r in lines:
        print(r if isinstance(r, str) else "  ".join(c.ljust(w) for c, w in zip(r, width)).rstrip())


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    base = group(load(args.base))
    new = group(load(args.new)) if args.new else None

    flagged = False
    head = ["workload", "metric", "n", "q1", "median", "q3", "spread"]
    if new is not None:
        head += ["new n", "new q1", "new median", "new q3", "delta"]
    out = [head + ["verdict"]]
    for key in sorted(base):
        workload, traced = key
        sets = [base[key]] + ([new.get(key, [])] if new is not None else [])
        for i, recs in enumerate(sets):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            bad = sum(1 for r in recs if not r["correct"])
            label = "base" if i == 0 else "new"
            out.append(f"# {workload} trace={int(traced)} {label}: {len(recs)} runs, "
                       f"failed {fail}/{att}, incorrect runs {bad}")
            flagged |= bad > 0
        if new is not None and new.get(key):
            if failed_share(new[key]) > failed_share(base[key]):
                out.append(f"# {workload}: failed share rose — REGRESSION")
                flagged = True
        metrics = layer if traced else e2e
        for name, spec in metrics.items():
            b = by_seed(base[key], name)
            if not b:
                continue
            bq = quartiles(list(b.values()))
            row = [workload, name, str(len(b)), fmt(bq[0]), fmt(bq[1]), fmt(bq[2]),
                   fmt(spread(list(b.values())))]
            nb = None
            if new is not None:
                nb = by_seed(new.get(key, []), name)
                if nb:
                    nq = quartiles(list(nb.values()))
                    delta = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
                    row += [str(len(nb)), fmt(nq[0]), fmt(nq[1]), fmt(nq[2]), f"{delta:+.2%}"]
                else:
                    row += ["0", "", "", "", ""]
                    nb = None
            if traced:
                v = "info"
            elif new is not None and nb is None:
                v = "missing"
            else:
                v = verdict(b, nb, spec["bound"], spec["better"] == "lower")
            flagged |= v == "REGRESSION"
            out.append(row + [v])
    print_table(out)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
