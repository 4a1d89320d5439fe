#!/usr/bin/env python3
"""quick=1 self-test of the end-to-end benchmark (registered with ctest).

    python3 bench/e2e/selftest.py PATH/TO/e2e_bench

From the checkout root, runs every workload in BENCHMARK.json at tiny size,
untraced and traced, and checks each run's last stdout line against the
result grammar: exactly the keys correct/attempted/failed/metrics, correct
true, whole-number counts with no failures, and exactly the end-to-end
(untraced) or per-layer (traced) metrics with their units and finite values,
the end-to-end ones non-zero. Then it summarises the result files with
compare.py, and checks that run.sh, copied without the rest of the checkout,
fails without printing a result.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent


def check_result(line, expected, nonzero):
    """Grammar errors of one result line; expected is {metric: unit}."""
    try:
        r = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(r) if isinstance(r, dict) else type(r).__name__}"]
    errs = []
    if r["correct"] is not True:
        errs.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(r[key], int) or isinstance(r[key], bool):
            errs.append(f"{key} is not a whole number")
    if isinstance(r["attempted"], int) and r["attempted"] < 1:
        errs.append("attempted < 1")
    if r["failed"] != 0:
        errs.append(f"failed = {r['failed']}")
    metrics = r["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        got = set(metrics) if isinstance(metrics, dict) else set()
        errs.append(f"metrics missing {sorted(set(expected) - got)}, extra {sorted(got - set(expected))}")
        return errs
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            errs.append(f"{name}: not {{value, unit}}")
            continue
        v = m["value"]
        if m["unit"] != unit:
            errs.append(f"{name}: unit {m['unit']!r}, BENCHMARK.json says {unit!r}")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            errs.append(f"{name}: value {v!r} is not a finite number")
        elif nonzero and v == 0:
            errs.append(f"{name}: end-to-end value is 0")
    return errs


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = str(pathlib.Path(sys.argv[1]).resolve())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_build" / "e2e" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    (work / "results").mkdir(parents=True)

    failures = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            spec = bench["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in spec}
            out = work / "results" / f"{w['name']}-trace{trace}.json"
            cmd = [binary, "--workload", w["name"], "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace), "--quick", "1", "--out", str(out)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = p.stdout.strip().splitlines()
            errs = [f"exit code {p.returncode}: {p.stderr.strip()[-500:]}"] if p.returncode else []
            errs += check_result(lines[-1], expected, nonzero=not trace) if lines else ["no output"]
            status = "ok" if not errs else "FAILED"
            print(f"{status:6} {w['name']} trace={trace}")
            failures += [f"{w['name']} trace={trace}: {e}" for e in errs]

    p = subprocess.run([sys.executable, str(HERE / "compare.py"), str(work / "results")],
                       capture_output=True, text=True)
    print(f"{'ok' if p.returncode == 0 else 'FAILED':6} compare.py over the results")
    if p.returncode != 0:
        failures.append(f"compare.py: {p.stdout[-500:]}{p.stderr[-500:]}")

    # Only BENCHMARK.json and bench/e2e: the benchmark must refuse to run.
    bare = work / "bare"
    shutil.copytree(HERE, bare / "bench" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    p = subprocess.run(["bash", "bench/e2e/run.sh", "--workload", "fig8-cold", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    refused = p.returncode != 0 and "{" not in p.stdout
    print(f"{'ok' if refused else 'FAILED':6} run.sh outside a full checkout fails without a result")
    if not refused:
        failures.append("run.sh printed a result or exited 0 without src/")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("  " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
