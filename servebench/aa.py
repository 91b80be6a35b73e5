#!/usr/bin/env python3
"""A/A test of the serving benchmark: two sets of runs of one build.

Run from the repository root:

    python3 servebench/aa.py [runs] [seconds]

For every workload in BENCHMARK.json it runs the benchmark command `runs`
times per set (default 10) with distinct seeds, twice. For each end-to-end
metric it prints the IQR/median of each set and how far the second median
lies from the first (signed: positive is worse). It exits 1 if a spread
or the size of a median shift, in either direction, exceeds the
metric's bound, or if any run fails its checks.
"""

import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        check=False,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        print(out.stdout[-2000:], file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = int(sys.argv[2]) if len(sys.argv) > 2 else bench["run_seconds"]
    ok = True
    for w in bench["workloads"]:
        sets = []
        for s in range(2):
            values = {}
            for i in range(runs):
                seed = 1000 * (s + 1) + i
                metrics = run(bench["command"], w["name"], seed, seconds)
                print(w["name"], "set", s + 1, "seed", seed,
                      " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
                for name, v in metrics.items():
                    values.setdefault(name, []).append(v)
            sets.append(values)
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            ma, mb = statistics.median(a), statistics.median(b)
            shift = abs(mb - ma) / ma
            worse = shift if (mb > ma) == (m["better"] == "lower") else -shift
            sa, sb = spread(a), spread(b)
            bad = shift > bound or max(sa, sb) > bound
            ok &= not bad
            print(
                f"{w['name']:<14} {name:<24} median {ma:12.4f} {mb:12.4f}  "
                f"spread {sa:.3f} {sb:.3f}  worse {worse:+.3f}  bound {bound}"
                + ("  FAIL" if bad else "")
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
