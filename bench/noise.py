#!/usr/bin/env python3
"""Runs the two alternating sets for bench/noise.sh and writes bench/NOISE.md."""
import json
import platform
import statistics
import subprocess
import sys
import time

# Runs per set: what the benchmark's driver makes.
RUNS = 10
binary = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
seconds = str(spec["run_seconds"])
metrics = spec["end_to_end"]


def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def cpu_model():
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


lines = [
    "# Noise of the benchmark on one host",
    "",
    "Written by `bash bench/noise.sh`; do not edit. Two sets of %d runs of the same code per" % RUNS,
    "workload, each run with another seed, the sets alternating run by run. For every end-to-end",
    "metric: each set's first quartile, median and third quartile; the spread of each set",
    "(quartile distance as a share of the median); how much worse the second set's median is",
    "than the first's; and the regression bound `BENCHMARK.json` gives the metric. The bound",
    "holds when every spread except `setup_s`'s is inside it and no second median is worse",
    "than the first by more than it; the aim is a spread below a third of the bound.",
    "",
    "Host: %d CPUs, %s, Linux %s. Measured %s, %s s per run." % (
        len([l for l in open("/proc/cpuinfo") if l.startswith("processor")]),
        cpu_model(), platform.release(), time.strftime("%Y-%m-%d"), seconds),
    "",
]
worst = []
for w in [w["name"] for w in spec["workloads"]]:
    sets = ({}, {})
    for i in range(RUNS):
        for s in (0, 1):
            # Set A takes seeds 1..RUNS, set B the next RUNS.
            for name, value in run(w, 1 + i + s * RUNS).items():
                sets[s].setdefault(name, []).append(value)
    lines += ["## %s" % w, "",
              "| metric | unit | set A q1 / median / q3 | set B q1 / median / q3 | spread A | spread B | B worse by | bound | verdict |",
              "|---|---|---|---|---|---|---|---|---|"]
    for m in metrics:
        a, b = quartiles(sets[0][m["name"]]), quartiles(sets[1][m["name"]])
        spread = [(q[2] - q[0]) / q[1] for q in (a, b)]
        worse = (b[1] - a[1]) / a[1] * (1 if m["better"] == "lower" else -1)
        ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spread) <= m["bound"])
        third = max(spread) <= m["bound"] / 3 or m["name"] == "setup_s"
        verdict = "ok" if ok and third else ("within bound" if ok else "OUTSIDE")
        worst.append((verdict, w, m["name"]))
        lines.append("| %s | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %.4f | %.4f | %+.4f | %.3g | %s |" % (
            m["name"], m["unit"], *a, *b, spread[0], spread[1], worse, m["bound"], verdict))
    lines.append("")
    open("bench/NOISE.md", "w").write("\n".join(lines) + "\n")
outside = [x for x in worst if x[0] == "OUTSIDE"]
lines += ["## Summary", "",
          "%d of %d metric x workload pairs are inside their bound; %d also have both spreads below a third of it." % (
              len(worst) - len(outside), len(worst), len([x for x in worst if x[0] == "ok"])), ""]
lines += ["- OUTSIDE: %s / %s" % (w, m) for _, w, m in outside]
open("bench/NOISE.md", "w").write("\n".join(lines) + "\n")
print("\n".join(lines))
sys.exit(1 if outside else 0)
