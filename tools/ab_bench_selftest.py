#!/usr/bin/env python3
"""Self-test for ab_bench.py that builds and runs nothing.

Canned result lines stand in for e2ebench/run.py's output.  The test
asserts the verdict for a clean win, a median worse than its bound on
a higher-is-better and on a lower-is-better metric, a run that is not
correct, a run with failed items, a run without a result line, and
the pair count the change won.
"""

import importlib.util
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = importlib.util.spec_from_file_location("ab_bench", HERE / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "throughput", "better": "higher", "bound": 0.25},
    {"name": "cpu_s_per_kitem", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def line(throughput, cpu, rss, correct=True, failed=0):
    """One run's stdout: a log line, then the result JSON."""
    metrics = {"throughput": {"value": throughput, "unit": "items/s"},
               "cpu_s_per_kitem": {"value": cpu, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": metrics}
    return "building...\n" + json.dumps(result) + "\n"


def runs(*stdouts):
    return [ab_bench.parse_result(s) for s in stdouts]


def verdict(base, change):
    rows, problems = ab_bench.compare(END_TO_END, base, change)
    return {row[0]: row for row in rows}, problems


FAILURES = []


def check(condition, what):
    if not condition:
        FAILURES.append(what)


def main():
    base = runs(line(100, 1.0, 10), line(110, 1.1, 10), line(90, 0.9, 10))

    # A clean win: every pair faster, nothing worse.
    rows, problems = verdict(
        base, runs(line(140, 0.8, 9), line(150, 0.8, 9), line(130, 0.7, 9)))
    check(problems == [], f"clean win flagged: {problems}")
    check(rows["throughput"][4] == 3, "clean win did not win 3 of 3 pairs")
    check(abs(rows["throughput"][3] - 1.4) < 1e-12, "ratio of medians")
    check(rows["throughput"][1] == 100 and rows["throughput"][2] == 140,
          "paired medians")

    # Within the bound: 20% slower throughput passes a 25% bound.
    _, problems = verdict(
        base, runs(line(80, 1.0, 10), line(88, 1.1, 10), line(72, 0.9, 10)))
    check(problems == [], f"a 20% slowdown failed a 25% bound: {problems}")

    # Beyond the bound, higher is better.
    rows, problems = verdict(
        base, runs(line(70, 1.0, 10), line(77, 1.1, 10), line(63, 0.9, 10)))
    check(len(problems) == 1 and "throughput" in problems[0],
          f"a 30% slowdown passed: {problems}")
    check(rows["throughput"][4] == 0, "a slowdown won pairs")

    # Beyond the bound, lower is better.
    _, problems = verdict(
        base, runs(line(100, 1.0, 11.5), line(110, 1.1, 11.5),
                   line(90, 0.9, 11.5)))
    check(len(problems) == 1 and "peak_rss_mb" in problems[0],
          f"a 15% memory growth passed a 10% bound: {problems}")

    # A run that is not correct, or that failed items, fails the gate
    # whatever its numbers.
    _, problems = verdict(base, runs(line(200, 0.5, 5, correct=False),
                                     line(200, 0.5, 5), line(200, 0.5, 5)))
    check(any("correct" in p for p in problems), "incorrect run passed")
    _, problems = verdict(runs(line(100, 1.0, 10, failed=2),
                               line(110, 1.1, 10), line(90, 0.9, 10)),
                          runs(line(200, 0.5, 5), line(200, 0.5, 5),
                               line(200, 0.5, 5)))
    check(any("failed" in p for p in problems), "run with failures passed")

    # A run without a result line (a crash, a build failure).
    check(ab_bench.parse_result("") is None, "empty output parsed")
    check(ab_bench.parse_result("error: boom\n") is None,
          "a non-JSON last line parsed")
    _, problems = verdict(base, runs("", line(200, 0.5, 5),
                                     line(200, 0.5, 5)))
    check(any("no result line" in p for p in problems),
          "missing result line passed")

    # A metric one run lacks is a problem, not a crash.
    partial = runs(line(140, 0.8, 9), line(150, 0.8, 9), line(130, 0.7, 9))
    del partial[1]["metrics"]["peak_rss_mb"]
    _, problems = verdict(base, partial)
    check(any("peak_rss_mb" in p for p in problems), "missing metric passed")

    for failure in FAILURES:
        print(f"FAIL: {failure}")
    print("ab_bench selftest:", "FAILED" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
