#!/usr/bin/env python3
"""Same-host A/B benchmark of a base ref against the working tree.

    python3 tools/ab_bench.py BASE_REF [--pairs 5] [--seconds 25]
                              [--workload W ...]

The base is the committed tree of BASE_REF, exported with `git archive`
into a temporary directory; the change is the working tree.  Each side
builds the end-to-end harness under its own CARGO_TARGET_DIR (a
temporary directory), so neither reuses the other's objects.  For each
workload (every one BENCHMARK.json lists, unless --workload names some)
the tool runs BENCHMARK.json's command,

    python3 e2ebench/run.py --workload W --seed 7 --seconds S

P times on each side, alternating between them and swapping which side
runs first from one pair to the next.  It prints, for every end-to-end
metric of BENCHMARK.json, both sides' medians, their ratio
(change / base) and how many pairs the change won.

Exit status: 0 when every run printed "correct": true with 0 failed and
no median is worse than its BENCHMARK.json bound; 1 otherwise; 2 when
the base cannot be exported or a side does not build.  The tool reads
BENCHMARK.json and calls e2ebench/run.py; it edits neither.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def parse_result(stdout):
    """The result JSON of one run (the last line of its standard
    output), or None when there is none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_problem(result):
    """Why one run does not count as a correct run, or None."""
    if result is None:
        return "no result line"
    if result.get("correct") is not True:
        return '"correct" is not true'
    if result.get("failed", 1) != 0:
        return f'{result.get("failed")} failed'
    return None


def metric_value(result, name):
    return result["metrics"][name]["value"]


def better(spec, change, base):
    return change > base if spec["better"] == "higher" else change < base


def worse_than_bound(spec, change, base):
    """True when the change's median is worse than the base's by more
    than the metric's relative bound."""
    if spec["better"] == "higher":
        return change < base * (1.0 - spec["bound"])
    return change > base * (1.0 + spec["bound"])


def compare(end_to_end, base_results, change_results):
    """Pairs base_results[i] with change_results[i].  Returns one row
    per metric, (name, base median, change median, ratio, wins,
    pairs, verdict), and the list of problems that fail the gate."""
    problems = []
    for side, results in (("base", base_results), ("change", change_results)):
        for i, result in enumerate(results):
            problem = run_problem(result)
            if problem is not None:
                problems.append(f"{side} run {i + 1}: {problem}")
    if problems:
        return [], problems
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        try:
            base = [metric_value(r, name) for r in base_results]
            change = [metric_value(r, name) for r in change_results]
        except (KeyError, TypeError):
            problems.append(f"{name}: missing from a run")
            continue
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        if base_median != 0:
            ratio = change_median / base_median
        else:
            ratio = 1.0 if change_median == 0 else float("inf")
        wins = sum(better(spec, c, b) for b, c in zip(base, change))
        verdict = "ok"
        if worse_than_bound(spec, change_median, base_median):
            verdict = f"WORSE than its {spec['bound']:.0%} bound"
            problems.append(f"{name}: median {change_median:.6g} against "
                            f"{base_median:.6g} is {verdict}")
        rows.append((name, base_median, change_median, ratio, wins,
                     len(base), verdict))
    return rows, problems


def format_rows(workload, rows):
    lines = [f"{workload}:",
             f"  {'metric':<18} {'base':>12} {'change':>12} {'ratio':>7}"
             f" {'won':>6}  verdict"]
    for name, base, change, ratio, wins, pairs, verdict in rows:
        lines.append(f"  {name:<18} {base:>12.6g} {change:>12.6g}"
                     f" {ratio:>7.3f} {wins:>3}/{pairs:<2}  {verdict}")
    return "\n".join(lines)


def run_once(command, root, target_dir, workload, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(SEED),
                   "--seconds", str(seconds)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False)
    result = parse_result(proc.stdout)
    if run_problem(result) is not None:
        sys.stderr.write(proc.stderr[-2000:])
    return result


def export_base(ref, destination):
    archive = subprocess.run(["git", "-C", str(ROOT), "archive",
                              "--format=tar", ref],
                             stdout=subprocess.PIPE, check=True)
    destination.mkdir()
    subprocess.run(["tar", "-x", "-C", str(destination)],
                   input=archive.stdout, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_ref")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workload", action="append", default=[])
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = benchmark["command"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    with tempfile.TemporaryDirectory(prefix="ab_bench_") as scratch:
        scratch = Path(scratch)
        try:
            export_base(args.base_ref, scratch / "base")
        except subprocess.CalledProcessError as error:
            print(f"ab_bench: cannot export {args.base_ref}: {error}",
                  file=sys.stderr)
            return 2
        sides = {"base": (scratch / "base", scratch / "base_target"),
                 "change": (ROOT, scratch / "change_target")}
        # Build both sides before any timed pair, with one short run.
        for side, (root, target) in sides.items():
            print(f"ab_bench: building {side}", file=sys.stderr)
            if run_once(command, root, target, workloads[0], 1) is None:
                print(f"ab_bench: {side} does not build or run",
                      file=sys.stderr)
                return 2

        problems = []
        for workload in workloads:
            results = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else (
                    "change", "base")
                for side in order:
                    root, target = sides[side]
                    result = run_once(command, root, target, workload,
                                      args.seconds)
                    results[side].append(result)
                    print(f"ab_bench: {workload} pair {pair + 1} {side}: "
                          f"{json.dumps(result)}", file=sys.stderr)
            rows, found = compare(benchmark["end_to_end"], results["base"],
                                  results["change"])
            if rows:
                print(format_rows(workload, rows))
            problems += [f"{workload}: {p}" for p in found]

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
