#!/usr/bin/env python3
"""Compare vtbench end-to-end metrics of a base commit and this checkout.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10
    python3 scripts/bench_pairs.py --base HEAD~1 --workloads fig3_seq \\
        --pairs 10 --seed 7

The base commit is exported with `git archive` into a temporary directory
that is removed afterwards, so the repository's .git is never touched.
Each side runs its own vtbench/run.py, which builds that side's
sources into its own .bench_build. After one discarded warm-up run per
side and workload, the script runs N pairs per workload, alternating
which side goes first, and prints for every end-to-end metric in
BENCHMARK.json:

  - each side's median and quartiles;
  - the median change, and the change side's wins out of N pairs;
  - the 9-of-10 rule: wins in at least 90% of the pairs, and a median
    difference larger than the base's interquartile range;
  - the bound check: the change's median worse than the base's by more
    than the metric's BENCHMARK.json bound (a fraction) is a FAIL; a
    side whose interquartile range exceeds the bound is "unresolved",
    unless every change run reads better than every base run.

Exits 1 if a run fails, reports wrong results, or breaks a bound.
Nothing under vtbench/ is changed. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_tree(ref):
    """Extract @p ref of this repository into a fresh temporary dir."""
    dest = tempfile.mkdtemp(prefix="vtsim-base-")
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        shutil.rmtree(dest, ignore_errors=True)
        sys.exit("bench_pairs: cannot export %s" % ref)
    return dest


def run_once(tree, workload, seed, seconds):
    """One vtbench run of @p tree; returns the result object."""
    cmd = [sys.executable, os.path.join(tree, "vtbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("bench_pairs: %s failed in %s" % (workload, tree))
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.exit("bench_pairs: wrong results from %s: %s"
                 % (tree, lines[-1][:300]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric, base, change):
    """Summary of one metric over the pairs; returns (row, failed)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    ties = sum(c == b for b, c in zip(base, change))
    delta = cmed - bmed
    rel = delta / bmed if bmed else 0.0
    worse = (rel if lower else -rel) > bound
    spread = max((b3 - b1) / abs(bmed) if bmed else 0.0,
                 (c3 - c1) / abs(cmed) if cmed else 0.0)
    n = len(base)
    rule = wins >= 0.9 * n and abs(delta) > (b3 - b1)
    all_better = (max(change) < min(base)) if lower else \
        (min(change) > max(base))
    if worse:
        verdict = "FAIL bound"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif ties == n:
        verdict = "identical"
    else:
        verdict = "ok"
    row = ("%-18s %11.6g [%.6g-%.6g]  %11.6g [%.6g-%.6g]  %+7.2f%%  "
           "%2d/%d  %-4s  %s" % (metric["name"], bmed, b1, b3, cmed, c1, c3,
                                 100 * rel, wins, n,
                                 "9/10" if rule else "-", verdict))
    return row, worse


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1",
                    help="git ref of the base side (default HEAD~1)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    base_tree = export_tree(args.base)
    print("base: %s   change: %s" % (args.base, ROOT), file=sys.stderr)
    sides = {"base": base_tree, "change": ROOT}
    runs = {}
    failed = False
    try:
        for wl in args.workloads:
            for tree in sides.values():  # warm-up, builds each side
                run_once(tree, wl, args.seed, 1)
            runs[wl] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else \
                    ["change", "base"]
                for side in order:
                    runs[wl][side].append(
                        run_once(sides[side], wl, args.seed, args.seconds))
                print("%s pair %d/%d: cpu_s base %.3f change %.3f" % (
                    wl, i + 1, args.pairs, runs[wl]["base"][-1]["cpu_s"],
                    runs[wl]["change"][-1]["cpu_s"]), file=sys.stderr)
            print("\n== %s: %d pairs, %d s each, seed %d" %
                  (wl, args.pairs, args.seconds, args.seed))
            print("%-18s %-26s  %-26s  %8s  %5s  %-4s  %s" % (
                "metric", "base median [q1-q3]", "change median [q1-q3]",
                "change", "wins", "rule", "verdict"))
            for metric in spec["end_to_end"]:
                name = metric["name"]
                row, worse = compare(
                    metric, [r[name] for r in runs[wl]["base"]],
                    [r[name] for r in runs[wl]["change"]])
                print(row)
                failed = failed or worse
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
