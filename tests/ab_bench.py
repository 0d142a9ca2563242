"""Alternating A/B runs of bench/run.py on two commits, side by side.

Usage, from anywhere inside a clone:

    python3 tests/ab_bench.py --parent HEAD~1 --change HEAD --pairs 10 \
        --workload sim-genuine-q2n8 --workload codec-q2n16 --seed 1 \
        --dir /tmp/ab --tier1 2 --out BENCH_name.json

The committed files of each revision are exported with git archive into
DIR/parent and DIR/change, two sibling directories, so neither side runs
from the working checkout: directory placement alone has moved q = 2
decode times by several percent.  Pair i runs every --workload (the option
repeats) on both sides, the parent first for odd i and the change first
for even i.  Each run is the unchanged

    python3 bench/run.py --workload W --seed S --seconds 10 --trace 0

of that side, and its last stdout line is its result.  The script prints
one JSON object, and writes it to --out when given, in the shared schema
of the checked-in BENCH_*.json files: how, and under workloads, per
workload, the resolved commits, each side's checks, and for each
end-to-end metric of BENCHMARK.json each side's runs, median and
quartiles, the ratio of the change's median to the parent's, the number
of pairs in which the change was better and of tied pairs, the exact
two-sided sign-test p-value over the untied pairs, and the parent's
interquartile distance over its median.  --tier1 N adds tier1: N
alternating runs per side of the tier-1 suite in each export, their wall
times and their passed and failed counts.  The prose fields of a record,
what and claim, are written by hand.  Nothing under bench/ is edited.  A
revision that is not yet committed can be exported as `git stash create`,
which commits the working tree's tracked files without moving any branch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(rev: str, dest: Path) -> str:
    """The commit of rev, with its files written to the new dest."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(root: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: bench/run.py printed nothing\n"
                           f"{out.stderr}")
    return json.loads(lines[-1])


def run_tier1(root: Path) -> dict:
    """Wall time and counts of one tier-1 run in the export root."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - start
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: pytest printed nothing\n{out.stderr}")
    tail = lines[-1]
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed)", tail)}
    return {"wall_s": round(wall, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "failing": re.findall(r"^FAILED (\S+)", out.stdout, re.M)}


def spread(runs: list) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def sign_test_p(better: int, untied: int) -> float:
    """Exact two-sided sign-test p-value: the chance that a fair coin over
    untied pairs splits at least as unevenly as better of them did."""
    tail = min(better, untied - better)
    return min(1.0, 2 * sum(math.comb(untied, i) for i in range(tail + 1))
               / 2 ** untied)


def summarize(results: dict, declared: list) -> dict:
    metrics = {}
    for m in declared:
        name, higher = m["name"], m["better"] == "higher"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        parent, change = spread(runs["parent"]), spread(runs["change"])
        pairs = list(zip(runs["parent"], runs["change"]))
        better = sum((c > p) if higher else (c < p) for p, c in pairs)
        tied = sum(c == p for p, c in pairs)
        metrics[name] = {
            "parent": parent, "change": change,
            "change_over_parent_median":
                change["median"] / parent["median"] if parent["median"]
                else None,
            "pairs_change_better": better,
            "pairs_tied": tied,
            "sign_test_p": sign_test_p(better, len(pairs) - tied),
            "parent_iqr_over_median":
                (parent["q3"] - parent["q1"]) / parent["median"]
                if parent["median"] else None,
            "unit": m["unit"], "better": m["better"]}
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision A")
    ap.add_argument("--change", required=True, help="revision B")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", required=True, action="append",
                    help="a bench/run.py workload; repeat for several")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dir", required=True, type=Path,
                    help="new or empty directory for the two exports")
    ap.add_argument("--out", type=Path, help="also write the report here")
    ap.add_argument("--tier1", type=int, default=0, metavar="N",
                    help="add N tier-1 runs per side")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.tier1 < 0:
        ap.error("need --pairs >= 1 and --tier1 >= 0")
    if len(set(args.workload)) < len(args.workload):
        ap.error("a --workload is named twice")
    if args.dir.exists() and any(args.dir.iterdir()):
        ap.error(f"--dir {args.dir} is not empty")
    return args


def orders(count: int):
    """The side order of pair 1..count: the parent first for odd pairs."""
    return [SIDES if i % 2 else SIDES[::-1] for i in range(1, count + 1)]


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {side: args.dir.resolve() / side for side in SIDES}
    commits = {side: export(getattr(args, side), roots[side])
               for side in SIDES}
    results = {w: {side: [] for side in SIDES} for w in args.workload}
    for i, order in enumerate(orders(args.pairs), 1):
        for w in args.workload:
            for side in order:
                results[w][side].append(run_once(roots[side], w, args.seed))
                print(f"pair {i} {w} {side}: "
                      f"{json.dumps(results[w][side][-1])}",
                      file=sys.stderr, flush=True)
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    run = ("python3 bench/run.py --workload W --seed S --seconds 10 "
           "--trace 0")
    report = {
        "how": f"tests/ab_bench.py: both revisions exported with git "
               f"archive into sibling directories, {args.pairs} alternating "
               f"pairs per workload of the unchanged {run}, Python "
               f"{sys.version.split()[0]}, {os.cpu_count()} cores",
        "workloads": {w: {
            "seed": args.seed, "pairs": args.pairs,
            "order": "pair i runs the parent first for odd i, the change "
                     "first for even i",
            "commits": commits,
            **{side: {"all_correct": all(r["correct"] for r in res[side]),
                      "attempted": sorted({r["attempted"]
                                           for r in res[side]}),
                      "failed": sorted({r["failed"] for r in res[side]})}
               for side in SIDES},
            "metrics": summarize(res, declared["end_to_end"]),
        } for w, res in results.items()},
    }
    ok = all(report["workloads"][w][side]["all_correct"]
             for w in args.workload for side in SIDES)
    if args.tier1:
        tier1 = report["tier1"] = {
            "command": "PYTHONPATH=src python -m pytest -q "
                       "--continue-on-collection-errors -p no:cacheprovider, "
                       "in each export, sides alternating",
            **{side: [] for side in SIDES}}
        for order in orders(args.tier1):
            for side in order:
                tier1[side].append(run_tier1(roots[side]))
    text = json.dumps(report, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
