"""Alternating A/B runs of bench/run.py on two commits, side by side.

Usage, from anywhere inside a clone:

    python3 tests/ab_bench.py --parent HEAD~1 --change HEAD --pairs 10 \
        --workload sim-genuine-q2n8 --seed 1 --dir /tmp/ab

The committed files of each revision are exported with git archive into
DIR/parent and DIR/change, two sibling directories, so neither side runs
from the working checkout: directory placement alone has moved q = 2
decode times by several percent.  Pair i runs the parent first for odd i
and the change first for even i.  Each run is the unchanged

    python3 bench/run.py --workload W --seed S --seconds 10 --trace 0

of that side, and its last stdout line is its result.  The script prints
one JSON object: the resolved commits, each side's checks, and for each
end-to-end metric of BENCHMARK.json each side's runs, median and
quartiles, the ratio of the change's median to the parent's, the number
of pairs in which the change was better, and the parent's interquartile
distance over its median.  Nothing under bench/ is edited.  A revision
that is not yet committed can be exported as `git stash create`, which
commits the working tree's tracked files without moving any branch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def run_once(root: Path, args) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "10", "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: bench/run.py printed nothing\n"
                           f"{out.stderr}")
    return json.loads(lines[-1])


def spread(runs: list) -> dict:
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            "runs": runs}


def summarize(results: dict, declared: list) -> dict:
    metrics = {}
    for m in declared:
        name, higher = m["name"], m["better"] == "higher"
        runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                for side in SIDES}
        parent, change = spread(runs["parent"]), spread(runs["change"])
        better = sum((c > p) if higher else (c < p)
                     for p, c in zip(runs["parent"], runs["change"]))
        metrics[name] = {
            "parent": parent, "change": change,
            "change_over_parent_median":
                change["median"] / parent["median"] if parent["median"]
                else None,
            "pairs_change_better": better,
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
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--dir", required=True, type=Path,
                    help="new or empty directory for the two exports")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("need --pairs >= 1")
    if args.dir.exists() and any(args.dir.iterdir()):
        ap.error(f"--dir {args.dir} is not empty")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {side: args.dir.resolve() / side for side in SIDES}
    commits = {side: export(getattr(args, side), roots[side])
               for side in SIDES}
    results = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        for side in (SIDES if i % 2 else SIDES[::-1]):
            results[side].append(run_once(roots[side], args))
            print(f"pair {i} {side}: {json.dumps(results[side][-1])}",
                  file=sys.stderr, flush=True)
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    report = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "order": "pair i runs the parent first for odd i, the change "
                 "first for even i",
        "commits": commits,
        **{side: {"all_correct": all(r["correct"] for r in results[side]),
                  "attempted": sorted({r["attempted"]
                                       for r in results[side]}),
                  "failed": sorted({r["failed"] for r in results[side]})}
           for side in SIDES},
        "metrics": summarize(results, declared["end_to_end"]),
    }
    print(json.dumps(report, indent=1))
    return 0 if all(report[side]["all_correct"] for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
