"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py table PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --out DIR

``run`` executes the benchmark in two checkouts: PAIRS pairs over every
workload of BENCHMARK.json, in alternating order (pair i runs the parent
first when i is even, the change first when i is odd, both at seed
SEED_BASE + i), appends every stdout line to DIR/parent.jsonl and
DIR/change.jsonl, and prints the table.  ``table`` reads such files; any file
holding run.py's stdout lines works.

One row per workload and end-to-end metric, by a paired rule that holds on a
noisy machine:

* improved   - the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile distance;
* worse      - the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
* unresolved - the parent's own spread (interquartile distance over median)
               is wider than the bound, unless every change run beats every
               parent run; also an "improved" on a workload where the change
               failed more operations than the parent;
* unchanged  - otherwise.

A final row per workload compares failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10  # the 9-of-10 rule in verdict() assumes ten pairs
SEED_BASE = 1000


def load_runs(path) -> dict:
    """workload -> list of {"metrics", "failed", "attempted"} in file order."""
    runs: dict = {}
    workload = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "workload" in obj:
            workload = obj["workload"]
        elif isinstance(obj, dict) and "metrics" in obj and workload is not None:
            runs.setdefault(workload, []).append(
                {"metrics": {k: v["value"] for k, v in obj["metrics"].items()},
                 "failed": obj["failed"], "attempted": obj["attempted"]})
            workload = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, better: str, bound: float, more_failures: bool) -> tuple[str, str]:
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= 0.9 * len(pairs) and sign * (med_p - med_c) > iqr:
        label = "unresolved" if more_failures else "improved"
    elif sign * (med_c - med_p) > bound * abs(med_p):
        label = "worse"
    elif med_p and iqr / abs(med_p) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return label, f"{wins}/{len(pairs)}"


def table(parent_path, change_path) -> list[str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = [f"{'workload':16} {'metric':14} {'parent median [q1, q3]':32} "
            f"{'change median [q1, q3]':32} {'wins':6} verdict"]
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            label, wins = verdict(p, c, metric["better"], metric["bound"], c_failed > p_failed)
            rows.append(f"{workload:16} {name:14} {_summary(p):32} {_summary(c):32} "
                        f"{wins:6} {label}")
        p_att = sum(r["attempted"] for r in p_runs)
        c_att = sum(r["attempted"] for r in c_runs)
        label = ("worse" if c_failed > p_failed else
                 "improved" if c_failed < p_failed else "unchanged")
        rows.append(f"{workload:16} {'failed':14} {f'{p_failed}/{p_att}':32} "
                    f"{f'{c_failed}/{c_att}':32} {'':6} {label}")
    return rows


def _summary(values) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def run_pairs(parent_dir, change_dir, out_dir) -> None:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(parent_dir), "change": Path(change_dir)}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED_BASE + i),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{side} {workload} seed {SEED_BASE + i} failed:\n{proc.stderr}")
                with open(out / f"{side}.jsonl", "a", encoding="utf-8") as fh:
                    fh.write(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("table")
    p.add_argument("parent")
    p.add_argument("change")
    p = sub.add_parser("run")
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.parent_dir, args.change_dir, args.out)
        args.parent = Path(args.out) / "parent.jsonl"
        args.change = Path(args.out) / "change.jsonl"
    print("\n".join(table(args.parent, args.change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
