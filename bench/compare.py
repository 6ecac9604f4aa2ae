"""Compare a parent checkout with a change, workload by workload.

Usage, from anywhere:

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Both checkouts are measured by this copy of the benchmark, so the
benchmark code and settings are identical on both sides.  Each of the
10 pairs per workload runs the parent and the change on the same seed
(1000 to 1009) for ``run_seconds``, alternating which runs first.  For
every workload and end-to-end metric it reports each side's median and
quartiles and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``unresolved``: the parent's own spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``same``: none of the above.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
PAIRS = 10
SEED_BASE = 1000


def run_once(checkout, workload, seed):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, check=True, timeout=600,
    )
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {checkout}: {result['failed']} of {result['attempted']} ops failed", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_lo, p_med, p_hi = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gap = sign * (c_med - p_med)
    if wins >= 0.9 * len(parent) and gap > p_hi - p_lo:
        return "gain", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p_hi - p_lo) > bound * abs(p_med) and not all_better:
        return "unresolved", wins
    if -gap > bound * abs(p_med):
        return "regression", wins
    return "same", wins


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    report = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side).resolve(), workload, SEED_BASE + i))
        print(f"{workload}  ({PAIRS} pairs, {SPEC['run_seconds']} s runs)")
        for m in SPEC["end_to_end"]:
            parent = [r[m["name"]] for r in runs["parent"]]
            change = [r[m["name"]] for r in runs["change"]]
            result, wins = verdict(parent, change, m["better"], m["bound"])
            pq, cq = quartiles(parent), quartiles(change)
            print(
                f"  {m['name']:16s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}"
                f"  wins {wins}/{PAIRS}  {result}"
            )
            report.append({"workload": workload, "metric": m["name"], "parent": parent,
                           "change": change, "wins": wins, "verdict": result})
    out = args.change / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
