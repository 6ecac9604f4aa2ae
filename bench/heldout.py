"""Check that a held-out seed gives the workloads the same shape.

Usage, from the root of a checkout:

    python3 bench/heldout.py

Runs the traced benchmark, for ``run_seconds`` on every workload, on the seed the workloads were sized with and
on a seed never used for sizing, then compares, per workload, the
things that define its shape: ops per pass, no failed ops, the calls
per pass into each solver and route, and which per-layer metrics are
zero.  Timings are not compared.  Exits 1 if any shape differs.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SIZING_SEED = 1
HELD_OUT_SEED = 7919

#: Per-pass counts fixed by each workload's input mix, whatever the seed.
SHAPE_COUNTS = (
    "linalg.invert_matrix.calls",
    "linalg.invert_matrix.singular",
    "simplex.solve_lp.calls",
    "simplex.solve_lp.failed",
    "games.solve_game.calls",
    "games.route.closed_form",
    "games.route.lp",
    "games.square_games",
    "games.closed_form_hit_ratio",
)


def traced(workload, seed):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "1"],
        stdout=subprocess.PIPE, check=True, timeout=600,
    )
    lines = done.stdout.decode().strip().splitlines()
    record = json.loads(next(line for line in reversed(lines) if line.startswith("record: "))[8:])
    result = json.loads(lines[-1])
    return record, result


def shape(record, result):
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {
        "ops_per_pass": record["ops_per_pass"],
        "failed": result["failed"],
        **{k: metrics[k] for k in SHAPE_COUNTS},
        "zero": sorted(k for k, v in metrics.items() if v == 0),
    }


def main():
    same = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        sizing = shape(*traced(workload, SIZING_SEED))
        held = shape(*traced(workload, HELD_OUT_SEED))
        diff = [k for k in sizing if sizing[k] != held[k]]
        same &= not diff and held["failed"] == 0
        print(f"{workload}: {'same shape' if not diff else 'DIFFERS in ' + ', '.join(diff)}")
        for key in ("ops_per_pass", "failed", *SHAPE_COUNTS):
            print(f"  {key:32s} seed {SIZING_SEED}: {sizing[key]:<10g} seed {HELD_OUT_SEED}: {held[key]:g}")
        if "zero" in diff:
            print(f"  zero on seed {SIZING_SEED} only: {sorted(set(sizing['zero']) - set(held['zero']))}")
            print(f"  zero on seed {HELD_OUT_SEED} only: {sorted(set(held['zero']) - set(sizing['zero']))}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
