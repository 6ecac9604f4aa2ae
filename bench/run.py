"""The buyhold benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload kernel|games|backtest|cli|all \
        --seed N --seconds S --trace 0|1

Inputs come from ``--seed``.  Each workload runs as a single-client
closed loop in one fresh worker process, with BLAS and OpenMP pinned
to one thread.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics (see bench/README.md).  The last
line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Traces and a full
record go to ``.bench_out/``.
"""

import argparse
import json
import os
import pickle
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # before numpy is imported, here and in every child

import numpy as np  # noqa: E402

from tracer import CLOSED_FORMS, outermost_busy, span_totals  # noqa: E402
from workloads import WORKLOADS, run_process  # noqa: E402

NAMES = ("kernel", "games", "backtest", "cli")
SPAWN_SAMPLES = 5
#: Fewest ops in an untraced run, so at least 10 latencies lie above p90.
MIN_OPS = 100
READY_TIMEOUT_S = 60
#: The run length every workload measures, unless ``--seconds`` says otherwise.
RUN_SECONDS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]

SUBCOMMANDS = ("weights", "solve", "sweep", "downturns", "backtest", "synth")
IMPORT_TIMER = "import time; t = time.perf_counter(); import buyhold; print(time.perf_counter() - t)"


def child_env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def spawn_worker(name):
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), name, "run"],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        bufsize=0,
    )


def wait_ready(proc):
    """Block until the worker prints ``ready``; fail if it dies or stalls."""
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else b""
    if line.strip() != b"ready":
        raise RuntimeError(f"worker did not get ready (got {line[:200]!r})")


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def checked(done):
    if done.returncode != 0:
        raise RuntimeError(f"{done.args} exited with {done.returncode}: {done.stderr.decode()[-500:]}")
    return done


def spawn_ms(code):
    """Median wall time in ms of ``python -c code``; if it prints a number, that instead."""
    samples = []
    for _ in range(SPAWN_SAMPLES):
        t0 = time.perf_counter()
        done = checked(run_process([sys.executable, "-c", code], ROOT, child_env()))
        elapsed = time.perf_counter() - t0
        samples.append(float(done.stdout) if done.stdout.strip() else elapsed)
    return statistics.median(samples) * 1e3


def run_worker(name, specs, seconds, trace):
    proc = spawn_worker(name)
    try:
        wait_ready(proc)
        payload = pickle.dumps({"specs": specs, "seconds": seconds, "trace": trace, "min_ops": MIN_OPS})
        # Past the worker's own give-up time (3 * seconds + 30 per loop) and its warm-up pass.
        out, _ = proc.communicate(payload, timeout=3 * seconds + 90)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop, rss_mb, attempted, failed):
    latencies = loop["latencies"]
    ms = [t * 1e3 for t in latencies]
    return {
        "setup_s": metric(statistics.median(loop["setups"]), "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(statistics.median(ms), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "ok_ops_frac": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(name, result, spans_totals, interpreter_ms, import_ms):
    """Per-layer metrics, per pass over the workload's inputs."""
    traced = result["traced"]
    passes = traced["passes"]
    counts = result["counts"]

    def busy(span):
        return spans_totals.get(span, (0, 0.0, 0.0))[1] * 1e3 / passes

    def own(span):
        return spans_totals.get(span, (0, 0.0, 0.0))[2] * 1e3 / passes

    def calls(span):
        return spans_totals.get(span, (0, 0.0, 0.0))[0] / passes

    def count(key):
        return counts.get(key, 0) / passes

    m = {}
    ms, n = "ms", "count"
    m["linalg.invert_matrix.calls"] = metric(calls("linalg.invert_matrix"), n)
    m["linalg.invert_matrix.busy_ms"] = metric(busy("linalg.invert_matrix"), ms)
    m["linalg.invert_matrix.n3_sum"] = metric(count("linalg.invert_matrix.n3_sum"), n)
    m["linalg.invert_matrix.singular"] = metric(count("linalg.invert_matrix.singular"), n)
    m["simplex.solve_lp.calls"] = metric(calls("simplex.solve_lp"), n)
    m["simplex.solve_lp.busy_ms"] = metric(busy("simplex.solve_lp"), ms)
    m["simplex.solve_lp.failed"] = metric(count("simplex.solve_lp.failed"), n)
    m["simplex.solve_lp.cells_sum"] = metric(count("simplex.solve_lp.cells_sum"), n)
    m["games.solve_game.calls"] = metric(calls("games.solve_game"), n)
    m["games.solve_game.busy_ms"] = metric(busy("games.solve_game"), ms)
    m["games.solve_game.self_ms"] = metric(own("games.solve_game"), ms)
    m["games.solve_game_closed_form.busy_ms"] = metric(busy("games.solve_game_closed_form"), ms)
    m["games.solve_game_lp.busy_ms"] = metric(busy("games.solve_game_lp"), ms)
    m["games.route.closed_form"] = metric(count("games.route.closed_form"), n)
    m["games.route.lp"] = metric(count("games.route.lp"), n)
    m["games.square_games"] = metric(count("games.square_games"), n)
    square = counts.get("games.square_games", 0)
    hit = counts.get("games.route.closed_form", 0) / square if square else 0.0
    m["games.closed_form_hit_ratio"] = metric(hit, "ratio")
    for fn in ("payoff_matrix_K", "downturns", "static_ratio_via_downturns"):
        m[f"market.{fn}.busy_ms"] = metric(busy(f"market.{fn}"), ms)
    closed_forms = {f"market.{fn}" for fn in CLOSED_FORMS}
    m["market.closed_forms.busy_ms"] = metric(outermost_busy(result["spans"], closed_forms) * 1e3 / passes, ms)
    m["backtest.parse_prices.busy_ms"] = metric(busy("backtest.parse_prices"), ms)
    m["backtest.parse_prices.rows"] = metric(count("backtest.parse_prices.rows"), n)
    m["backtest.segment_monthly.busy_ms"] = metric(busy("backtest.segment_monthly"), ms)
    m["backtest.windows"] = metric(count("backtest.windows"), n)
    m["backtest.skipped"] = metric(count("backtest.skipped"), n)
    m["backtest.run_plan.calls"] = metric(calls("backtest.run_plan"), n)
    m["backtest.run_plan.self_ms"] = metric(own("backtest.run_plan"), ms)
    m["backtest.find_violations.busy_ms"] = metric(busy("backtest.find_violations"), ms)
    m["backtest.violations"] = metric(count("backtest.violations"), n)
    m["backtest.compare_report.busy_ms"] = metric(busy("backtest.compare_report"), ms)
    for fmt in ("json", "csv", "svg"):
        m[f"backtest.report_{fmt}.busy_ms"] = metric(busy(f"backtest.report_{fmt}"), ms)
    m["backtest.report_bytes"] = metric(count("backtest.report_bytes"), n)
    m["backtest.synthetic_prices.busy_ms"] = metric(busy("backtest.synthetic_prices"), ms)
    m["backtest.series_csv.busy_ms"] = metric(busy("backtest.series_csv"), ms)
    m["svgchart.line_chart.busy_ms"] = metric(busy("svgchart.line_chart"), ms)
    m["svgchart.line_chart.points"] = metric(count("svgchart.line_chart.points"), n)
    m["cli.interpreter_ms"] = metric(interpreter_ms, ms)
    m["cli.import_ms"] = metric(import_ms, ms)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.wall_ms"] = metric(subcommand_wall_ms(name, result, sub), ms)
    m["cli.main.self_ms"] = metric(own("cli.main"), ms)
    m["trace.op_ms"] = metric(busy("op." + name), ms)
    untraced = result["loop"]
    overhead = (len(untraced["latencies"]) / sum(untraced["latencies"])) / (
        len(traced["latencies"]) / sum(traced["latencies"])
    )
    m["trace.overhead_ratio"] = metric(overhead, "ratio")
    return m


def subcommand_wall_ms(name, result, sub):
    """Median untraced wall time of one call of ``sub`` on the cli workload, else 0."""
    if name != "cli":
        return 0.0
    specs = result["specs"]
    times = [t for i, t in enumerate(result["loop"]["latencies"]) if specs[i % len(specs)]["sub"] == sub]
    return statistics.median(times) * 1e3 if times else 0.0


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name, seed, seconds, trace):
    rng = np.random.default_rng([seed, NAMES.index(name)])
    specs = WORKLOADS[name].inputs(rng)
    result = run_worker(name, specs, seconds, trace)
    result["specs"] = specs
    loop = result["loop"]
    loops = [result[key] for key in ("warmup", "loop", "traced") if key in result]
    failures = [f for run in loops for f in run["failures"]]
    attempted = sum(len(run["latencies"]) for run in loops)
    if trace:
        totals = span_totals(result["spans"])
        metrics = per_layer(name, result, totals, spawn_ms("pass"), spawn_ms(IMPORT_TIMER))
    else:
        metrics = end_to_end(loop, result["peak_rss_mb"], attempted, len(failures))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            **result["env"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "threads": {k: os.environ[k] for k in THREAD_VARS},
        },
        "ops_per_pass": result["ops_per_pass"],
        "passes": loop["passes"],
        "ops": len(loop["latencies"]),
        "attempted": attempted,
        "setup_samples": loop["setups"],
        "failures": failures[:20],
        "metrics": metrics,
    }
    if trace:
        record["traced_passes"] = result["traced"]["passes"]
        record["traced_ops"] = len(result["traced"]["latencies"])
        record["missing_targets"] = result["missing"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps({**record, "latencies_s": loop["latencies"]}) + "\n")
    if trace:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span) + "\n")
    return record, attempted, len(failures)


def show(record):
    samples = record["traced_ops"] if record["trace"] else record["ops"]
    print(f"{record['workload']}: {samples} ops, {record['ops_per_pass']} per pass, seed {record['seed']}")
    for key, m in record["metrics"].items():
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    for index, error in record["failures"]:
        print(f"  FAILED op {index}: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its workers, through the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "buyhold" / "__init__.py").is_file():
        print(f"error: no src/buyhold under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = NAMES if args.workload == "all" else (args.workload,)
    records, attempted, failed = [], 0, 0
    for name in names:
        record, tried, bad = run_workload(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        attempted += tried
        failed += bad
        show(record)
        print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
