"""The four workloads: seeded inputs, one op, and the op's correctness check.

``inputs(rng)`` runs in the benchmark's parent process and needs only
numpy and the standard library, so the program sees nothing but the
generated inputs.  ``op`` and ``check`` run in the worker process.  They
look every program function up on the ``buyhold`` package at call time,
so the tracer's wrappers are the ones called.

Every list is one *pass*.  Sizes sit on a fixed log-uniform grid, so
each seed gives the same sizes.  Runs repeat whole passes, so
ops_per_s and the latency quantiles do not depend on where a run
happens to stop.
"""

import hashlib
import json
import math
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

PRESETS = ("amsterdam", "bangkok", "paris", "taipei", "tel-aviv", "tokyo", "vienna")

#: (daily floor, daily cap) on the price ratio for each preset, as the
#: program defines them.  Used only to generate price files; a mismatch
#: with the program's table shows up as failed ops on admissible files.
PRESET_LIMITS = {
    "amsterdam": (0.90, 1.10),
    "bangkok": (0.90, 1.10),
    "paris": (0.95, 1.10),
    "taipei": (0.93, 1.07),
    "tel-aviv": (0.95, 1.10),
    "tokyo": (0.95, 1.30),
    "vienna": (0.95, 1.05),
}

#: Per-op subprocess limit for the cli workload.
CLI_TIMEOUT_S = 60

#: The cli warm-up call, also the call whose start-up is ``setup_s`` on cli.
CLI_WARMUP = ("weights", "--preset", "taipei", "--days", "21")


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class Context:
    """What ops need in the worker: the package, paths, and per-op state."""

    def __init__(self, b, root, env, work=None):
        self.b = b
        self.root = root
        self.env = env
        self.work = work
        self.tracer = None
        self.seen = {}


def grid(count, lo, hi):
    """Midpoints of ``count`` equal-probability strata of log-uniform ``[lo, hi]``.

    Sizes set most of an op's cost, so they are the same for every seed;
    the seed draws everything else.
    """
    return lo * (hi / lo) ** ((np.arange(count) + 0.5) / count)


def shuffled(rng, specs):
    return [specs[i] for i in rng.permutation(len(specs))]


# --------------------------------------------------------------------------
# kernel: the paper's question, K then solve_game then the downturn ratios.

KERNEL_OPS = 96


def kernel_inputs(rng):
    sizes = np.rint(grid(KERNEL_OPS, 21, 252)).astype(int)
    presets = [PRESETS[i % len(PRESETS)] for i in rng.permutation(KERNEL_OPS // 2)]
    specs = []
    for k, n in enumerate(sizes):
        if k % 2 == 0:
            specs.append({"preset": presets[k // 2], "n": int(n)})
        else:
            alpha, beta = 1.5 - 0.5 * rng.uniform(size=2)  # each in (1, 1.5]
            specs.append({"alpha": float(alpha), "beta": float(beta), "n": int(n)})
    return shuffled(rng, specs)


def kernel_params(b, spec):
    if "preset" in spec:
        return b.preset_params(spec["preset"], spec["n"])
    return b.MarketParams(alpha=spec["alpha"], beta=spec["beta"], n=spec["n"])


def kernel_op(ctx, spec):
    b = ctx.b
    p = kernel_params(b, spec)
    solution, route = b.solve_game(b.payoff_matrix_K(p))
    bal = b.bal_weights(p)
    r_bal = b.static_ratio_via_downturns(bal, p)
    r_da = b.static_ratio_via_downturns(b.da_weights(p.n), p)
    return p, solution, route, bal, r_bal, r_da


def kernel_check(ctx, index, spec, out):
    b = ctx.b
    p, solution, route, bal, r_bal, r_da = out
    require(route == "closed-form", f"route {route}")
    require(solution.unique, "solution not certified unique")
    require(np.max(np.abs(solution.online_strategy - bal)) <= 1e-9, "online != bal_weights")
    adversary = b.bal_adversary(p)
    require(np.max(np.abs(solution.adversary_strategy - adversary)) <= 1e-9, "adversary != bal_adversary")
    ratio = b.bal_ratio(p)
    require(rel_err(solution.ratio, ratio) <= 1e-8, "game ratio != bal_ratio")
    require(rel_err(r_bal, ratio) <= 1e-8, "BAL downturn ratio != bal_ratio")
    require(rel_err(r_da, b.da_ratio(p)) <= 1e-8, "DA downturn ratio != da_ratio")


# --------------------------------------------------------------------------
# games: arbitrary positive payoff matrices, as `buyhold solve` gets them.

GAMES_PER_KIND = 64


def payoffs(rng, m, n):
    """Entries log-uniform on [0.1, 10]."""
    return np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=(m, n)))


def candidate_min(H):
    """Smallest component of the inverse-based candidates, relative to the largest."""
    inv = np.linalg.inv(H)
    both = np.concatenate([inv.sum(axis=0), inv.sum(axis=1)])
    return both.min() / np.abs(both).max()


def games_inputs(rng):
    specs = []
    for k, m in enumerate(np.rint(grid(GAMES_PER_KIND, 4, 40)).astype(int)):
        # Aspect ratios 1.25, 1.5 and 2 in turn, wide and tall in turn.
        ratio = (1.25, 1.5, 2.0)[k % 3]
        n = int(round(m * ratio)) if k % 2 == 0 else max(2, int(round(m / ratio)))
        specs.append({"kind": "rectangular", "H": payoffs(rng, int(m), n)})
    # Diagonally dominant: the closed form applies and is completely mixed.
    for n in np.rint(grid(GAMES_PER_KIND, 4, 120)).astype(int):
        for _ in range(100):
            H = payoffs(rng, n, n) / 10.0 + np.diag(n * (1.0 + rng.uniform(size=n)))
            if candidate_min(H) > 1e-6:
                break
        else:
            raise RuntimeError("could not draw a completely mixed square game")
        specs.append({"kind": "mixed-square", "H": H})
    # Generic: the closed-form candidate has a negative component, so
    # solve_game inverts, discards the candidate and solves the LP.
    for n in np.rint(grid(GAMES_PER_KIND, 4, 48)).astype(int):
        for _ in range(100):
            H = payoffs(rng, n, n)
            if candidate_min(H) < -1e-6:
                break
        else:
            raise RuntimeError("could not draw a square game that falls back to the LP")
        specs.append({"kind": "fallback-square", "H": H})
    return shuffled(rng, specs)


def games_op(ctx, spec):
    return ctx.b.solve_game(spec["H"])


def games_check(ctx, index, spec, out):
    solution, route = out
    H = spec["H"]
    x, y, v = solution.online_strategy, solution.adversary_strategy, solution.value
    for w in (x, y):
        require(np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9, "strategy is not a distribution")
    tol = 1e-7 * max(1.0, abs(v))
    require(abs((x @ H).min() - v) <= tol, "min(x H) != value")
    require(abs((H @ y).max() - v) <= tol, "max(H y) != value")


# --------------------------------------------------------------------------
# backtest: monthly plans on daily closes, clean, shuffled and dirty.

BACKTEST_KINDS = ("admissible", "shuffled", "dense")
REPORT_FORMATS = ("json", "csv", "svg")
BACKTEST_STRATA = 8


def weekdays(start, months):
    out, day = [], start
    while (day.year - start.year) * 12 + day.month - start.month < months:
        if day.weekday() < 5:
            out.append(day)
        day += timedelta(days=1)
    return out


def price_rows(rng, preset, months, widen):
    """Dated closes whose daily log-moves are uniform on [-widen*L, widen*L].

    ``L`` is the largest move allowed both up and down by the preset, so
    ``widen=1`` gives an admissible series without drift, and ``widen=2``
    breaks the bounds on about half of the days.
    """
    floor, cap = PRESET_LIMITS[preset]
    limit = widen * min(-math.log(floor), math.log(cap))
    start = date(int(rng.integers(1990, 2011)), int(rng.integers(1, 13)), 1)
    days = weekdays(start, months)
    steps = rng.uniform(-limit, limit, size=len(days) - 1)
    closes = rng.uniform(10.0, 1000.0) * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    return [f"{day.isoformat()},{float(close)!r}" for day, close in zip(days, closes)]


def backtest_inputs(rng):
    specs = []
    for kind in BACKTEST_KINDS:
        for fmt in REPORT_FORMATS:
            for years in grid(BACKTEST_STRATA, 1.0, 10.0):
                # Presets in a fixed rotation: the bounds set the violation density.
                preset = PRESETS[len(specs) % len(PRESETS)]
                rows = price_rows(rng, preset, int(round(12 * years)), 2.0 if kind == "dense" else 1.0)
                if kind == "shuffled":
                    rows = shuffled(rng, rows)
                text = "date,close\n" + "\n".join(rows) + "\n"
                specs.append({"kind": kind, "format": fmt, "preset": preset, "rows": len(rows), "text": text})
    return shuffled(rng, specs)


def backtest_op(ctx, spec):
    b = ctx.b
    series = b.parse_prices(spec["text"])
    alpha, beta = b.preset_bounds(spec["preset"])
    report = b.compare_report(series, alpha, beta)
    return series, report, getattr(b, "report_" + spec["format"])(report)


def backtest_check(ctx, index, spec, out):
    b = ctx.b
    series, report, text = out
    require(len(series) == spec["rows"], "row count")
    require(series.reordered == (spec["kind"] == "shuffled"), "reordered flag")
    violations = 0
    for window in report.windows:
        results = dict(window.results)
        require(set(results) == {"BAL", "DA"}, f"strategies in {window.label}")
        violations += sum(len(r.violations) for r in results.values())
        if spec["kind"] != "dense":
            p = b.MarketParams(alpha=report.alpha, beta=report.beta, n=window.n)
            require(results["BAL"].realized_ratio <= b.bal_ratio(p) * (1 + 1e-9), f"BAL ratio in {window.label}")
            require(results["DA"].realized_ratio <= b.da_ratio(p) * (1 + 1e-9), f"DA ratio in {window.label}")
    if spec["kind"] == "dense":
        require(violations > 0, "no violations on a dense file")
    else:
        require(violations == 0, f"{violations} violations on an admissible file")
    require(getattr(b, "report_" + spec["format"])(report) == text, "second rendering differs")


# --------------------------------------------------------------------------
# cli: fresh `python -m buyhold` processes, start-up included.


def bounds_args(rng, k):
    if k % 2 == 0:
        return ["--preset", PRESETS[int(rng.integers(len(PRESETS)))]]
    alpha, beta = 1.5 - 0.5 * rng.uniform(size=2)
    return ["--alpha", repr(float(alpha)), "--beta", repr(float(beta))]


def kernel_csv(alpha, beta, n):
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    K = np.where(i <= j, alpha ** np.minimum(i - j, 0), beta ** np.minimum(j - i, 0))
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in K)


def cli_inputs(rng):
    specs = []

    def add(sub, args, files=None):
        specs.append({"sub": sub, "argv": [sub, *args], "files": files or {}})

    for k, days in enumerate(np.rint(grid(6, 2, 252)).astype(int)):
        add("weights", [*bounds_args(rng, k), "--days", str(days), "--format", ("text", "json", "csv")[k % 3]])
    for k, last in enumerate(np.rint(grid(4, 100, 10000)).astype(int)):
        fmt = ("text", "json", "csv", "svg")[k]
        add("sweep", [*bounds_args(rng, k), "--from", "2", "--to", str(last), "--format", fmt])
    for k, days in enumerate(np.rint(grid(3, 5, 80)).astype(int)):
        add("downturns", [*bounds_args(rng, k), "--days", str(days), "--format", ("text", "json", "csv")[k]])
    for k, n in enumerate(np.rint(grid(3, 5, 40)).astype(int)):
        alpha, beta = 1.5 - 0.5 * rng.uniform(size=2)
        name = f"K{k}.csv"
        add("solve", ["{work}/" + name, "--format", ("text", "json", "csv")[k]], {name: kernel_csv(alpha, beta, n)})
    for k, months in enumerate(np.rint(grid(3, 1, 60)).astype(int)):
        add("synth", [*bounds_args(rng, k), "--months", str(months), "--seed", str(int(rng.integers(1 << 30)))])
    for k, months in enumerate(np.rint(grid(6, 6, 36)).astype(int)):
        preset = PRESETS[int(rng.integers(len(PRESETS)))]
        name = f"prices{k}.csv"
        text = "date,close\n" + "\n".join(price_rows(rng, preset, int(months), 1.0 + k % 2)) + "\n"
        fmt = ("text", "json", "csv", "svg")[k % 4]
        add("backtest", ["--preset", preset, "{work}/" + name, "--format", fmt], {name: text})
    return shuffled(rng, specs)


def run_process(cmd, cwd, env, timeout=CLI_TIMEOUT_S):
    """Run ``cmd`` to completion, capturing its output; kill it after ``timeout``."""
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=timeout)


def cli_command(ctx, argv, trace_file=None):
    if trace_file is None:
        head = [sys.executable, "-m", "buyhold"]
    else:
        head = [sys.executable, str(BENCH_DIR / "clitrace.py"), str(trace_file)]
    return head + [arg.replace("{work}", str(ctx.work)) for arg in argv]


def cli_op(ctx, spec):
    trace_file = ctx.work / "trace.json" if ctx.tracer is not None else None
    done = run_process(cli_command(ctx, spec["argv"], trace_file), ctx.root, ctx.env)
    if trace_file is not None and done.returncode == 0:
        record = json.loads(trace_file.read_text())
        ctx.tracer.merge(record["spans"], record["counts"])
    return done


def cli_check(ctx, index, spec, out):
    require(out.returncode == 0, f"exit {out.returncode}: {out.stderr.decode(errors='replace')[-200:]}")
    require(out.stdout, "empty stdout")
    digest = hashlib.sha256(out.stdout).hexdigest()
    first = ctx.seen.setdefault(index, digest)
    require(digest == first, "stdout differs from the first call")
    if "json" in spec["argv"]:
        json.loads(out.stdout)


class Workload(NamedTuple):
    inputs: Callable
    warmup: dict
    op: Callable
    check: Callable


WORKLOADS = {
    "kernel": Workload(kernel_inputs, {"preset": "taipei", "n": 21}, kernel_op, kernel_check),
    "games": Workload(
        games_inputs, {"kind": "rectangular", "H": np.array([[3.0, 1.0, 2.0], [1.0, 3.0, 1.5]])}, games_op, games_check
    ),
    "backtest": Workload(
        backtest_inputs,
        {"kind": "admissible", "format": "json", "preset": "taipei", "text": "date,close\n2000-01-03,10\n2000-01-04,10.5\n"},
        backtest_op,
        backtest_check,
    ),
    "cli": Workload(cli_inputs, {"sub": "weights", "argv": list(CLI_WARMUP), "files": {}}, cli_op, cli_check),
}
