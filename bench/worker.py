"""One workload in one fresh interpreter.

Usage: ``worker.py WORKLOAD setup|run`` from the root of a checkout,
with ``src`` on PYTHONPATH.  Both modes import the program and run one
untimed warm-up op, then print ``ready``.  ``setup`` exits there.
``run`` reads its pickled inputs from stdin, runs the closed loop, and
prints one JSON line.  Between the ops of an untraced loop it times
fresh ``setup`` workers (on cli, fresh warm-up calls), for ``setup_s``.
"""

import json
import os
import pickle
import platform
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path.cwd()
#: A traced run stops after the pass that reaches this many spans, which
#: bounds its memory; it always completes one pass.
MAX_SPANS = 100_000
#: Seconds between set-up samples.  Spread over the whole loop, the
#: samples see the host at every moment the ops do, not at one or two.
SETUP_EVERY_S = 1.0
READY_TIMEOUT_S = 60


def import_program():
    import buyhold

    origin = Path(buyhold.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"buyhold was imported from {origin}, not from {ROOT / 'src'}")
    return buyhold


def setup_once(name):
    """Seconds from spawning a fresh interpreter to the end of import plus warm-up."""
    t0 = time.perf_counter()
    if name == "cli":
        done = workloads.run_process([sys.executable, "-m", "buyhold", *workloads.CLI_WARMUP], ROOT, os.environ)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"warm-up call exited with {done.returncode}: {done.stderr.decode()[-500:]}")
        return elapsed
    with subprocess.Popen([sys.executable, __file__, name, "setup"], cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=READY_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup worker exited with {proc.returncode} (got {line[:200]!r})")
    return elapsed


def closed_loop(workload, ctx, specs, seconds, min_ops, tracer=None, name="", setup=False):
    """Run whole passes over ``specs`` until ``seconds`` and ``min_ops`` are reached.

    Each op's latency covers the op only; its check, and with ``setup``
    a set-up sample every ``SETUP_EVERY_S``, run after the clock stops.
    A run that overruns badly stops mid-pass.
    """
    latencies, failures, setups, passes = [], [], [], 0
    start = time.perf_counter()
    next_setup = start
    give_up = start + 3 * seconds + 30
    while True:
        for index, spec in enumerate(specs):
            error = out = None
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.active = True
                span = tracer.begin("op." + name)
            t0 = time.perf_counter()
            try:
                out = workload.op(ctx, spec)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(span)
                tracer.active = False
            latencies.append(t1 - t0)
            if error is None:
                try:
                    workload.check(ctx, index, spec, out)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failures.append([index, error])
            if setup and time.perf_counter() >= next_setup:
                setups.append(setup_once(name))
                next_setup = time.perf_counter() + SETUP_EVERY_S
            if time.perf_counter() > give_up:
                break
        else:
            passes += 1
            if time.perf_counter() - start >= seconds and len(latencies) >= min_ops:
                break
            if tracer is not None and len(tracer.spans) >= MAX_SPANS:
                break
            continue
        break
    return {"latencies": latencies, "failures": failures, "setups": setups, "passes": passes}


def environment(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main():
    name, mode = sys.argv[1], sys.argv[2]
    b = None if name == "cli" else import_program()
    import numpy as np

    workload = workloads.WORKLOADS[name]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        ctx = workloads.Context(b, ROOT, dict(os.environ), work)
        workload.op(ctx, workload.warmup)
        print("ready", flush=True)
        if mode == "setup":
            return
        payload = pickle.load(sys.stdin.buffer)
        specs, seconds = payload["specs"], payload["seconds"]
        for spec in specs:
            for file_name, text in spec.get("files", {}).items():
                (work / file_name).write_text(text)

        result = {"env": environment(np), "ops_per_pass": len(specs)}
        if name != "cli":
            # One untimed pass lets allocator and caches settle; its ops are
            # still checked.  Every cli op starts a fresh process instead.
            result["warmup"] = closed_loop(workload, ctx, specs, 0, 0)
        if not payload["trace"]:
            result["loop"] = closed_loop(workload, ctx, specs, seconds, payload["min_ops"], name=name, setup=True)
            usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        else:
            # Half the time untraced, half traced: their ratio is the overhead.
            result["loop"] = closed_loop(workload, ctx, specs, seconds / 2, 1)
            tracer = Tracer()
            if b is not None:
                tracer.install()
            ctx.tracer = tracer
            result["traced"] = closed_loop(workload, ctx, specs, seconds / 2, 1, tracer, name)
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
            result["missing"] = tracer.missing
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
