"""Mutation check: swap one operator at a time and see whether the tests notice.

usage: python tools/mutants.py MODULE TEST [TEST ...] [--within FUNCTION]

MODULE is a file under ``src/``, and each TEST is a test file or node id
that pytest takes.  Every comparison, arithmetic and bitwise operator in
MODULE (or only in its function FUNCTION) is swapped with its neighbour
in ``SWAPS``, one mutant at a time.  Each mutant is written into a
temporary copy of the repository, never into the working tree, and the
tests run there with ``pytest -x``.  A mutant the tests pass is a
survivor: a gap in the tests, or a mutant that computes the same thing.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitXor: ast.BitOr, ast.BitOr: ast.BitXor, ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def sites(scope):
    """``(node, k)`` for each swappable operator: ``node.ops[k]``, or ``node.op`` when ``k`` is None."""
    found = []
    for node in ast.walk(scope):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, None))
        elif isinstance(node, ast.Compare):
            found += [(node, k) for k, op in enumerate(node.ops) if type(op) in SWAPS]
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def operator_at(node, k):
    return node.op if k is None else node.ops[k]


def put(node, k, op):
    if k is None:
        node.op = op
    else:
        node.ops[k] = op


def run_tests(copy, tests):
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=600).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("tests", nargs="+")
    parser.add_argument("--within", help="mutate only the function of this name")
    args = parser.parse_args(argv)
    relative = args.module.resolve().relative_to(ROOT)
    tree = ast.parse((ROOT / relative).read_text(encoding="utf-8"))
    scope = tree if args.within is None else next(
        (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == args.within), None
    )
    if scope is None:
        parser.error(f"{relative} defines no function {args.within}")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*_cache", ".hypothesis", ".bench_out"))
        target = copy / relative
        # The unmutated module, written the way every mutant is, must pass.
        target.write_text(ast.unparse(tree), encoding="utf-8")
        if not run_tests(copy, args.tests):
            sys.exit("the tests fail on the unmutated module")
        survivors, mutants = 0, sites(scope)
        for node, k in mutants:
            old = operator_at(node, k)
            put(node, k, SWAPS[type(old)]())
            target.write_text(ast.unparse(tree), encoding="utf-8")
            put(node, k, old)
            change = f"{type(old).__name__} -> {SWAPS[type(old)].__name__}"
            if run_tests(copy, args.tests):
                survivors += 1
                print(f"SURVIVED {relative}:{node.lineno}: {change}", flush=True)
            else:
                print(f"killed   {relative}:{node.lineno}: {change}", flush=True)
    print(f"{survivors} of {len(mutants)} mutants survived in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
