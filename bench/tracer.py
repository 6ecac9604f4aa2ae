"""Spans around the public functions of each ``buyhold`` layer.

The tracer replaces a function at every module attribute of the
package that refers to it, so calls between layers (``games`` calling
``invert_matrix``, ``backtest`` calling ``find_violations``) pass
through the wrapper as well as calls made by the benchmark.  Spans are
recorded only while an op is running, so the benchmark's own checks do
not count.  Nothing inside ``src/`` is changed.

A span is ``[name, start_s, end_s, parent_index, op_id]``; parent -1
marks a root.  Counters are measured at the same boundaries.
"""

import functools
import sys
import time
from collections import Counter

import numpy as np

# Market closed forms are reported together as ``market.closed_forms``.
CLOSED_FORMS = ("bal_weights", "bal_adversary", "bal_ratio", "da_weights", "da_ratio")


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_invert(counts, args, kwargs, result, exc):
    n = int(np.shape(_arg(args, kwargs, 0, "matrix"))[0])
    counts["linalg.invert_matrix.n3_sum"] += n**3
    if exc is not None and type(exc).__name__ == "SingularMatrixError":
        counts["linalg.invert_matrix.singular"] += 1


def _count_lp(counts, args, kwargs, result, exc):
    # Size of the initial tableau: constraint rows plus the objective row,
    # by structural, slack/surplus, artificial and right-hand-side columns.
    A = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "A"), dtype=float))
    b = np.asarray(_arg(args, kwargs, 2, "b"), dtype=float).ravel()
    senses = list(_arg(args, kwargs, 3, "senses"))
    m, nv = A.shape
    extra = 0
    for sense, rhs in zip(senses, b):
        flipped = {"<=": ">=", ">=": "<="}.get(sense, sense) if rhs < 0 else sense
        extra += 2 if flipped == ">=" else 1
    counts["simplex.solve_lp.cells_sum"] += (m + 1) * (nv + extra + 1)
    if exc is not None:
        counts["simplex.solve_lp.failed"] += 1


def _count_game(counts, args, kwargs, result, exc):
    shape = np.shape(_arg(args, kwargs, 0, "H"))
    if len(shape) == 2 and shape[0] == shape[1]:
        counts["games.square_games"] += 1
    if result is not None:
        route = result[1]
        counts["games.route.closed_form" if route == "closed-form" else "games.route.lp"] += 1


def _count_rows(counts, args, kwargs, result, exc):
    if result is not None:
        counts["backtest.parse_prices.rows"] += len(result)


def _count_windows(counts, args, kwargs, result, exc):
    if result is not None:
        counts["backtest.windows"] += len(result[0])
        counts["backtest.skipped"] += len(result[1])


def _count_violations(counts, args, kwargs, result, exc):
    if result is not None:
        counts["backtest.violations"] += len(result)


def _count_bytes(counts, args, kwargs, result, exc):
    if result is not None:
        counts["backtest.report_bytes"] += len(result.encode("utf-8"))


def _count_points(counts, args, kwargs, result, exc):
    series = _arg(args, kwargs, 1, "series")
    counts["svgchart.line_chart.points"] += sum(
        1 for _, values, _ in series for v in values if v is not None
    )


#: (module, function, counter hook) for every wrapped public function.
TARGETS = (
    ("linalg", "invert_matrix", _count_invert),
    ("simplex", "solve_lp", _count_lp),
    ("games", "solve_game", _count_game),
    ("games", "solve_game_closed_form", None),
    ("games", "solve_game_lp", None),
    ("market", "payoff_matrix_K", None),
    ("market", "downturns", None),
    ("market", "static_ratio_via_downturns", None),
    *(("market", name, None) for name in CLOSED_FORMS),
    ("backtest", "parse_prices", _count_rows),
    ("backtest", "segment_monthly", _count_windows),
    ("backtest", "run_plan", None),
    ("backtest", "find_violations", _count_violations),
    ("backtest", "compare_report", None),
    ("backtest", "report_json", _count_bytes),
    ("backtest", "report_csv", _count_bytes),
    ("backtest", "report_svg", _count_bytes),
    ("backtest", "synthetic_prices", None),
    ("backtest", "series_csv", None),
    ("svgchart", "line_chart", _count_points),
)


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.op = -1
        self._stack = []
        self.missing = []

    def install(self):
        """Wrap every target found in the imported ``buyhold`` modules.

        A target the program no longer defines is listed in ``missing``
        and its metrics read zero.
        """
        modules = [m for k, m in list(sys.modules.items()) if k == "buyhold" or k.startswith("buyhold.")]
        for module_name, func_name, hook in TARGETS:
            module = sys.modules.get(f"buyhold.{module_name}")
            orig = getattr(module, func_name, None) if module is not None else None
            if orig is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(f"{module_name}.{func_name}", orig, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = exc = None
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end(index)
                if hook is not None:
                    hook(self.counts, args, kwargs, result, exc)

        return traced

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def merge(self, spans, counts):
        """Append spans and counters recorded by a child process.

        The child's root spans become children of the open span.
        """
        base = len(self.spans)
        root = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else root, self.op])
        for key, value in counts.items():
            self.counts[key] += value


def span_totals(spans):
    """Per span name: ``(calls, busy_s, self_s)``.

    Self time is the span's duration minus the durations of its direct
    children; spans of one process never overlap their siblings.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, busy, own = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, busy + (end - start), own + (end - start) - child[i])
    return totals


def outermost_busy(spans, names):
    """Seconds inside spans named in ``names``, leaving out those nested in another of them.

    ``bal_adversary`` calls ``bal_weights``, for example; the inner call
    is already inside the outer span's time.
    """
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total
