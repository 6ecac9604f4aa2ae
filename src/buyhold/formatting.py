"""Locale-independent rendering of every number the package prints.

``render`` turns rows of cells into CSV or aligned text, ``to_json``
turns a payload into JSON; both give a float 12 significant digits.
"""

import json

import numpy as np


def fmt12(value: float) -> str:
    """Format a number with 12 significant digits."""
    return format(float(value), ".12g")


def _cell(value) -> str:
    if isinstance(value, float):
        return fmt12(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render(rows, fmt: str, widths=()) -> str:
    """Rows of cells as ``csv`` or ``text``, one line per row.

    CSV joins a row's cells with commas.  Text pads cell ``k`` on the
    right to ``widths[k]`` and joins the cells with one space; cells
    past ``widths`` are not padded.  A float cell is written by
    ``fmt12``, a bool as ``true``/``false``, anything else by ``str``.
    """
    if fmt == "csv":
        return "".join([",".join(map(_cell, row)) + "\n" for row in rows])
    lines = []
    for row in rows:
        cells = list(map(_cell, row))
        for k, width in enumerate(widths[: len(cells)]):
            cells[k] = cells[k].ljust(width)
        lines.append(" ".join(cells) + "\n")
    return "".join(lines)


def _rounded(value):
    """A copy of ``value`` with every float rounded to the digits ``fmt12`` writes."""
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    if isinstance(value, np.ndarray):
        return _rounded(value.tolist())
    return value


def to_json(payload) -> str:
    """Indented JSON of ``payload``, every float rounded to 12 significant digits.

    Floats inside dicts, lists, tuples and numpy arrays are rounded;
    ints, bools and strings pass through.
    """
    return json.dumps(_rounded(payload), indent=2) + "\n"
