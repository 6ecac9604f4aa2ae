"""Locale-independent rendering of every number the package prints.

``render`` turns rows of cells into CSV or aligned text, ``to_json``
turns a payload into JSON; both give a float 12 significant digits.
``parse_decimal`` is the one grammar for the numbers the package reads,
``decode_utf8`` the one decoding of the files it reads.  No numpy is
imported here: arrays are recognised by their ``tolist`` method.
"""

import json
import math

from .errors import ParseError


def fmt12(value: float) -> str:
    """Format a number with 12 significant digits."""
    return format(float(value), ".12g")


def parse_decimal(text: str) -> float:
    """Read ``text`` as a finite decimal number.

    The grammar is ``float``'s without what it takes beyond ASCII
    decimals: an optional sign, digits with an optional point and
    exponent, and surrounding ASCII whitespace, which covers every form
    ``repr`` writes for a finite float.  Raises ValueError for anything
    else, including digit-group underscores, non-ASCII digits or spaces,
    ``inf``, ``nan`` and a number past the float range.
    """
    value = float(text) if text.isascii() and "_" not in text else math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite decimal number: {text!r}")
    return value


def decode_utf8(data: bytes) -> str:
    """``data`` decoded as UTF-8.

    Raises ParseError, with the line of the first bad byte as its row,
    if ``data`` is not UTF-8.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", row=row) from None


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
    if hasattr(value, "tolist"):
        return _rounded(value.tolist())
    return value


def to_json(payload) -> str:
    """Indented JSON of ``payload``, every float rounded to 12 significant digits.

    Floats inside dicts, lists, tuples and numpy arrays or scalars are
    rounded; ints, bools and strings pass through.
    """
    return json.dumps(_rounded(payload), indent=2) + "\n"
