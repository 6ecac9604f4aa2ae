"""Locale-independent rendering of every number the package prints.

``render`` turns rows of cells into CSV or aligned text, ``to_json``
writes a payload as indented JSON in one recursive pass; both give a
float 12 significant digits.  ``json_float`` is the one spelling of a
float in JSON and ``json_block`` the one layout of a JSON container,
which ``to_json`` and ``backtest.report_json`` share.
``parse_decimal`` is the one grammar for the numbers the package reads,
and ``read_text`` (through ``decode_utf8``) and ``csv_records`` its one
reader of input files.  No numpy is imported here: arrays are recognised
by their ``tolist`` method.
"""

import csv
import io
import math
import os
from json.encoder import encode_basestring_ascii
from types import GeneratorType

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


def decode_utf8(data: bytes | bytearray) -> str:
    """``data``, bytes or a bytearray, decoded as UTF-8.

    Raises TypeError, naming the type, for anything else, and
    ParseError, with the line of the first bad byte as its row, if
    ``data`` is not UTF-8.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"decode_utf8 takes bytes or a bytearray, got {type(data).__name__}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", row=row) from None


def read_text(path) -> str:
    """The text of the file at ``path``, read in binary and decoded by ``decode_utf8``."""
    with open(os.fspath(path), "rb") as handle:
        return decode_utf8(handle.read())


def csv_records(text: str):
    """The records ``csv.reader`` reads from ``text``, blank ones included, one at a time.

    The dialect is strict about quotes.  Raises ParseError at the row
    where ``csv`` stops: a carriage return inside a line, a field past
    ``csv.field_size_limit()``, a quote still open at the end of the
    text, or a closing quote followed by anything but a comma or a line end.
    """
    reader = csv.reader(io.StringIO(text), strict=True)
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"unreadable CSV: {exc}", row=reader.line_num) from None


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


#: How ``json`` spells the floats that have no decimal form.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_float(value: float) -> str:
    """``value`` rounded to 12 significant digits, as ``json`` writes the rounded float.

    A ``.12g`` text with a point and no exponent is already the shortest
    text of the rounded float, so it is that float's ``repr``.  Integral
    values lose their ``.0`` under ``.12g``, and exponents from 12 to 15
    are written positionally by ``repr`` only, so those are re-read.
    """
    text = float.__format__(value, ".12g")
    if "." in text and "e" not in text:
        return text
    return _JSON_NONFINITE.get(text) or repr(float(text))


def json_block(items, indent: str, brackets: str = "[]") -> str:
    """``items``, each written for the depth below ``indent``, as a JSON container at ``indent``.

    ``brackets`` is ``"[]"`` for an array, ``"{}"`` for an object of ``"key": value`` items.
    """
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    # One f-string copies the joined items once, where a chain of + copies them per step.
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


def json_value(value, indent: str) -> str:
    """``value`` written by ``to_json``'s rules as JSON at depth ``indent``, with no final newline."""
    if isinstance(value, float):
        return json_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {json_value(item, inner)}" for key, item in value.items()]
        return json_block(items, indent, "{}")
    if isinstance(value, (list, tuple, GeneratorType)):
        return json_block([json_value(item, inner) for item in value], indent)
    if hasattr(value, "tolist"):
        return json_value(value.tolist(), indent)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(payload) -> str:
    """Indented JSON of ``payload``, every float rounded to 12 significant digits.

    The layout is ``json.dumps(payload, indent=2)``'s, with a newline at
    the end.  Dict keys are strings.  Floats inside dicts, lists, tuples,
    generators and numpy arrays or scalars are rounded as ``fmt12`` rounds
    them; a generator is written as a list.  Ints, bools, ``None`` and
    strings are written as ``json`` writes them.
    """
    return json_value(payload, "") + "\n"
