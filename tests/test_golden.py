"""Byte-for-byte expected output of every subcommand in every format.

Each file under ``tests/golden/`` is the exact output of the command
listed for it below; the inputs it reads are in ``tests/golden/inputs/``.
To regenerate one after an intended output change, run its command with
``--out tests/golden/<name>`` from the repository root and review the
diff.
"""

from pathlib import Path

import pytest

from buyhold.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"


def formats(name, argv, exts):
    """One case per output format; ``text`` is the default and has no flag."""
    for fmt, ext in exts:
        flag = [] if fmt == "text" else ["--format", fmt]
        yield f"{name}.{ext}", [*argv, *flag]


TEXT_CSV_JSON = [("text", "txt"), ("csv", "csv"), ("json", "json")]
ALL_FORMATS = [*TEXT_CSV_JSON, ("svg", "svg")]

CASES = dict(
    [
        *formats("weights", ["weights", "--preset", "taipei", "--days", "5"], TEXT_CSV_JSON),
        *formats("solve_closed", ["solve", str(INPUTS / "closed.csv")], TEXT_CSV_JSON),
        *formats("solve_lp", ["solve", str(INPUTS / "lp.csv")], TEXT_CSV_JSON),
        *formats(
            "sweep",
            ["sweep", "--alpha", "1.1", "--beta", "1.2", "--from", "2", "--to", "12"],
            ALL_FORMATS,
        ),
        *formats("downturns", ["downturns", "--alpha", "2", "--beta", "3", "--days", "4"], TEXT_CSV_JSON),
        *formats("backtest", ["backtest", str(INPUTS / "prices.csv"), "--preset", "taipei"], ALL_FORMATS),
        # Several violations in a month, a skipped month and a factor that overflows to Infinity.
        ("backtest_dense.json", ["backtest", str(INPUTS / "prices_dense.csv"), "--preset", "taipei", "--format", "json"]),
        ("synth.csv", ["synth", "--preset", "taipei", "--months", "2", "--seed", "7"]),
    ]
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_matches_golden(name, tmp_path):
    target = tmp_path / name
    assert main([*CASES[name], "--out", str(target)]) == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()
