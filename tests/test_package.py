"""The package namespace: lazy names, ``dir`` and star imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import buyhold
from buyhold import market, params


def test_every_public_name_resolves_and_is_listed():
    listed = dir(buyhold)
    for name in buyhold.__all__:
        assert getattr(buyhold, name) is not None
        assert name in listed


def test_star_import_binds_all():
    namespace = {}
    exec("from buyhold import *", namespace)
    assert set(buyhold.__all__) <= set(namespace)


def test_benchmark_lookups_are_public():
    # The benchmark looks each program function up on the package, so a
    # name missing from __all__ would fail every op that uses it.
    text = (Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bb\.(\w+)", text))
    assert '"report_" + spec["format"]' in text
    formats = ast.literal_eval(re.search(r"^REPORT_FORMATS = (.+)$", text, re.MULTILINE).group(1))
    names |= {"report_" + fmt for fmt in formats}
    assert {"compare_report", "parse_prices", "report_svg", "solve_game"} <= names
    assert sorted(names - set(buyhold.__all__)) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        buyhold.no_such_name


def test_market_reexports_params():
    for name in ("CIRCUIT_BREAKERS", "MarketParams", "bal_ratio", "bal_weight_parts", "check_bounds",
                 "da_ratio", "preset_bounds", "preset_params"):
        assert getattr(market, name) is getattr(params, name)


def test_import_is_lazy_and_submodules_resolve():
    script = (
        "import sys\n"
        "import buyhold\n"
        "assert 'numpy' not in sys.modules and 'buyhold.market' not in sys.modules\n"
        "assert buyhold.MarketParams is buyhold.params.MarketParams\n"
        "assert 'numpy' not in sys.modules\n"
        "buyhold.market.bal_weights(buyhold.MarketParams(2.0, 2.0, 3))\n"
        "buyhold.linalg.inverse_sums([[1.0]])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(buyhold.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
