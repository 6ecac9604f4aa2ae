"""The package namespace (lazy names, ``dir`` and star imports) and its wrong-type contract."""

import ast
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
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
        "buyhold.games.solve_game_closed_form([[1.0]])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(buyhold.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_console_script_runs_the_cli(monkeypatch, capsys):
    # An installed `buyhold` calls the [project.scripts] target with no
    # arguments, so it reads the command line from sys.argv.
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    entry = pkgutil.resolve_name(scripts["buyhold"])
    monkeypatch.setattr(sys, "argv", ["buyhold", "weights", "--preset", "taipei", "--days", "5"])
    assert entry() == 0
    assert capsys.readouterr().out == (root / "tests" / "golden" / "weights.txt").read_bytes().decode("utf-8")


def _unreferenced_public_names(package: Path) -> list[str]:
    """Public top-level names of the library that its own code never uses and does not export.

    A use is a ``Name`` or an ``Attribute`` node anywhere in the library,
    so a name that only a docstring or a test mentions counts as unused.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    used |= {name for names in buyhold._EXPORTS.values() for name in names}
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree)
        if not name.startswith("_") and name not in used
    ]


def _defined_names(tree: ast.Module) -> list[str]:
    """The names a module's top level defines by ``def``, ``class`` or assignment, not by import."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def test_every_public_name_is_used_or_exported():
    # A public name the library neither calls nor exports is code kept only for its tests.
    assert _unreferenced_public_names(Path(buyhold.__file__).resolve().parent) == []


def test_every_exported_name_is_defined_in_its_module():
    # A name a module exports but only imports has a second home.
    package = Path(buyhold.__file__).resolve().parent
    homeless = []
    for module, names in buyhold._EXPORTS.items():
        defined = _defined_names(ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))
        homeless += [f"{module}.{name}" for name in names if name not in defined]
    assert homeless == []


def test_first_backtest_pass_imports_nothing():
    # Every backtest process pays for a module imported on first use:
    # np.unique imports numpy.ma, about 15 ms on numpy 2.4.
    script = (
        "import sys\n"
        "import buyhold as b\n"
        "from buyhold import backtest\n"
        "before = set(sys.modules)\n"
        "series = b.parse_prices('date,close\\n2000-01-03,2\\n2000-01-04,1\\n2000-02-01,1\\n2000-02-02,1\\n')\n"
        "report = b.compare_report(series, 1.5, 1.5)\n"
        "assert report.windows[0].results[0][1].violations\n"
        "b.report_json(report), b.report_csv(report), b.report_svg(report)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(buyhold.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: The names that take vectors, each called with ``v`` as its first vector.
_VECTOR_CALLS = {
    "offline_optimum": lambda v: buyhold.offline_optimum(v),
    "evaluate_static": lambda v: buyhold.evaluate_static(v, [1.0]),
    "static_ratio_via_downturns": lambda v: buyhold.static_ratio_via_downturns(v, buyhold.MarketParams(2.0, 2.0, 2)),
    "worst_case_columns": lambda v: buyhold.worst_case_columns([[1.0]], v),
    "check_extreme_point": lambda v: buyhold.check_extreme_point([[1.0]], v, [1.0], [0], [0]),
}


@pytest.mark.parametrize("name", sorted(_VECTOR_CALLS))
@pytest.mark.parametrize(
    "vector, error, message",
    [
        (["a"], ValueError, "could not convert string to float"),
        ([[1, 2], [3]], ValueError, "inhomogeneous shape"),
        ([object()], TypeError, r"float\(\) argument must be"),
        ([10**400], OverflowError, "int too large to convert to float"),
    ],
    ids=["string", "ragged", "object", "int-past-float"],
)
def test_vector_of_the_wrong_type_raises_numpys_error(name, vector, error, message):
    # The documented contract: numpy's own conversion error, unwrapped.
    with pytest.raises(error, match=message):
        _VECTOR_CALLS[name](vector)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: buyhold.MarketParams(10**400, 2, 3), "alpha"),
        (lambda: buyhold.compare_report(buyhold.synthetic_prices(2.0, 2.0), 2.0, 2.0, slack=10**400), "slack"),
        (lambda: buyhold.synthetic_prices(2.0, 2.0, initial_price=10**400), "initial_price"),
    ],
    ids=["alpha", "slack", "initial_price"],
)
def test_int_past_the_float_range_is_a_value_error(call, name):
    # math.isfinite raises OverflowError for such an int; the rule says ValueError.
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        call()


def _csv_reader_uses(package: Path) -> list[str]:
    """The library's references to ``csv.reader`` and ``csv.Error`` outside ``formatting``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "formatting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("reader", "Error"):
                named = isinstance(node.value, ast.Name) and node.value.id == "csv"
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                named = any(alias.name in ("reader", "Error") for alias in node.names)
            else:
                continue
            if named:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_formatting_tokenizes_csv():
    # formatting.csv_records is the one tokenizer and the one csv.Error handler.
    assert _csv_reader_uses(Path(buyhold.__file__).resolve().parent) == []


def _numpy_imports(path: Path) -> list[int]:
    """The lines of ``path`` that import numpy or a numpy submodule, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            lines.append(node.lineno)
    return lines


def test_cli_imports_no_numpy():
    # The flag types and the matrix reader need no arrays; the subcommands
    # that do reach numpy through games and backtest.
    assert _numpy_imports(Path(buyhold.__file__).resolve().parent / "cli.py") == []
