"""The package's public surface: what `exactroc` exports and what its docs import."""

import ast
import importlib
import re
from pathlib import Path

import exactroc

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "Dataset",
    "dataset_from_classes",
    "dataset_from_pairs",
    "parse_input",
    "roc_curve",
    "auc_trapezoid",
    "pair_probability_fast",
    "tie_report",
    "run_report",
    "identity_suite",
    "emit_report",
    "DegenerateClassesError",
    "ParseError",
    "IdentityError",
}


def test_all_is_exactly_the_public_names():
    assert sorted(exactroc.__all__) == sorted(PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from exactroc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC


def _documented_imports():
    """(module, name) for each `from exactroc... import name` in README code and scripts."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").glob("*.py"))]
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "exactroc":
                yield from ((node.module, alias.name) for alias in node.names)


def test_every_name_the_readme_and_scripts_import_resolves():
    imports = list(_documented_imports())
    assert ("exactroc", "roc_curve") in imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
