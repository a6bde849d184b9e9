"""The package's public surface: what `exactroc` exports and what its docs import."""

import ast
import copy
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exactroc
from exactroc.cli import main
from exactroc.contlab import LaplaceTieModel
from exactroc.core import Dataset
from exactroc.pairwise import TieReport
from exactroc.report import RocReport
from exactroc.roc import RocCurve
from exactroc.stieltjes import AtomicMeasure, StepFunction
from cases import MIXED_CSV, REPORT_FIELDS
from oracles import rows

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "Dataset",
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


def _readme_python_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def _documented_imports():
    """(module, name) for each `from exactroc... import name` in README code and scripts."""
    sources = _readme_python_blocks()
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


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(exactroc.__file__).parents[1])}
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_readme_examples_and_tie_sweep_run():
    # the README's python blocks continue one another, so they share a namespace
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)

    proc = _run_script("tie_sweep.py", "--datasets", "20", "--max-size", "30")
    assert proc.returncode == 0, proc.stderr
    assert "all exact identities held" in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("tie_sweep.py", ["--datasets", "0"], "argument --datasets: must be at least 1, got 0"),
        ("tie_sweep.py", ["--max-size", "1"], "argument --max-size: must be at least 2, got 1"),
        ("tie_sweep.py", ["--seed", "-1"], "argument --seed: must be non-negative, got -1"),
    ],
)
def test_scripts_reject_bad_arguments_with_a_usage_error(name, args, message):
    proc = _run_script(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"{name}: error: {message}\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["tie_sweep.py"])
def test_script_usage_line_lists_the_flags_the_parser_takes(name):
    source = (ROOT / "scripts" / name).read_text(encoding="utf-8")
    (usage,) = re.findall(r"^Usage: .*$", source, re.M)
    proc = _run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    helped = set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == helped


@pytest.mark.parametrize("command", ["report", "curve", "contlab", "check"])
def test_readme_synopsis_lists_the_flags_the_parser_takes(capsys, command):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (synopsis,) = re.findall(rf"^exactroc {command} .*$", readme, re.M)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    helped = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == helped


def test_benchmark_stage_names_are_the_report_modules_objects():
    # Read from perfbench's source, not imported: every stage it times or traces resolves as
    # its `_lookup` resolves it, so a stage renamed here fails here, not only in `--trace 1`
    # runs. perfbench times `cli.run_report`, `cli.emit_report` and `cli.identity_suite`, so
    # cli's imports of them (emit_report unused by cli itself) must stay, bound to the
    # objects the library runs
    tree = ast.parse((ROOT / "perfbench" / "inproc.py").read_text(encoding="utf-8"))
    table = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("STEPS", "TRACED")
    }
    names = {*table["TRACED"], *(qual for steps in table["STEPS"].values() for qual in steps)}
    for qual in sorted(names):
        module, name = qual.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(f"exactroc.{module}"), name, None)), qual
    cli, report = (importlib.import_module(f"exactroc.{m}") for m in ("cli", "report"))
    for name in ("run_report", "emit_report", "identity_suite"):
        assert f"cli.{name}" in names and getattr(cli, name) is getattr(report, name), name


def _fields_of(cls):
    """Valid field values of each value class, in field order."""
    r = exactroc.run_report(exactroc.parse_input(MIXED_CSV))
    half, one = Fraction(1, 2), Fraction(1)
    return {
        Dataset: {"positives": (half, Fraction(9, 10)), "negatives": (half, Fraction(1, 10))},
        RocCurve: {"neg_ge": r.curve.neg_ge, "pos_ge": r.curve.pos_ge},
        StepFunction: {"breakpoints": (one,), "values": (one, Fraction(0))},
        AtomicMeasure: {"atoms": ((one, half),)},
        TieReport: r.tie._asdict(),
        RocReport: {name: getattr(r, name) for name in REPORT_FIELDS},
        LaplaceTieModel: {"epsilon": 0.25},
    }[cls]


@pytest.mark.parametrize(
    "cls",
    [Dataset, RocCurve, StepFunction, AtomicMeasure, TieReport, RocReport, LaplaceTieModel],
    ids=lambda cls: cls.__name__,
)
def test_value_class_constructor_contract(cls):
    fields = _fields_of(cls)
    items, values = list(fields.items()), list(fields.values())
    (first, value), *_ = items
    by_position, by_keyword = cls(*values), cls(**fields)
    assert by_position == by_keyword == cls(value, **dict(items[1:]))
    assert hash(by_position) == hash(by_keyword)
    assert copy.deepcopy(by_position) == by_position
    if cls is Dataset:  # its classes are given as rows and read back as tallies
        assert (rows(by_keyword.pos_tally), rows(by_keyword.neg_tally)) == tuple(values)
    else:
        assert {name: getattr(by_keyword, name) for name in fields} == fields
    for bad_args, bad_kwargs in [
        (values[:-1], {}),  # a field missing
        ((), dict(items[:-1])),
        ((*values, value), {}),  # one too many
        ((), {**fields, "extra": value}),
        ((value,), fields),  # the first field twice
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    with pytest.raises(AttributeError):
        setattr(by_keyword, first, value)
    text = repr(by_keyword)
    assert text.startswith(f"{cls.__name__}(") and all(f"{name}=" in text for name in fields)
