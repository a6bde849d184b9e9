"""One evaluation and its output: `run_report`, `RocReport`'s identity rows, the writers.

`RocReport` refuses fields that break an identity of the paper's Proposition; `emit_report`
and `emit_curve_svg` print the report and the curve from integer counts. `check` and
`report` as commands, exit codes included, are in test_cli.py.
"""

import importlib
import json
import random
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactroc import (
    IdentityError,
    emit_report,
    identity_suite,
    parse_input,
    roc_curve,
    run_report,
)
from exactroc.core import Dataset
from exactroc.pairwise import TieReport
import exactroc.report as report_module
from exactroc.report import RocReport, emit_curve_svg
from cases import COUNTEREXAMPLE_CSV, DATA, MIXED_CSV, REPORT_FIELDS, REPORT_TEXT
from datagen import random_dataset


def _report_with(r, **changes):
    """A RocReport built through its constructor: `r`'s fields, with `changes` in place."""
    return RocReport(**{**{name: getattr(r, name) for name in REPORT_FIELDS}, **changes})


def test_run_report_counterexample():
    r = run_report(parse_input(COUNTEREXAMPLE_CSV))
    assert r.auc == Fraction(1, 2)
    assert r.pair_probability == 0
    assert r.tie.correction == Fraction(1, 2)
    assert r.hypothesis_holds is False
    assert (r.n_pos, r.n_neg) == (1, 1)


def test_run_report_mixed():
    r = run_report(parse_input(MIXED_CSV))
    assert r.auc == Fraction(7, 8)
    assert r.pair_probability == Fraction(3, 4)
    assert r.tie.correction == Fraction(1, 8)


def test_run_report_disjoint():
    r = run_report(parse_input("0.8,1\n0.4,1\n0.6,0\n0.2,0\n"))
    assert r.hypothesis_holds is True
    assert r.auc == r.pair_probability == Fraction(3, 4)
    assert r.tie.correction == 0


def test_report_construction_rejects_inconsistent_fields():
    r = run_report(parse_input(MIXED_CSV))
    with pytest.raises(IdentityError):
        _report_with(r, pair_probability=Fraction(1, 2))
    with pytest.raises(IdentityError):
        _report_with(r, hypothesis_holds=True)


def test_report_requires_the_tie_inventory_to_agree_with_the_hypothesis():
    r = run_report(parse_input(MIXED_CSV))
    with pytest.raises(IdentityError) as exc:
        _report_with(r, tie=TieReport((), r.tie.correction, r.tie.bound))
    assert str(exc.value) == (
        "RocReport: no cross-class tie iff area = pair probability: "
        "hypothesis False, shared 0, auc 7/8, pair 3/4"
    )


def test_emit_report_json_counterexample():
    r = run_report(parse_input(COUNTEREXAMPLE_CSV))
    payload = json.loads(emit_report(r, "json"))
    assert payload["n_pos"] == 1
    assert payload["n_neg"] == 1
    assert payload["hypothesis_holds"] is False
    assert payload["auc"] == "1/2"
    assert payload["auc_decimal"] == "0.5"
    assert payload["pair_probability"] == "0/1"
    assert payload["tie_correction"] == "1/2"
    assert payload["tie_bound"] == "1/2"
    assert payload["shared_scores"] == [
        {"score": "7/20", "pos_mass": "1/1", "neg_mass": "1/1"}
    ]
    assert payload["curve"] == [["1/1", "1/1"], ["0/1", "0/1"]]


def test_emit_report_json_key_order_and_determinism():
    r = run_report(parse_input(MIXED_CSV))
    text = emit_report(r, "json")
    assert text == emit_report(run_report(parse_input(MIXED_CSV)), "json")
    assert list(json.loads(text)) == [
        "n_pos",
        "n_neg",
        "hypothesis_holds",
        "auc",
        "auc_decimal",
        "pair_probability",
        "pair_probability_decimal",
        "tie_correction",
        "tie_correction_decimal",
        "tie_bound",
        "tie_bound_decimal",
        "shared_scores",
        "curve",
    ]
    assert text.endswith("\n")


def test_emit_report_decimals_use_17_significant_digits():
    # one positive against three negatives, beating two: pair probability 2/3
    r = run_report(parse_input("0.6,1\n0.1,0\n0.5,0\n0.7,0\n"))
    payload = json.loads(emit_report(r, "json"))
    assert payload["pair_probability"] == "2/3"
    assert payload["pair_probability_decimal"] == "0.66666666666666667"


@given(st.integers(0, 10**6), st.sampled_from(["disjoint", "tied", "random"]))
@settings(max_examples=150)
def test_emit_report_json_is_laid_out_as_json_dumps(seed, kind):
    d = random_dataset(random.Random(seed), disjoint=kind == "disjoint", force_tie=kind == "tied")
    text = emit_report(run_report(d), "json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_emit_report_text_mode():
    for text, lines in REPORT_TEXT.items():
        assert emit_report(run_report(parse_input(text)), "text") == "\n".join(lines) + "\n"


def test_emit_report_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="^mode must be 'json' or 'text', not 'xml'$"):
        emit_report(run_report(parse_input(COUNTEREXAMPLE_CSV)), "xml")


def test_svg_is_valid_xml_with_one_point_per_curve_vertex():
    d = parse_input(MIXED_CSV)
    curve = roc_curve(d)
    svg = emit_curve_svg(curve, 480)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "480"
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 1
    assert len(polylines[0].get("points").split()) == len(curve.points)


def test_svg_counterexample_is_the_diagonal_segment():
    curve = roc_curve(parse_input(COUNTEREXAMPLE_CSV))
    svg = emit_curve_svg(curve, 480)
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    pts = root.findall(".//s:polyline", ns)[0].get("points").split()
    assert len(pts) == 2


def test_writers_build_no_fraction():
    # 1,500 distinct scores, some shared: every value printed is a ratio of integer counts
    r = run_report(parse_input("".join(f"{i // 2}/997,{int(i % 3 == 0)}\n" for i in range(3000))))
    assert len(r.curve.neg_ge) > 1000 and r.tie.shared_scores
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # from Python 3.12, arithmetic builds here
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in constructors:
            built.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        emit_report(r, "json")
        emit_report(r, "text")
        emit_curve_svg(r.curve)
    finally:
        sys.setprofile(previous)
    assert built == []


def test_svg_rejects_tiny_width():
    curve = roc_curve(parse_input(COUNTEREXAMPLE_CSV))
    with pytest.raises(ValueError):
        emit_curve_svg(curve, 63)


def test_identity_suite_all_pass_on_examples(monkeypatch):
    # the benchmark reads a `check` with another number of rows as incorrect
    monkeypatch.syspath_prepend(str(DATA.parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for text in (COUNTEREXAMPLE_CSV, MIXED_CSV):
        rows = identity_suite(parse_input(text))
        assert len(rows) == workloads.CHECK_ROWS
        assert all(ok for _, ok, _ in rows)


def test_identity_rows_are_rendered_only_where_printed(monkeypatch):
    # a report that passes prints no row, so it formats no exact side; `check` prints all seven
    d = parse_input((DATA / "nondyadic.csv").read_text(encoding="utf-8"))
    rendered = []
    frac = report_module._frac
    monkeypatch.setattr(report_module, "_frac", lambda q: rendered.append(q) or frac(q))
    run_report(d)
    assert rendered == []
    rows = identity_suite(d)
    lines = [f"{'ok  ' if ok else 'FAIL'}  {name} ({detail})" for name, ok, detail in rows]
    assert lines == (DATA / "nondyadic_check.txt").read_text(encoding="utf-8").splitlines()


def test_run_report_matches_dataset_built_directly():
    via_text = run_report(parse_input(MIXED_CSV))
    via_api = run_report(Dataset(["0.5", "0.9"], ["0.5", "0.1"]))
    assert emit_report(via_text) == emit_report(via_api)
