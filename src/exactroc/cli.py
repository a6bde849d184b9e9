"""Batch front end: CSV/TSV in, exact report (JSON or text) and SVG out.

Exit codes: 0 success, 1 parse or usage error, 2 degenerate classes (only one
label present), 3 internal error: a failed identity or validator, 141 stdout closed
by its reader (the status a shell gives a filter ended by SIGPIPE). Code 3 can only
mean an implementation bug, never a data problem: `report` raises on the first exact
identity that fails (see `exactroc.report`), before anything is emitted; `check`
prints each as a row.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from itertools import islice
from typing import TYPE_CHECKING, Callable, NoReturn

from .core import Dataset, DegenerateClassesError
from .parse import _DELIMITERS, ParseError, parse_input
from .report import _MIN_WIDTH_PX, IdentityError, _dec17, _frac, _report_pieces
from .report import emit_curve_svg, identity_suite, run_report
from .report import emit_report  # unused here: perfbench's STEPS time it as cli.emit_report
from .roc import roc_curve

if TYPE_CHECKING:
    from .contlab import LaplaceTieModel

_WRITE_PIECES = 256  # report pieces joined into one write: few writes, yet no large string


def _load(args: argparse.Namespace) -> Dataset:
    binary = sys.stdin.buffer if args.input == "-" else open(args.input, "rb")
    # A byte that is not UTF-8 reads as a lone surrogate, which is neither a score nor a
    # label, so the parse refuses its line by number
    with io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape") as fh:
        return parse_input(fh, args.format)


def _cmd_report(args: argparse.Namespace) -> int:
    report = run_report(_load(args))  # every identity is checked before the first byte
    pieces = _report_pieces(report, args.output)
    while chunk := list(islice(pieces, _WRITE_PIECES)):  # one write each, unbuffered or not
        sys.stdout.write("".join(chunk))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    svg = emit_curve_svg(roc_curve(_load(args)), args.width)  # argparse checked the width
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def _contlab_lines(model: LaplaceTieModel, drawn: Dataset) -> list[str]:
    """One epsilon's 10 lines: the model's floats, then the sample's exact values."""
    from .contlab import jump_certificate
    cert = jump_certificate(model)
    r = run_report(drawn)  # every identity row is checked on the sample; a failure exits 3
    floats = dict(
        epsilon=model.epsilon, beta_star=model.beta_star, fpr_below_jump=cert.x_minus_approx,
        fpr_above_jump=cert.x_plus_approx, model_area=model.area,
        model_pair_prob=model.pair_probability, model_gap=model.gap)
    exact = dict(auc=r.auc, pair_probability=r.pair_probability, tie_correction=r.tie.correction)
    return [*(f"{name:<17}{x:.17g}\n" for name, x in floats.items()),
            *(f"{name:<17}{_frac(q)} = {_dec17(q)}\n" for name, q in exact.items())]


def _cmd_contlab(args: argparse.Namespace) -> int:
    from .contlab import LaplaceTieModel, sample  # only this command loads the lab
    try:  # every epsilon, and with the first draw --samples and --seed, before any output
        models = [LaplaceTieModel(eps) for eps in args.epsilon]
        drawn = sample(models[0], args.samples, args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for i, model in enumerate(models):
        if i:
            drawn = sample(model, args.samples, args.seed)
        sys.stdout.writelines(_contlab_lines(model, drawn))
        del drawn  # so only one sample is held while the next is drawn
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    failures = 0
    for name, ok, detail in identity_suite(_load(args)):
        print(f"{'ok  ' if ok else 'FAIL'}  {name} ({detail})")
        failures += not ok
    if failures:
        print(f"{failures} identity check(s) failed", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as do its subparsers: 2 means a one-class file."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _width(text: str) -> int:
    """argparse type of `curve --width`, so a bad width is a usage error before any input."""
    width = int(text)  # argparse reports a non-integer as an invalid _width value
    if width < _MIN_WIDTH_PX:
        raise argparse.ArgumentTypeError(f"width must be at least {_MIN_WIDTH_PX} px")
    return width


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV/TSV of score,label records; - is stdin")
    p.add_argument("--format", choices=list(_DELIMITERS), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="exactroc",
        description="Exact ROC/AUC and ranking-probability reports with tie accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full exact report for a prediction file")
    _add_input_args(p_report)
    p_report.add_argument("--output", choices=["json", "text"], default="json")
    p_report.set_defaults(func=_cmd_report)

    p_curve = sub.add_parser("curve", help="render the ROC polyline as SVG")
    _add_input_args(p_curve)
    p_curve.add_argument("--svg", required=True, help="output SVG path")
    p_curve.add_argument(
        "--width", type=_width, default=480, help=f"canvas width in px (>= {_MIN_WIDTH_PX})"
    )
    p_curve.set_defaults(func=_cmd_curve)

    p_cont = sub.add_parser(
        "contlab", help="continuous Laplace example: ROC jump certificate and area check"
    )
    p_cont.add_argument("--epsilon", type=float, nargs="+", default=[0.25])
    p_cont.add_argument("--samples", type=int, default=20_000)
    p_cont.add_argument("--seed", type=int, default=0)
    p_cont.set_defaults(func=_cmd_contlab)

    p_check = sub.add_parser("check", help="run every exact identity on a prediction file")
    _add_input_args(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.func
    # A command leaves the same few cycles, argparse's, whatever its input: collecting
    # would find nothing more, so the collector is off until it returns.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except BrokenPipeError:  # the reader stopped early: not an input error, and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the final flush
        return 141
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DegenerateClassesError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (IdentityError, ValueError) as e:  # input ValueErrors are all caught above
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()
