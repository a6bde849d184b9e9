"""In-process half of the benchmark: imports exactroc once, then runs one
workload's operations in a closed loop, one at a time, on one thread.

  python3 perfbench/inproc.py --kind report|check|sweep --input PATH
      --seconds S --trace 0|1 --out RESULT.json

An operation is the chain of public calls that `exactroc report`, `exactroc
check` or a library sweep makes (STEPS), started from input text, so every
operation builds its own fresh Dataset. `--input` is a CSV file for report
and check, and a JSON pool of datasets for sweep.

--trace 0 times each operation and its top-level calls.
--trace 1 alternates untraced operations with traced ones, in which every
function named in TRACED is replaced, wherever the package's modules refer
to it, by a wrapper that records one span per call.
Times are (start, end) pairs from time.perf_counter_ns, so that run.py can
rescale each with the reference loop samples taken around it.

Nothing here checks results: each operation's outcome goes to the result
file, and run.py compares it with its own oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

from workloads import frac, summarize

STEPS = {
    "report": ("cli.parse_input", "cli.run_report", "cli.emit_report"),
    "check": ("cli.parse_input", "cli.identity_suite"),
    "sweep": ("core.dataset_from_pairs", "cli.run_report"),
}

TRACED = (
    "core.dataset_from_pairs",
    "cli.parse_input",
    "cli.run_report",
    "cli.emit_report",
    "cli.identity_suite",
    "roc.roc_curve",
    "roc.auc_trapezoid",
    "pairwise.pair_probability_fast",
    "pairwise.pair_probability_bruteforce",
    "pairwise.tie_report",
    "pairwise.hypothesis_holds",
    "stieltjes.rate_step_function",
    "stieltjes.negative_differential",
    "stieltjes.integrate",  # one span name per limit variant
)

# Sweep reports whose JSON goes into the output digest (untimed).
DIGEST_DATASETS = 20


def _lookup(qual: str):
    module, name = qual.rsplit(".", 1)
    return getattr(importlib.import_module(f"exactroc.{module}"), name)


class Tracer:
    """Spans in memory, as (operation, name, parent span index or -1, start ns, end ns)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._open: list[int] = []

    def wrap(self, qual: str, fn):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            name = qual
            if qual == "stieltjes.integrate":
                name += "." + (args[0] if args else kwargs["variant"])
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                spans[index] = (self.op, name, parent, start, end)

        return traced

    @contextmanager
    def installed(self):
        """Point every package reference to a TRACED function at its wrapper."""
        wrappers = {}
        for qual in TRACED:
            fn = _lookup(qual)
            wrappers[id(fn)] = (fn, self.wrap(qual, fn))
        swapped = []
        for name, module in list(sys.modules.items()):
            if name != "exactroc" and not name.startswith("exactroc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])
                    swapped.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)


def run_steps(kind: str, value):
    """One operation; returns its result and each top-level call's (start, end) ns."""
    times = {}
    for qual in STEPS[kind]:
        fn = _lookup(qual)
        start = perf_counter_ns()
        value = fn(value)
        times[qual] = (start, perf_counter_ns())
    return value, times


def outcome(kind: str, result) -> dict:
    """What run.py checks against its oracle, in the shape it gets from the CLI."""
    if kind == "report":
        return summarize(json.loads(result))
    if kind == "check":
        return {"lines": [f"{'ok' if ok else 'FAIL'} {name} ({detail})" for name, ok, detail in result]}
    return {
        "n_pos": result.n_pos,
        "n_neg": result.n_neg,
        "hypothesis_holds": result.hypothesis_holds,
        "auc": frac(result.auc),
        "pair_probability": frac(result.pair_probability),
        "tie_correction": frac(result.tie.correction),
        "shared_scores": len(result.tie.shared_scores),
        "curve": len(result.curve.points),
    }


def pool_pairs(entry: list) -> list[tuple[str, bool]]:
    scores, labels = entry
    return list(zip(scores.split(" "), (c == "1" for c in labels)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=sorted(STEPS), required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import exactroc

    with open(args.input, encoding="utf-8") as fh:
        data = json.load(fh) if args.kind == "sweep" else fh.read()

    def fresh_input(i: int):
        return pool_pairs(data[i % len(data)]) if args.kind == "sweep" else data

    tracer = Tracer()
    ops: list[dict] = []
    deadline = perf_counter_ns() + int(args.seconds * 1e9)
    i = last_ns = 0
    # Stop before a round that would be expected to end after the deadline.
    while not ops or perf_counter_ns() + last_ns <= deadline:
        round_start = perf_counter_ns()
        if args.trace:
            # One untraced and one traced operation on the same input, each
            # from a fresh Dataset; which goes first alternates.
            order = (False, True) if i % 2 else (True, False)
        else:
            order = (False,)
        for traced in order:
            value = fresh_input(i)
            if traced:
                tracer.op = len(ops)
                with tracer.installed():
                    result, times = run_steps(args.kind, value)
            else:
                result, times = run_steps(args.kind, value)
            ops.append({"i": i, "traced": traced, "steps": times, "outcome": outcome(args.kind, result)})
        i += 1
        last_ns = perf_counter_ns() - round_start

    digest = None
    if args.kind == "sweep" and not args.trace:
        h = hashlib.sha256()
        for entry in data[:DIGEST_DATASETS]:
            d = exactroc.dataset_from_pairs(pool_pairs(entry))
            h.update(exactroc.emit_report(exactroc.run_report(d)).encode())
        digest = h.hexdigest()

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "module": exactroc.__file__,
                "ops": ops,
                "spans": tracer.spans,
                "digest": digest,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
