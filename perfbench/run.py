"""exactroc benchmark: seeded workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package under test is the `src/exactroc` next to this
directory, never an installed copy. Each workload is a closed loop with one
client: one operation at a time, the next only after the previous returns,
on one thread. No layer queues, so no wait time is reported.

--trace 0 prints the end-to-end metrics: the wall time, rows per second and
peak RSS of the measured process, and the set-up time of a fresh interpreter
importing the package. --trace 1 replays the same inputs in process through
the package's public functions, one span per call (see inproc.py), and adds
the import breakdown from `python -X importtime`; it prints the per-layer
metrics. Every time is reported at reference speed, which takes out most of
what other tenants of a shared host do to it (refloop.py, spawn.py, Speed).
Every output is checked against the benchmark's own oracle (workloads.py).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md for why each workload exists and which layer should move which
metric on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import workloads as w
from inproc import DIGEST_DATASETS
from refloop import REF_SECONDS, SAMPLE_EVERY_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "exactroc" / "__init__.py"

SETUP_SAMPLES = 5  # fresh interpreters importing exactroc, per run
IMPORT_SAMPLES = 3  # `-X importtime` imports and bare interpreters, per traced run
CHILD_TIMEOUT_S = 120
LIMITS = (
    "warm page cache; caches are never dropped; no system-wide tracing: spans "
    "come from wrappers around the package's public functions in the measured "
    "process only; measured processes are pinned to one CPU, which they share "
    "with the reference loop"
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "report" | "check": CLI subprocess per operation; "sweep": library in process
    size: int  # rows in the input file, or datasets in the sweep pool
    make: Callable[[int, int], list]  # (seed, size) -> rows, or a pool of datasets for "sweep"


WORKLOADS = {
    "report-lowtie": Workload("report", 20_000, w.lowtie_rows),
    "report-hightie": Workload("report", 100_000, w.hightie_rows),
    "check-tied": Workload("check", 5_000, w.hightie_rows),
    # Enough datasets that a run rarely cycles through the pool more than once.
    "sweep-small": Workload("sweep", 1_000, w.sweep_pool),
}

# Span names whose per-operation time is reported as "<name>.ms".
LAYER_SPANS = (
    "cli.parse_input",
    "core.dataset_from_pairs",
    "roc.roc_curve",
    "roc.auc_trapezoid",
    "pairwise.pair_probability_fast",
    "pairwise.tie_report",
    "pairwise.hypothesis_holds",
    "pairwise.pair_probability_bruteforce",
    "stieltjes.rate_step_function",
    "stieltjes.negative_differential",
    "stieltjes.integrate.balanced",
    "stieltjes.integrate.right",
    "cli.emit_report",
)
IMPORT_PACKAGES = ("numpy", "scipy", "exactroc")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed operation)."""


class Speed:
    """The reference loop samples taken around and during one spawned process.

    Each sample is (start, end, CPU seconds) of one loop. `rescale` turns an
    interval measured in that process into seconds at reference speed: its
    length, minus the CPU time that loops running inside it took from the
    measured code, times REF_SECONDS over the mean loop CPU time within
    SAMPLE_EVERY_S of the interval.
    """

    def __init__(self, samples: list[list[float]]):
        self.samples = sorted(samples)
        self.starts = [t for t, _, _ in self.samples]

    def _near(self, start: float, end: float) -> list[list[float]]:
        lo = bisect_left(self.starts, start - SAMPLE_EVERY_S)
        hi = bisect_right(self.starts, end + SAMPLE_EVERY_S)
        return self.samples[lo:hi] or [min(self.samples, key=lambda s: abs(s[0] - start))]

    def factor(self, start: float, end: float) -> float:
        return REF_SECONDS / statistics.fmean(cpu for _, _, cpu in self._near(start, end))

    def rescale(self, start: float, end: float, factor: float | None = None) -> float:
        """The interval at reference speed; `factor` defaults to its own."""
        taken = sum(
            cpu * max(0.0, min(end, t1) - max(start, t0)) / (t1 - t0)
            for t0, t1, cpu in self._near(start, end)
        )
        return (end - start - taken) * (factor or self.factor(start, end))

    def rescale_ns(self, interval: list[int], factor: float | None = None) -> float:
        """An interval in perf_counter_ns, as seconds at reference speed."""
        return self.rescale(interval[0] / 1e9, interval[1] / 1e9, factor)

    def raw_speed(self) -> float:
        """Mean loop time over REF_SECONDS: how much slower than reference the CPU ran."""
        return statistics.fmean(cpu for _, _, cpu in self.samples) / REF_SECONDS


@dataclass(frozen=True)
class Spawned:
    start: float
    end: float
    speed: Speed
    maxrss_mb: float
    exit: int
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def at_ref_s(self) -> float:
        return self.speed.rescale(self.start, self.end)


class Spawner:
    """Runs commands through spawn.py, one at a time, against the checkout's src."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str], timeout: int = CHILD_TIMEOUT_S) -> Spawned:
        out, err = self.work / "stdout", self.work / "stderr"
        request = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(out),
            "stderr": str(err),
            "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("spawn helper exited")
        reply = json.loads(line)
        return Spawned(
            reply["start"],
            reply["end"],
            Speed(reply["samples"]),
            reply["maxrss_kb"] / 1024,
            reply["exit"],
            out.read_bytes(),
            err.read_bytes(),
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # the first few, for the report

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 5 - len(self.problems)])


def environment(name: str, wl: Workload, seed: int, why: str) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "kind": wl.kind,
        "size": wl.size,
        "size_unit": "datasets" if wl.kind == "sweep" else "rows",
        "why": why,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loop": "closed, 1 client, 1 thread; nothing queues, so no wait time",
        "limits": LIMITS,
    }


def import_package(sp: Spawner, *flags: str) -> Spawned:
    """A fresh interpreter imports exactroc; fails unless it got the checkout's copy."""
    r = sp.run([*flags, "-c", "import exactroc, sys; sys.stdout.write(exactroc.__file__)"])
    if r.exit != 0:
        raise BenchError(f"import exactroc failed: {r.stderr.decode(errors='replace')[-500:]}")
    if Path(r.stdout.decode()).resolve() != PACKAGE_INIT.resolve():
        raise BenchError(f"imported {r.stdout.decode()}, not {PACKAGE_INIT}")
    return r


def cli_problems(kind: str, r: Spawned, e: w.Expected) -> list[str]:
    if r.exit != 0:
        return [f"exit {r.exit}: {r.stderr.decode(errors='replace')[-300:]}"]
    try:
        text = r.stdout.decode()
        if kind == "report":
            return w.report_mismatches(w.summarize(json.loads(text)), e)
        return w.check_mismatches(text.splitlines(), e)
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def outcome_problems(kind: str, outcome: dict, e: w.Expected) -> list[str]:
    if kind == "check":
        return w.check_mismatches(outcome["lines"], e)
    return w.report_mismatches(outcome, e)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def run_worker(sp: Spawner, work: Path, kind: str, input_path: Path, seconds: int, trace: int) -> tuple[dict, Spawned]:
    out = work / "inproc.json"
    r = sp.run(
        [
            str(HERE / "inproc.py"),
            "--kind", kind,
            "--input", str(input_path),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", str(out),
        ],
        timeout=seconds + CHILD_TIMEOUT_S,
    )
    if r.exit != 0:
        raise BenchError(f"inproc.py exited {r.exit}: {r.stderr.decode(errors='replace')[-800:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result["module"]).resolve() != PACKAGE_INIT.resolve():
        raise BenchError(f"inproc.py imported {result['module']}, not {PACKAGE_INIT}")
    return result, r


class Inputs:
    """One run's generated datasets, written where the program can read them."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        made = wl.make(seed, wl.size)
        self.datasets = made if wl.kind == "sweep" else [made]
        self._expected: dict[int, w.Expected] = {}
        if wl.kind == "sweep":
            self.path = work / "pool.json"
            pool = [
                [" ".join(t for _, t, _ in rows), "".join("1" if p else "0" for _, _, p in rows)]
                for rows in self.datasets
            ]
            self.path.write_text(json.dumps(pool), encoding="utf-8")
        else:
            self.path = work / "input.csv"
            self.path.write_text(w.csv_text(self.datasets[0]), encoding="utf-8")

    def expected(self, i: int) -> w.Expected:
        i %= len(self.datasets)
        if i not in self._expected:
            self._expected[i] = w.oracle(self.datasets[i])
        return self._expected[i]

    def mean_rows(self) -> float:
        return sum(map(len, self.datasets)) / len(self.datasets)

    def counts(self) -> dict[str, float]:
        """Per-dataset input counts; for the sweep, means over the whole pool."""
        per = [self.expected(i) for i in range(len(self.datasets))]

        def mean(values) -> float:
            return sum(values) / len(per)

        return {
            "count.rows": self.mean_rows(),
            "count.n_pos": mean(e.n_pos for e in per),
            "count.n_neg": mean(e.n_neg for e in per),
            "count.distinct_scores": mean(e.distinct_scores for e in per),
            "count.shared_scores": mean(e.shared_scores for e in per),
            "count.curve_points": mean(e.distinct_scores + 1 for e in per),
            "count.pairs": mean(e.pairs for e in per),
            "count.input_bytes": mean(len(w.csv_text(rows).encode()) for rows in self.datasets),
        }


def measure_end_to_end(sp: Spawner, work: Path, inputs: Inputs, seconds: int, tally: Tally, info: dict) -> dict:
    wl = inputs.wl
    setup = [import_package(sp) for _ in range(SETUP_SAMPLES)]
    info["setup_s"] = quartiles([r.at_ref_s for r in setup])
    raw = info["raw_s"] = {"setup": quartiles([r.wall_s for r in setup])}
    slowdown = [r.speed.raw_speed() for r in setup]

    if wl.kind == "sweep":
        result, child = run_worker(sp, work, "sweep", inputs.path, seconds, 0)
        raw_s, op_s = [], []
        for op in result["ops"]:
            tally.record(w.report_mismatches(op["outcome"], inputs.expected(op["i"])))
            raw_s.append(sum(e - s for s, e in op["steps"].values()) / 1e9)
            op_s.append(sum(child.speed.rescale_ns(t) for t in op["steps"].values()))
        ms = [t * 1e3 for t in op_s]
        info["dataset_ms"] = quartiles(ms)
        if len(ms) >= 1000:  # at least ten samples above the 99th percentile
            info["dataset_ms"]["p99"] = statistics.quantiles(ms, n=100)[98]
        info["datasets_per_s"] = len(ms) / sum(op_s)
        raw["dataset"] = quartiles(raw_s)
        slowdown.append(child.speed.raw_speed())
        info["stdout_sha256"] = result["digest"]
        info["stdout_sha256_covers"] = f"emit_report JSON of the first {DIGEST_DATASETS} pool datasets"
        wall = statistics.median(op_s)
        peak_rss = child.maxrss_mb
    else:
        e = inputs.expected(0)
        args = ["-m", "exactroc", wl.kind, "--input", str(inputs.path)]
        runs: list[Spawned] = []
        digests: list[str] = []
        verdicts: dict[str, list[str]] = {}
        start = perf_counter()
        # Stop before an invocation that would be expected to end after `seconds`.
        while not runs or perf_counter() - start + runs[-1].wall_s <= seconds:
            r = sp.run(args)
            runs.append(r)
            digest = hashlib.sha256(r.stdout).hexdigest()
            digests.append(digest)
            if r.exit != 0 or digest not in verdicts:
                verdicts[digest] = cli_problems(wl.kind, r, e)
            problems = list(verdicts[digest])
            if digest != digests[0]:
                problems.append("stdout differs from the first invocation's")
            tally.record(problems)
        info["wall_s"] = quartiles([r.at_ref_s for r in runs])
        raw["wall"] = quartiles([r.wall_s for r in runs])
        info["peak_rss_mb"] = quartiles([r.maxrss_mb for r in runs])
        info["stdout_sha256"] = sorted(set(digests))
        slowdown += [r.speed.raw_speed() for r in runs]
        wall = info["wall_s"]["median"]
        peak_rss = info["peak_rss_mb"]["median"]

    info["slowdown_vs_reference"] = quartiles(slowdown)
    return {
        "wall_s": wall,
        "rows_per_s": inputs.mean_rows() / wall,
        "peak_rss_mb": peak_rss,
        "setup_s": info["setup_s"]["median"],
    }


def parse_importtime(text: str) -> dict[str, float]:
    """Sum `-X importtime` self times (ms) by top-level package, over `import exactroc`.

    Modules imported while importing exactroc print (nested, indented) just
    before its own unindented line, after the previous unindented line.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        rows.append((int(self_us), int(cumulative_us), name.rstrip()))
    top = [i for i, (_, _, name) in enumerate(rows) if name == " exactroc"]
    if not top:
        raise BenchError("no `exactroc` line in -X importtime output")
    end = top[-1]
    start = max((i for i in range(end) if not rows[i][2].startswith("  ")), default=-1) + 1
    ms = defaultdict(float)
    for self_us, _, name in rows[start : end + 1]:
        package = name.strip().split(".")[0]
        ms[package if package in IMPORT_PACKAGES else "other"] += self_us / 1e3
    return {
        "import.total.ms": rows[end][1] / 1e3,
        **{f"import.{p}.ms": ms[p] for p in (*IMPORT_PACKAGES, "other")},
    }


def measure_import(sp: Spawner) -> dict[str, float]:
    floor, parts = [], []
    for _ in range(IMPORT_SAMPLES):
        floor.append(sp.run(["-c", "pass"]).at_ref_s * 1e3)
        r = import_package(sp, "-X", "importtime")
        scale = r.at_ref_s / r.wall_s
        parts.append({k: ms * scale for k, ms in parse_importtime(r.stderr.decode()).items()})
    return {
        "import.interpreter.ms": statistics.median(floor),
        **{k: statistics.median(p[k] for p in parts) for k in parts[0]},
    }


def measure_layers(sp: Spawner, work: Path, inputs: Inputs, seconds: int, tally: Tally, info: dict) -> dict:
    wl = inputs.wl
    metrics = measure_import(sp)
    result, child = run_worker(sp, work, wl.kind, inputs.path, seconds, 1)
    ops, spans = result["ops"], result["spans"]
    for op in ops:
        tally.record(outcome_problems(wl.kind, op["outcome"], inputs.expected(op["i"])))
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    n = len(traced)

    # Every duration below is in ms at reference speed. All intervals of one
    # operation share its speed factor, so that self times stay differences.
    for op in ops:
        op["factor"] = child.speed.factor(
            min(t[0] for t in op["steps"].values()) / 1e9,
            max(t[1] for t in op["steps"].values()) / 1e9,
        )
    span_ms = defaultdict(float)
    children_ms = defaultdict(float)  # span index -> time covered by its direct children
    durations = [
        child.speed.rescale_ns((start, end), ops[op]["factor"]) * 1e3 for op, _, _, start, end in spans
    ]
    for (_, name, parent, _, _), ms in zip(spans, durations):
        span_ms[name] += ms
        if parent >= 0:
            children_ms[parent] += ms
    self_ms = defaultdict(float)
    for index, ((_, name, _, _, _), ms) in enumerate(zip(spans, durations)):
        self_ms[name] += ms - children_ms[index]

    def mean_ms(group: list[dict], steps: tuple[str, ...] | None = None) -> float:
        total = sum(
            child.speed.rescale_ns(t, op["factor"])
            for op in group
            for step, t in op["steps"].items()
            if steps is None or step in steps
        )
        return total * 1e3 / len(group)

    for name in LAYER_SPANS:
        metrics[f"{name}.ms"] = span_ms[name] / n
    rows = len(inputs.datasets[0]) if wl.kind != "sweep" else 0
    metrics["cli.parse_input.us_per_row"] = metrics["cli.parse_input.ms"] * 1e3 / rows if rows else 0.0
    # run_report and identity_suite: untraced, on their own fresh Dataset;
    # their traced children plus self time add up to that, plus the tracing
    # overhead and noise.
    metrics["cli.run_report.ms"] = mean_ms(untraced, ("cli.run_report",))
    metrics["cli.run_report.self_ms"] = self_ms["cli.run_report"] / n
    metrics["cli.identity_suite.ms"] = mean_ms(untraced, ("cli.identity_suite",))
    metrics["trace.overhead.ms"] = mean_ms(traced) - mean_ms(untraced)
    metrics["trace.spans_per_op"] = len(spans) / n
    metrics.update(inputs.counts())

    if span_ms["cli.run_report"]:
        info["run_report_accounting_ms"] = {
            "traced_children": (span_ms["cli.run_report"] - self_ms["cli.run_report"]) / n,
            "traced_self": metrics["cli.run_report.self_ms"],
            "untraced_total": metrics["cli.run_report.ms"],
            "difference": span_ms["cli.run_report"] / n - metrics["cli.run_report.ms"],
        }
    info["operations"] = {"traced": n, "untraced": len(untraced)}
    info["slowdown_vs_reference"] = child.speed.raw_speed()
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not PACKAGE_INIT.is_file():
        print(f"error: {PACKAGE_INIT} not found; run from a full checkout", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics to print, with their units, and why
    # each workload exists.
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {x["name"]: x["why"] for x in config["workloads"]}[args.workload]
    specs = config["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    info = environment(args.workload, wl, args.seed, why)
    tally = Tally()
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        inputs = Inputs(wl, args.seed, work)
        with Spawner(work) as sp:
            measure = measure_layers if args.trace else measure_end_to_end
            metrics = measure(sp, work, inputs, args.seconds, tally, info)
        missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["error_rate"] = tally.failed / tally.attempted
    info["problems"] = tally.problems
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} (seed {args.seed}): {why}")
    for spec in specs:
        print(f"# {spec['name']:40s} {metrics[spec['name']]:14.6g} {spec['unit']}")
    print("# detail " + json.dumps(info))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]} for spec in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
