"""Fast self-test of the benchmark itself (a few seconds).

    python3 perfbench/selftest.py

Checks that:

* untraced and traced runs of the tiny workload print exactly the metrics
  BENCHMARK.json names, each with its declared unit, and pass every check;
* the report prints ``error_rate`` with a unit, and the traced step count
  equals the benchmark's own count of steps;
* corrupted outputs (wrong CSV content, a missing summary row, a wrong oracle
  profile, outputs that differ from the first repeat's) count as failed
  operations;
* a wrapped function that does not exist leaves its metric out instead of
  reporting zero;
* a directory holding only the benchmark makes it exit non-zero without a
  result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, make_config

TINY = "selftest-tiny"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_cli(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed(declared: dict) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_cli("--workload", TINY, "--seconds", "1", "--trace", trace)
        check(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads("\n".join(lines[:-1]))
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace}: {report['problems']}")
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {trace} metrics/units differ: {set(got) ^ set(want)}")
        for name, m in result["metrics"].items():
            check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{name} value")
        check(report["error_rate"] == {"value": 0.0, "unit": bench.ERROR_RATE_UNIT}, "error_rate")
        if trace == "1":
            steps = result["metrics"]["learning.steps"]["value"]
            check(steps == report["expected_steps"], f"traced steps {steps} != {report['expected_steps']}")


class CorruptingRun(bench.Run):
    """Corrupts the outputs of chosen repeats before they are checked."""

    corrupt_repeats: set[int] = set()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.repeats_done = 0

    def child(self, commands, trace):
        result = super().child(commands, trace)
        if result is not None and commands:
            if self.repeats_done in self.corrupt_repeats:
                self.corrupt(self.workdir / bench.OUT, result)
            self.repeats_done += 1
        return result

    def corrupt(self, out: Path, result: dict) -> None:
        raise NotImplementedError


class ContentCorruption(CorruptingRun):
    corrupt_repeats = {0}

    def corrupt(self, out, result):
        dynamics = (out / "dynamics.csv").read_text().splitlines()
        cells = dynamics[1].split(",")
        cells[3] = "-0.5"  # y_0 of the first row
        dynamics[1] = ",".join(cells)
        (out / "dynamics.csv").write_text("\n".join(dynamics) + "\n")
        summary = (out / "summary.csv").read_text().splitlines()
        (out / "summary.csv").write_text("\n".join(summary[:-1]) + "\n")
        sweep = (out / "sweep_gamma0.csv").read_text().splitlines()
        cells = sweep[1].split(",")
        cells[3] = "nan"  # expected_sinr_lin
        sweep[1] = ",".join(cells)
        (out / "sweep_gamma0.csv").write_text("\n".join(sweep) + "\n")
        oracle = next(c for c in result["commands"] if c["argv"][0] == "oracle")
        oracle["stdout"] = oracle["stdout"].replace("MU: action ", "MU: action 9", 1)


class DigestCorruption(CorruptingRun):
    corrupt_repeats = {1}

    def corrupt(self, out, result):
        with open(out / "trace_rla1.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")


def check_corruption_counts() -> None:
    workload = WORKLOADS[TINY]
    raw = make_config(workload, 44, bench.OUT)
    expect = bench.expectations(workload, raw)
    for cls, repeats, wanted in ((ContentCorruption, 1, 4), (DigestCorruption, 2, 1)):
        workdir = bench.WORK / f"selftest-{cls.__name__}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            (workdir / "config.json").write_text(json.dumps(raw))
            run = cls(workload, workdir, expect, seconds=0)
            for _ in range(repeats):
                run.repeat(trace=False)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        check(run.attempted == 4 * repeats, f"{cls.__name__}: attempted {run.attempted}")
        check(run.failed == wanted, f"{cls.__name__}: failed {run.failed}, want {wanted}: {run.problems}")


def check_missing_binding() -> None:
    tracer = Tracer()
    tracer._wrap("stackelearn.cli", "no_such_function", "harness.summary", tracer._span)
    check("harness.summary_s" not in layer_metrics(tracer.raw()), "missing binding reported")
    tracer._wrap("stackelearn.cli", "compare_summary", "harness.summary", tracer._span)
    try:
        check(layer_metrics(tracer.raw())["harness.summary_s"] == 0.0, "uncalled binding not 0")
    finally:
        tracer.uninstall()


def check_bare_directory(declared_paths) -> None:
    bare = bench.WORK / f"selftest-bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for path in declared_paths:
            shutil.copytree(
                bench.ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("_work", "__pycache__"),
            )
        proc = run_cli("--workload", TINY, "--seconds", "1", cwd=bare)
        check(proc.returncode != 0, "bare directory run exited 0")
        check('"metrics"' not in proc.stdout, "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END,
        "BENCHMARK.json end_to_end differs from run.END_TO_END",
    )
    check(
        {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER,
        "BENCHMARK.json per_layer differs from run.PER_LAYER",
    )
    check(
        [w["name"] for w in declared["workloads"]] == [n for n in WORKLOADS if n != TINY],
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    check_metrics_printed(declared)
    check_corruption_counts()
    check_missing_binding()
    check_bare_directory(declared["paths"])
    try:
        bench.WORK.rmdir()
    except OSError:
        pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
