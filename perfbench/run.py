"""Benchmark of the stackelearn CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  The seed generates the workload's config (see
``workloads.py``).  Each repeat is a fresh child process that sets up, then
calls ``stackelearn.cli.main`` in-process for each of the workload's
commands.  Repeats run back to back until another one would end after
``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (medians over traced repeats).  Every command's outputs are
checked (``checks.py``); a command that fails or whose outputs are wrong
counts as a failed operation.  A report with the environment, game sizes,
output digests and every metric with its unit is printed first; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = "out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "learn_steps_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
# Reported, not gated: it is 0 on a healthy run, and the result line carries
# it as ``failed`` / ``attempted``.
ERROR_RATE_UNIT = "ratio"

COMMANDS = ("run", "sweep", "oracle", "dynamics")
PER_LAYER = {
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "game.tensor_s": "s",
    "game.tensor_builds": "count",
    "game.tensor_cells": "count",
    "game.tensor_reuse_ratio": "ratio",
    "game.scalar_sinr_calls": "count",
    "game.oracle_s": "s",
    "game.oracle_calls": "count",
    "learning.step_us.rla1": "us",
    "learning.step_us.rla2": "us",
    "learning.step_us.noncoop": "us",
    "learning.step_s": "s",
    "learning.steps": "count",
    "learning.engines": "count",
    "learning.engine_init_s": "s",
    "learning.records_kept_ratio": "ratio",
    "dynamics.field_evals": "count",
    "dynamics.field_us": "us",
    "dynamics.integrate_s": "s",
    "dynamics.normalize_s": "s",
    "harness.build_game_s": "s",
    "harness.build_game_calls": "count",
    "harness.reference_s": "s",
    "harness.summary_s": "s",
    "harness.emit_s": "s",
    "harness.emit_bytes": "bytes",
    "channel.topology_s": "s",
    "channel.gain_s": "s",
    "config.load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def environment() -> dict:
    """Where the numbers were measured.  BLAS threads are recorded, not set."""
    import numpy as np
    from importlib.metadata import PackageNotFoundError, version

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=20, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                    capture_output=True, text=True, timeout=20, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "blas": blas.get("name"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Run:
    """One benchmark run of one workload: child processes, checks, tallies."""

    def __init__(self, workload, workdir: Path, expect: dict, seconds: float):
        self.workdir = workdir
        self.expect = expect
        self.seconds = seconds
        self.start = time.perf_counter()
        self.argvs = [[c[0], "--config", "config.json", *c[1:]] for c in workload.commands]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_ok = True
        self.setup_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.reference: dict[int, dict] = {}  # command index -> digests
        self.sizes: dict[int, dict] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, commands, trace: bool) -> dict | None:
        """Run one child process; None if it did not produce a result."""
        plan = {"config": "config.json", "outdir": OUT, "commands": commands, "trace": trace}
        (self.workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        shutil.rmtree(self.workdir / OUT, ignore_errors=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--plan", "plan.json"],
                cwd=self.workdir,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.problems.append("child process timed out")
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            self.problems.append(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        if Path(result["package_file"]).resolve().parent != (SRC / "stackelearn").resolve():
            self.problems.append(f"imported {result['package_file']}, not the checkout's package")
            return None
        self.setup_s.append(result["setup_s"])
        return result

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            if self.child([], trace=False) is None:
                self.setup_ok = False

    def repeat(self, trace: bool) -> None:
        result = self.child(self.argvs, trace)
        self.attempted += len(self.argvs)
        if result is None:
            self.failed += len(self.argvs)
            return
        result["emit_bytes"] = 0
        for index, command in enumerate(result["commands"]):
            problems = self.check(index, command)
            result["emit_bytes"] += sum(
                (self.workdir / OUT / name).stat().st_size for name in command["files"]
            )
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(command['argv'])}: {p}" for p in problems]
        (self.traced if trace else self.untraced).append(result)

    def check(self, index: int, command: dict) -> list[str]:
        from checks import check_command, output_digests

        if command["code"] != 0:
            detail = command["error"] or command["stderr"]
            return [f"exit code {command['code']}: {detail.strip()[-2000:]}"]
        outdir = str(self.workdir / OUT)
        try:
            digests = output_digests(outdir, command["files"], command["stdout"])
            if index in self.reference:
                if digests != self.reference[index]:
                    return [f"outputs differ from the first repeat's: {digests}"]
                return []
            problems, size = check_command(command["argv"][0], outdir, command["stdout"], self.expect)
        except (OSError, KeyError, ValueError) as exc:
            return [f"output check failed: {exc!r}"]
        self.sizes[index] = size
        if not problems:
            self.reference[index] = digests
        return problems

    def measure(self, modes) -> None:
        """Repeat, cycling through ``modes`` (trace flags), until the next
        cycle would end after ``--seconds``; one cycle always runs."""
        durations: list[float] = []
        while True:
            t0 = time.perf_counter()
            for trace in modes:
                self.repeat(trace)
            durations.append(time.perf_counter() - t0)
            if self.elapsed() + statistics.fmean(durations) > self.seconds:
                return

    def end_to_end(self) -> dict[str, float]:
        # Times are totals over the repeats: on a shared 2-CPU host, repeat
        # times switch between a fast and a slow mode, and the mean of a run
        # varied less from seed to seed than its median did.
        learn_s = sum(
            c["seconds"]
            for r in self.untraced
            for c in r["commands"]
            if c["argv"][0] in ("run", "sweep")
        )
        return {
            "wall_s": statistics.fmean(r["wall_s"] for r in self.untraced),
            "setup_s": statistics.median(self.setup_s),
            "learn_steps_per_s": self.expect["steps"] * len(self.untraced) / learn_s,
            "peak_rss_mib": statistics.median(r["maxrss_kib"] / 1024 for r in self.untraced),
        }

    def per_layer(self) -> dict[str, float]:
        from tracer import layer_metrics

        samples = []
        for r in self.traced:
            m = layer_metrics(r["trace"])
            for name in COMMANDS:
                m[f"cli.{name}_s"] = sum(c["seconds"] for c in r["commands"] if c["argv"][0] == name)
            m["cli.self_s"] = sum(c["seconds"] - c["covered_s"] for c in r["commands"])
            m["harness.emit_bytes"] = r["emit_bytes"]
            m["trace.wall_s"] = r["wall_s"]
            samples.append(m)
        out = {}
        for name in PER_LAYER:
            if samples and all(name in m for m in samples):
                values = [m[name] for m in samples]
                # counts repeat exactly; keep them whole numbers
                out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
        if samples and self.untraced:
            out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
                r["wall_s"] for r in self.untraced
            )
        return out


def expectations(workload, raw: dict) -> dict:
    """What correct outputs look like for this config, computed outside any
    timed region: the brute-force SE, the users and the game sizes."""
    from checks import brute_force_se, oracle_roles
    from stackelearn import build_game, parse_config
    from workloads import expected_steps

    config = parse_config(raw)
    prepared = build_game(config)
    profile = brute_force_se(prepared.game)
    return {
        "algorithms": list(config.learning.algorithms),
        "user_ids": list(prepared.user_ids),
        "oracle": oracle_roles(profile, prepared.user_ids),
        "levels": len(config.users.action_set_dbm),
        "game_active": workload.game_active,
        "sweep_active": workload.sweep_active,
        "steps": expected_steps(workload, raw),
    }


def main(argv=None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "stackelearn" / "__init__.py").is_file():
        print(f"error: no stackelearn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_config

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        raw = make_config(workload, args.seed, OUT)
        (workdir / "config.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")
        run = Run(workload, workdir, expectations(workload, raw), args.seconds)
        if args.trace:
            # untraced and traced repeats alternate, so that host speed drifts
            # hit both sides of trace.overhead_s alike
            run.measure(modes=(False, True))
        else:
            run.probe_setup()
            run.measure(modes=(False,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    if not (run.traced if args.trace else run.untraced):
        print("error: no repeat produced a result:\n" + "\n".join(run.problems), file=sys.stderr)
        return 1
    values = run.per_layer() if args.trace else run.end_to_end()
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    error_rate = run.failed / run.attempted
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "network_rng_seed": raw["network"]["rng_seed"],
        "trace": bool(args.trace),
        "environment": environment(),
        "repeats": {"untraced": len(run.untraced), "traced": len(run.traced)},
        "wall_s_per_repeat": [r["wall_s"] for r in run.untraced + run.traced],
        "setup_s_samples": run.setup_s,
        "expected_steps": run.expect["steps"],
        "game_sizes": {
            f"{i}:{run.argvs[i][0]}": size for i, size in sorted(run.sizes.items())
        },
        "digests": {
            f"{i}:{run.argvs[i][0]}": d for i, d in sorted(run.reference.items())
        },
        "problems": run.problems,
        "error_rate": {"value": error_rate, "unit": ERROR_RATE_UNIT},
        "metrics": metrics,
    }
    print(json.dumps(report, indent=1))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.setup_ok,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
