"""Spans and counts around stackelearn's layers, installed from outside the package.

Every entry wraps a function at the module attribute where its caller looks
it up: ``stackelearn.cli.build_game`` and ``stackelearn.harness.build_game``
are separate bindings of one function, and each caller only sees a wrapper
set on its own binding.  A span feeds its duration to its parent span, so a
command's self time is its duration minus what its direct child spans cover.
Spans are aggregated per name in memory; nothing is written while tracing.

A binding that no longer exists is skipped, and every metric that needs it
is then missing from the report rather than reported as zero.  Zero means
the function exists but was not called on this workload.

Only the standard library is imported here, so that a child process can load
this module before its set-up timer starts.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span name)
SPANS = (
    ("stackelearn.cli", "load_config", "config.load"),
    ("stackelearn.harness", "generate_topology", "channel.topology"),
    ("stackelearn.harness", "gain_matrix", "channel.gain"),
    ("stackelearn.cli", "build_game", "harness.build_game"),
    ("stackelearn.harness", "build_game", "harness.build_game"),
    ("stackelearn.harness", "complete_information_reference", "harness.reference"),
    ("stackelearn.cli", "compare_summary", "harness.summary"),
    ("stackelearn.cli", "emit_trace_csv", "harness.emit"),
    ("stackelearn.cli", "emit_summary_csv", "harness.emit"),
    ("stackelearn.cli", "emit_sweep_csv", "harness.emit"),
    ("stackelearn.cli", "emit_dynamics_csv", "harness.emit"),
    ("stackelearn.cli", "stackelberg_oracle", "game.oracle"),
    ("stackelearn.harness", "stackelberg_oracle", "game.oracle"),
    ("stackelearn.learning", "utility_tensor", "game.tensor"),
    ("stackelearn.learning", "sinr_tensor", "game.tensor"),
    ("stackelearn.dynamics", "utility_tensor", "game.tensor"),
    ("stackelearn.learning", "StackelbergLearning.__init__", "learning.engine_init"),
    ("stackelearn.learning", "StackelbergLearning.step", "learning.step"),
    ("stackelearn.cli", "integrate_dynamics", "dynamics.integrate"),
    ("stackelearn.cli", "normalized_utility_tensors", "dynamics.normalize"),
    ("stackelearn.dynamics", "normalized_utility_tensors", "dynamics.normalize"),
    ("stackelearn.dynamics", "strategy_derivative", "dynamics.field"),
)

# (module, attribute path, count name): call counts without a span, for
# functions too small or too frequent to time.
COUNTS = (
    ("stackelearn.game", "sinr", "game.scalar_sinr"),
    ("stackelearn.harness", "sinr", "game.scalar_sinr"),
    ("stackelearn.learning", "StackelbergLearning.run", "learning.run"),
)

ALGORITHMS = ("rla1", "rla2", "noncoop")


def _tensor_key(args, kwargs):
    game = args[0] if args else kwargs["game"]
    user = args[1] if len(args) > 1 else kwargs["i"]
    return (game.gains.tobytes(), game.users, game.bandwidth_hz, game.noise_power_w, user)


class Tracer:
    """Wraps the bindings in SPANS and COUNTS; ``uninstall`` puts them back."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.tensor_cells = 0
        self.tensor_keys = set()
        self.records = 0
        self.installed = set()
        self._stack = [[0.0]]
        self._undo = []

    def install(self) -> "Tracer":
        for module, path, name in SPANS:
            self._wrap(module, path, name, self._span)
        for module, path, name in COUNTS:
            self._wrap(module, path, name, self._count)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, module_name, path, name, make) -> None:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return
        setattr(owner, attr, make(name, fn))
        self._undo.append((owner, attr, fn))
        self.installed.add(name)

    def _span(self, name, fn):
        seconds, calls, stack = self.seconds, self.calls, self._stack
        perf_counter = time.perf_counter
        per_algorithm = name == "learning.step"
        after = None
        if name == "game.tensor":
            after = functools.partial(self._after_tensor, fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = name
                if per_algorithm:
                    key = f"{name}.{getattr(args[0], 'algorithm', 'other')}"
                seconds[key] += elapsed
                calls[key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls
        after = self._after_run if name == "learning.run" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_tensor(self, kind, args, kwargs, result) -> None:
        self.tensor_cells += int(getattr(result, "size", 0))
        try:
            self.tensor_keys.add((kind, _tensor_key(args, kwargs)))
        except (AttributeError, IndexError, KeyError, TypeError):
            pass  # a changed signature loses the reuse ratio, not the run

    def _after_run(self, result) -> None:
        self.records += len(result)

    def command(self, fn):
        """Run ``fn()`` as a root span; returns (result, seconds covered by
        its direct child spans)."""
        frame = [0.0]
        self._stack.append(frame)
        try:
            result = fn()
        finally:
            self._stack.pop()
        return result, frame[0]

    def raw(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "tensor_cells": self.tensor_cells,
            "tensor_distinct": len(self.tensor_keys),
            "records": self.records,
            "installed": sorted(self.installed),
        }


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics from one traced repeat's ``Tracer.raw()``.

    Metrics whose bindings were all missing are left out.
    """
    seconds, calls, installed = raw["seconds"], raw["calls"], set(raw["installed"])
    out: dict[str, float] = {}

    def span(name):
        if name in installed:
            out[f"{name}_s"] = seconds.get(name, 0.0)

    if "game.tensor" in installed:
        builds = calls.get("game.tensor", 0)
        out["game.tensor_s"] = seconds.get("game.tensor", 0.0)
        out["game.tensor_builds"] = builds
        out["game.tensor_cells"] = raw["tensor_cells"]
        out["game.tensor_reuse_ratio"] = raw["tensor_distinct"] / builds if builds else 0.0
    if "game.scalar_sinr" in installed:
        out["game.scalar_sinr_calls"] = calls.get("game.scalar_sinr", 0)
    if "game.oracle" in installed:
        span("game.oracle")
        out["game.oracle_calls"] = calls.get("game.oracle", 0)

    if "learning.step" in installed:
        steps = 0
        step_seconds = 0.0
        for algo in ALGORITHMS:
            n = calls.get(f"learning.step.{algo}", 0)
            s = seconds.get(f"learning.step.{algo}", 0.0)
            out[f"learning.step_us.{algo}"] = s / n * 1e6 if n else 0.0
            steps += n
            step_seconds += s
        out["learning.steps"] = steps
        out["learning.step_s"] = step_seconds
        if "learning.run" in installed:
            out["learning.records_kept_ratio"] = raw["records"] / steps if steps else 0.0
    if "learning.engine_init" in installed:
        out["learning.engines"] = calls.get("learning.engine_init", 0)
        span("learning.engine_init")

    if "dynamics.field" in installed:
        evals = calls.get("dynamics.field", 0)
        out["dynamics.field_evals"] = evals
        out["dynamics.field_us"] = seconds.get("dynamics.field", 0.0) / evals * 1e6 if evals else 0.0
    span("dynamics.integrate")
    span("dynamics.normalize")

    span("harness.build_game")
    if "harness.build_game" in installed:
        out["harness.build_game_calls"] = calls.get("harness.build_game", 0)
    span("harness.reference")
    span("harness.summary")
    span("harness.emit")
    span("channel.topology")
    span("channel.gain")
    span("config.load")
    return out
