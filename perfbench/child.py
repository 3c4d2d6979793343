"""One repeat of a workload, in a fresh process.

    python3 child.py --src SRC --plan PLAN_JSON

Run from the repeat's working directory.  The plan names the config file, the
output directory, the CLI commands (argument lists for ``stackelearn.cli.main``) and whether to
trace.  The child times its set-up (package import, ``load_config`` and the
first ``build_game``), then each command, and prints one JSON line with the
timings, each command's exit code and captured standard output, the peak RSS
and, when traced, the raw span totals.  With no commands it only sets up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer


def _run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a failing command is a result to report, not a crash
            code = None
            error = traceback.format_exc()
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _files(outdir: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(root, name), outdir)
        for root, _, names in os.walk(outdir)
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--plan", required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, args.src)

    start = time.perf_counter()
    import stackelearn
    from stackelearn import cli

    stackelearn.build_game(stackelearn.load_config(plan["config"]))
    setup_s = time.perf_counter() - start

    tracer = Tracer().install() if plan["trace"] else None
    commands = []
    seen: set[str] = set()
    wall_start = time.perf_counter()
    for argv in plan["commands"]:
        t0 = time.perf_counter()
        if tracer is None:
            result, covered = _run_command(cli, argv), 0.0
        else:
            result, covered = tracer.command(lambda: _run_command(cli, argv))
        seconds = time.perf_counter() - t0
        # files that first appear after a command are that command's outputs
        files = _files(plan["outdir"])
        result.update(argv=argv, seconds=seconds, covered_s=covered, files=sorted(files - seen))
        seen |= files
        commands.append(result)
    wall_s = time.perf_counter() - wall_start
    if tracer is not None:
        tracer.uninstall()

    print(
        json.dumps(
            {
                "package_file": stackelearn.__file__,
                "setup_s": setup_s,
                "wall_s": wall_s,
                "commands": commands,
                "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.raw() if tracer is not None else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
