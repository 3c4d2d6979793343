"""Output checks of one repeat, and the reference they compare against.

Each CLI command's outputs are checked on the first repeat of a run; every
later repeat must reproduce the first one's outputs byte for byte (sha256),
which carries the checks over.  CSV columns are read by header name, so an
added column does not fail a check.  A check returns a list of problems; an
empty list means the command passed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import re

import numpy as np

SIMPLEX_TOL = 1e-9
_ROLE = re.compile(r"^(MU|FU\d+): action (\d+)\b", re.MULTILINE)


def brute_force_se(game) -> tuple[int, ...]:
    """Stackelberg profile by enumeration of the scalar ``game.utility``.

    Same conventions as the package's oracle: per leader action, the pure
    follower NE best for the leader (ties to the lowest follower indices),
    else the best profile visited by iterated best response from all-min;
    the first leader action with the highest leader utility wins.
    """
    from stackelearn.game import utility

    dims = game.action_dims
    n = len(dims)
    u = np.empty((n,) + dims)
    for idx in itertools.product(*(range(m) for m in dims)):
        powers = game.powers_from_indices(idx)
        for i in range(n):
            u[(i,) + idx] = utility(i, powers, game)

    best = None
    for p0 in range(dims[0]):
        sub = u[:, p0]
        stable = np.ones(dims[1:], dtype=bool)
        for i in range(1, n):
            stable &= sub[i] == sub[i].max(axis=i - 1, keepdims=True)
        nes = [tuple(int(a) for a in f) for f in np.argwhere(stable)]
        if nes:
            response = max(nes, key=lambda f: (sub[0][f], tuple(-a for a in f)))
        else:
            response = _iterated_best_response(u, p0)
        u0 = sub[0][response]
        if best is None or u0 > best[0]:
            best = (u0, p0, response)
    return (best[1],) + best[2]


def _iterated_best_response(u: np.ndarray, p0: int, max_sweeps: int = 1000) -> tuple[int, ...]:
    n = u.shape[0]
    followers = [0] * (n - 1)
    seen = {tuple(followers)}
    visited = [tuple(followers)]
    for _ in range(max_sweeps):
        for i in range(1, n):
            profile = [p0] + followers
            line = u[i][tuple(profile[:i]) + (slice(None),) + tuple(profile[i + 1 :])]
            followers[i - 1] = int(np.argmax(line))
        key = tuple(followers)
        if key in seen:
            break
        seen.add(key)
        visited.append(key)
    return max(visited, key=lambda f: u[0][(p0,) + f])


def oracle_roles(profile, user_ids) -> dict[str, int]:
    """Expected oracle printout: role name -> action index."""
    return {("MU" if uid == 0 else f"FU{uid}"): a for uid, a in zip(user_ids, profile)}


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def simplex_problems(path: str) -> list[str]:
    rows = read_csv(path)
    if not rows:
        return [f"{path}: no rows"]
    columns = [c for c in rows[0] if re.fullmatch(r"y_\d+", c)]
    if not columns:
        return [f"{path}: no strategy columns"]
    for n, row in enumerate(rows, start=2):
        probs = [float(row[c]) for c in columns if row[c] not in ("", None)]
        if not probs or min(probs) < 0 or abs(math.fsum(probs) - 1.0) > SIMPLEX_TOL:
            return [f"{path}:{n}: strategy {probs} is not on the simplex"]
    return []


def check_command(command: str, outdir: str, stdout: str, expect: dict) -> tuple[list[str], dict]:
    """Problems with one command's outputs, and the game size they show.

    ``expect`` holds ``algorithms``, ``user_ids``, ``oracle`` (role -> action)
    ``levels`` (actions per user), ``game_active`` and ``sweep_active``.
    """
    problems: list[str] = []
    levels = expect["levels"]
    if command == "run":
        for algo in expect["algorithms"]:
            problems += simplex_problems(os.path.join(outdir, f"trace_{algo}.csv"))
        rows = read_csv(os.path.join(outdir, "summary.csv"))
        pairs = [(row["algo"], int(row["user"])) for row in rows]
        wanted = [(a, u) for a in list(expect["algorithms"]) + ["oracle"] for u in expect["user_ids"]]
        if sorted(pairs) != sorted(wanted):
            problems.append(f"summary.csv: (algo, user) rows {sorted(pairs)} != {sorted(wanted)}")
        active = len({u for _, u in pairs}) - 1
    elif command == "sweep":
        rows = read_csv(os.path.join(outdir, "sweep_gamma0.csv"))
        for row in rows:
            value = float(row["expected_sinr_lin"])
            if not (math.isfinite(value) and value >= 0):
                problems.append(f"sweep_gamma0.csv: SINR {row['expected_sinr_lin']} at {row}")
                break
        per_point: dict[tuple[str, str], int] = {}
        for row in rows:
            key = (row["gamma0_db"], row["algo"])
            per_point[key] = per_point.get(key, 0) + int(row["active"])
        first_algo = rows[0]["algo"] if rows else None
        active = tuple(v for (_, algo), v in per_point.items() if algo == first_algo)
    elif command == "dynamics":
        path = os.path.join(outdir, "dynamics.csv")
        problems += simplex_problems(path)
        active = len({row["user"] for row in read_csv(path)}) - 1
    elif command == "oracle":
        got = {m.group(1): int(m.group(2)) for m in _ROLE.finditer(stdout)}
        if got != expect["oracle"]:
            problems.append(f"oracle profile {got} != brute-force SE {expect['oracle']}")
        active = len(got) - 1
    else:
        raise ValueError(f"no check for command {command!r}")

    want = expect["sweep_active"] if command == "sweep" else expect["game_active"]
    if active != want:
        problems.append(f"{command}: game has {active} active femtocells, the workload needs {want}")
    if command == "sweep":
        size = {"active_femtocells": list(active), "joint_profiles": sum(levels ** (k + 1) for k in active)}
    else:
        size = {"active_femtocells": active, "joint_profiles": levels ** (active + 1)}
    return problems, size


def output_digests(outdir: str, files, stdout: str) -> dict[str, str]:
    """sha256 of a command's output files and of its standard output."""
    digests = {name: sha256(os.path.join(outdir, name)) for name in files}
    digests["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return digests
