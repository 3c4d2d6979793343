"""Golden outputs: every CSV and stdout of the four CLI commands, by sha256.

The commands run on the default config with 300 learning steps: ``run``,
``sweep`` over two leader targets with one replicate, ``sweep`` over seven
leader targets with two replicates, ``dynamics`` for 200 steps and
``oracle``.  ``run``, ``oracle`` and ``dynamics`` (200 steps) also run on
a 6-user game: 5 femtocells, 5 power levels, a -20 dB leader target.
``dynamics`` also runs on a leader-only game (every femtocell silenced) and
on a 2-user game (one femtocell).  ``run-fulltrace`` logs every one of
1,500 steps (4,500 trace rows per scheme) and ``dynamics-long`` integrates
1,500 steps (4,503 rows), so each of their CSVs spans more than one of the
CSV writer's row blocks and ends partway through one.  The
digests were recorded with numpy 2.4.6 on CPython 3.11 (x86-64); a refactor
that keeps them keeps every number the package prints.  A different numpy or BLAS build may change last bits, and
with them the digests.

    PYTHONPATH=src python tests/test_golden_outputs.py   # print the digests
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from stackelearn.cli import main as cli_main

COMMANDS = {
    "run": ["run"],
    "sweep": ["sweep", "--from", "0", "--to", "10", "--points", "2", "--replicates", "1"],
    # two points per action-dims group, and three leader-only points
    "sweep-grid": ["sweep", "--from", "0", "--to", "30", "--points", "7", "--replicates", "2"],
    "dynamics": ["dynamics", "--steps", "200"],
    "dynamics-n5m5": ["dynamics", "--steps", "200"],
    "dynamics-leader-only": ["dynamics", "--steps", "200"],
    "dynamics-one": ["dynamics", "--steps", "200"],
    "dynamics-long": ["dynamics", "--steps", "1500"],
    "oracle": ["oracle"],
    "run-n5m5": ["run"],
    "run-fulltrace": ["run"],
    "oracle-n5m5": ["oracle"],
}

# The 6-user game of the benchmark's ``scale-n5m5`` workload.
N5M5 = {
    "network": {"num_femtocells": 5},
    "users": {"action_set_dbm": [14.0, 18.0, 22.0, 26.0, 30.0], "mu_sinr_target_db": -20.0},
}

# Config entries beyond the shared ones, per command.  A 25 dB leader target
# silences every femtocell (n = 1, no contraction); one femtocell at a -20 dB
# target leaves n = 2, a single contraction.
CONFIGS = {
    "dynamics-n5m5": N5M5,
    "dynamics-leader-only": {"users": {"mu_sinr_target_db": 25}},
    "dynamics-one": {"network": {"num_femtocells": 1}, "users": {"mu_sinr_target_db": -20}},
    "run-n5m5": N5M5,
    "run-fulltrace": {"learning": {"num_steps": 1500, "trace_decimation": 1}},
    "oracle-n5m5": N5M5,
}

GOLDEN = {
    "run/stdout": "46793ca8f22e2e79cf263cb7cfbfc3e523564fed06367642b9ce668f7a3e83ab",
    "run/summary.csv": "a8433812c8ff5d17330fabd25671816daa0f18338f6efa7f44c2fa33ae425d8f",
    "run/trace_noncoop.csv": "d50aa5551b9b4d435ebaad4c12ff34bb1cba262848b7326785fe1b5a9d8d9a22",
    "run/trace_rla1.csv": "751eaf5fc42eff05e5d36e952e54393e362279064493cc9812e5b4ffd4b501d8",
    "run/trace_rla2.csv": "29073e93309baa82edca308a66939673c51b14f870806a15bf33eeb1dcf7de90",
    "sweep/stdout": "f92e5304d4065236223bc2a697cf97ac5eef86eb5aa1643266787aae63f3bb1a",
    "sweep/sweep_gamma0.csv": "452ee34db6551d96b550a9faa3e75aa99ae11bd93b09923791845b440c65bbc9",
    "sweep-grid/stdout": "353531b06aa2331d6bfe3e8e858680667775dcd3610b548a9edbb95875b003fd",
    "sweep-grid/sweep_gamma0.csv": "9573cfd2c7efac2d705838d7461be9c4530f8e9a9f2d8d48b3dba5ae1419de1b",
    "dynamics/stdout": "4a47a0e8d216f81059e1d9352e9c3f97e652fde4bc1262adc926fa3b217285a2",
    "dynamics/dynamics.csv": "be07ebdac2a14879b85cee4ffdb8a2855df6f0a0afdc117e9a0acb2447b7d9b2",
    "dynamics-n5m5/stdout": "4a47a0e8d216f81059e1d9352e9c3f97e652fde4bc1262adc926fa3b217285a2",
    "dynamics-n5m5/dynamics.csv": "97f9e37a089ab1bacf2d953af5e313a78fa7950c63a875eb38600e53fdf90a7a",
    "dynamics-leader-only/stdout": "4a47a0e8d216f81059e1d9352e9c3f97e652fde4bc1262adc926fa3b217285a2",
    "dynamics-leader-only/dynamics.csv": "2f00eec6ab93729cbcd381cd1deed98ee53ea949f2aff3d761c0e3170aba8551",
    "dynamics-one/stdout": "4a47a0e8d216f81059e1d9352e9c3f97e652fde4bc1262adc926fa3b217285a2",
    "dynamics-one/dynamics.csv": "d2d62ee9144f3876a35344f8c3f2b2fbb711d426e4f77e9a684d89a5cf3d8c29",
    "dynamics-long/stdout": "a31a28052bde2ecf36e3d78bb1868b97ff9c627ed5e1af8728aeb32515ac764f",
    "dynamics-long/dynamics.csv": "61be277b2022cbc5d54024d3eaf3ba2d2b315edd1f123d58a1a45ed92a3e193d",
    "oracle/stdout": "6be1000e2466312afd45cb73a8397f430e06886149bd451b06ed018b2234de16",
    "run-n5m5/stdout": "9d37daf76eb9bfe78d6656818609a0b6f59b4a3fef5ede8436c3119a9c2b59a8",
    "run-n5m5/summary.csv": "f5cf1e664407b52f0830c72b148c0a551acdc88b5c317e5e7cbd4dbec7f3f8d5",
    "run-n5m5/trace_noncoop.csv": "cf7645090ef9e8a692ac47ea965421cd2ea0e4e52fe538e62d9d58220f95afda",
    "run-n5m5/trace_rla1.csv": "fad8a8892952209346387eea9ab8268e7cc1d5d94c54a135d47034f73a09c0fd",
    "run-n5m5/trace_rla2.csv": "648bd05f8ed29b710a2f9bc25f25d247fe8480d72137b85fa44ca06a738286a7",
    "run-fulltrace/stdout": "72994a1168f275eff4af86265ca8ff0d1524a2d55a3fe91be657952f68fef8d8",
    "run-fulltrace/summary.csv": "c6e85349554c5cb5c6f062bb395fc9f4ce475f31dbddffc360a5a845aecf044b",
    "run-fulltrace/trace_noncoop.csv": "4e4350504c88e8cf567e0b05f4efa41180f7e46de9508b8aeb1693d105cc7f68",
    "run-fulltrace/trace_rla1.csv": "6dbd27be3ab75d51d81217b332600e25deb5ef85af70d36089917de1ad00d1d5",
    "run-fulltrace/trace_rla2.csv": "4dc5398a4e32cd0b70c220424ca37dbf97c7f2b6182acb84fc07bdc19095d8bb",
    "oracle-n5m5/stdout": "22437463ed68ea45eb209cc033543ad36598c9c38dfa0a1f409203d489f5413f",
}


def _digests(workdir: Path) -> dict[str, str]:
    """sha256 of each command's stdout (output directory masked) and CSVs."""
    digests = {}
    for name, argv in COMMANDS.items():
        out = workdir / name
        config = workdir / f"{name}.json"
        raw = {"learning": {"num_steps": 300}, "output": {"directory": str(out)}, **CONFIGS.get(name, {})}
        config.write_text(json.dumps(raw))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(argv + ["--config", str(config)])
        assert code == 0, f"{name} exited {code}"
        stdout = buffer.getvalue().replace(str(out), "OUT")
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        for csv in sorted(out.glob("*.csv")) if out.is_dir() else ():
            digests[f"{name}/{csv.name}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return _digests(tmp_path_factory.mktemp("golden"))


def test_golden_outputs_cover_the_same_files(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("output", sorted(GOLDEN))
def test_golden_output_digest(digests, output):
    assert digests[output] == GOLDEN[output]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in _digests(Path(tmp)).items():
            print(f'    "{key}": "{value}",', file=sys.stderr)
