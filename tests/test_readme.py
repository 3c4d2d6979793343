"""The README's Python blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    engine_snippet, library_example = blocks
    # the engine snippet reads ``cfg`` and ``prepared`` from the library example
    namespace = {}
    exec(library_example, namespace)
    exec(engine_snippet, namespace)
    assert len(namespace["runs"]) == 3
    assert namespace["eu"].shape[1] == namespace["prepared"].game.num_users
