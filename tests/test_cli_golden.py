"""CLI output pinned byte for byte against fixtures in tests/golden/.

Each fixture holds the exit code, stdout and stderr of one command on one
spec, with the spec's path replaced by SPEC.  After a change meant to
alter the output, regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

and name every value that changed.
"""

from __future__ import annotations

import json
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from test_cli import TWO_LEVEL_LOOP, run_cli

GOLDEN = Path(__file__).parent / "golden"
SPEC = "SPEC"

COMMANDS = {
    "analyze": ["analyze", SPEC],
    "analyze-table": ["analyze", SPEC, "--table"],
    "solve": ["solve", SPEC, "--phi", "1"],
    "solve-table": ["solve", SPEC, "--phi", "1", "--table"],
    "solve-order1": ["solve", SPEC, "--phi", "1", "--order", "1"],
    "classify": ["classify", SPEC],
}

_BUNDLED = resources.files("bornsolve").joinpath("specs")
SPECS = {
    name: _BUNDLED.joinpath(f"{name}.spec").read_text(encoding="utf-8")
    for name in ("cascade3", "diamond", "double-diamond")
}
SPECS["two-level-loop"] = json.dumps(TWO_LEVEL_LOOP)

CASES = [(spec, command) for spec in SPECS for command in COMMANDS]

# above the bundled specs' size, so the spec loader's column check and
# state vectors of 200 components are pinned too: a seeded cascade of 4
# bands of 50 states, each state feeding 3 states of the next band,
# labels shuffled, every seventh record with integer parts
SPECS["layered200"] = (GOLDEN / "layered200.spec").read_text(encoding="utf-8")
CASES += [("layered200", command) for command in ("analyze", "solve", "solve-order1")]

# the remainder over several strong components: components [1] [2,3] [4]
# [5] [6,7], sources first, with self-loops on 5 and 7
SPECS["cyclic-blocks"] = (GOLDEN / "cyclic-blocks.spec").read_text(encoding="utf-8")
CASES += [("cyclic-blocks", command) for command in ("analyze", "solve-order1")]

# det(I - T) = 1 - 1 = 0: the truncated solve reports the singular I - T
# as the reason its remainder is unavailable, and still exits 0
SPECS["two-level-singular"] = json.dumps({"dimension": 2, "transfer_entries": [
    {"from": 1, "to": 2, "re": 1.0, "im": 0.0},
    {"from": 2, "to": 1, "re": 1.0, "im": 0.0},
]})
CASES += [("two-level-singular", "solve-order1")]


def run_case(directory: Path, spec: str, command: str) -> dict:
    path = directory / "system.spec"
    path.write_text(SPECS[spec], encoding="utf-8")
    code, out, err = run_cli([str(path) if a == SPEC else a for a in COMMANDS[command]])
    return {
        "exit_code": code,
        "stdout": out.replace(str(path), SPEC),
        "stderr": err.replace(str(path), SPEC),
    }


def fixture_path(spec: str, command: str) -> Path:
    return GOLDEN / f"{spec}.{command}.json"


@pytest.mark.parametrize("spec, command", CASES, ids=[f"{s}.{c}" for s, c in CASES])
def test_output_matches_golden(tmp_path, spec, command):
    expected = json.loads(fixture_path(spec, command).read_text(encoding="utf-8"))
    assert run_case(tmp_path, spec, command) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for spec, command in CASES:
            case = run_case(Path(tmp), spec, command)
            fixture_path(spec, command).write_text(
                json.dumps(case, indent=1) + "\n", encoding="utf-8"
            )
