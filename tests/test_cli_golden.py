"""CLI output pinned byte for byte against fixtures in tests/golden/.

Each fixture holds the exit code, stdout and stderr of one command on one
spec, with the spec's path replaced by SPEC.  A new case gets its fixture
from

    PYTHONPATH=src python tests/test_cli_golden.py [DIRECTORY]

which writes only the missing fixtures, into tests/golden/ by default.  It
never overwrites one: it names each existing fixture whose output differs,
leaves it as it is, and exits 1.  An existing fixture never gets a new value
without someone naming it and changing it by hand.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
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

# the Hamiltonian form, T = G0(E) V: a diamond of four levels whose four
# potential couplings include one with integer parts, at a complex energy
SPECS["hamiltonian-diamond"] = json.dumps({
    "dimension": 4,
    "free_hamiltonian": [0.0, 1.0, 1.5, 2.5],
    "potential_entries": [
        {"from": 1, "to": 2, "re": 0.25, "im": 0.0},
        {"from": 1, "to": 3, "re": -0.5, "im": 0.125},
        {"from": 2, "to": 4, "re": 2, "im": -1},
        {"from": 3, "to": 4, "re": 0.75, "im": -0.25},
    ],
    "energy": {"re": 3.0, "im": 0.5},
})
CASES += [("hamiltonian-diamond", command)
          for command in ("analyze", "solve", "solve-order1", "classify")]


def run_case(directory: Path, spec: str, command: str) -> dict:
    path = directory / "system.spec"
    path.write_text(SPECS[spec], encoding="utf-8")
    code, out, err = run_cli([str(path) if a == SPEC else a for a in COMMANDS[command]])
    return {
        "exit_code": code,
        "stdout": out.replace(str(path), SPEC),
        "stderr": err.replace(str(path), SPEC),
    }


def fixture_path(spec: str, command: str, golden: Path = GOLDEN) -> Path:
    return golden / f"{spec}.{command}.json"


@pytest.mark.parametrize("spec, command", CASES, ids=[f"{s}.{c}" for s, c in CASES])
def test_output_matches_golden(tmp_path, spec, command):
    expected = json.loads(fixture_path(spec, command).read_text(encoding="utf-8"))
    assert run_case(tmp_path, spec, command) == expected


def add_missing_fixtures(golden: Path) -> list[str]:
    """Write each case's missing fixture into golden; the existing ones whose output differs."""
    golden.mkdir(exist_ok=True)
    differing = []
    with tempfile.TemporaryDirectory() as tmp:
        for spec, command in CASES:
            case = run_case(Path(tmp), spec, command)
            path = fixture_path(spec, command, golden)
            if not path.exists():
                path.write_text(json.dumps(case, indent=1) + "\n", encoding="utf-8")
            elif json.loads(path.read_text(encoding="utf-8")) != case:
                differing.append(path.name)
    return differing


def test_regeneration_writes_only_missing_fixtures(tmp_path):
    stale = fixture_path("diamond", "analyze", tmp_path)
    stale.write_text('{"exit_code": 0, "stdout": "", "stderr": ""}\n', encoding="utf-8")
    before = stale.read_bytes()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = [sys.executable, __file__, str(tmp_path)]
    run = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr == f"{stale.name}: output differs; fixture left as it is\n"
    assert stale.read_bytes() == before
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(fixture_path(s, c).name for s, c in CASES)
    stale.unlink()
    run = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    for spec, command in CASES:  # byte for byte as committed
        assert (fixture_path(spec, command, tmp_path).read_bytes()
                == fixture_path(spec, command).read_bytes())


if __name__ == "__main__":
    differing = add_missing_fixtures(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
    for name in differing:
        print(f"{name}: output differs; fixture left as it is", file=sys.stderr)
    sys.exit(1 if differing else 0)
