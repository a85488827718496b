"""Pinned outputs: the exit code and stdout of `cohomology`, `steenbrink`,
`cs-check`, `check-all --seed 3`, `hodge-cycle --p 1` and `mw -k 1` on
fixA-fixF and grid_plane(1), and of `chow --degrees all`, `mw -k 1`,
`steenbrink`, `cs-check`, `hodge-cycle --p 1` and `check-all --seed 3` on
the Bergman fans of U(3,5) and B4, and of `check-all --seed 3`, `cohomology`
and `hodge-cycle --p 1` on grid_plane(3) and fixE x fixD x fixD, compared
byte for byte with the files in tests/golden/.

Each golden file holds one line `exit <code>` and then the command's stdout.
Rewrite them only for a change that is meant to change an output:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from conftest import grid_plane, plane_curve
from trophodge.cli import main
from trophodge.fixtures import fix_d, fix_e
from trophodge.matroids import bergman_fan, boolean_matroid, uniform_matroid
from trophodge.polyhedral import complex_to_json, product_complex

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = ["fixA", "fixB", "fixC", "fixD", "fixE", "fixF", "grid1"]
COMMANDS = {"cohomology": [], "steenbrink": [], "cs-check": [], "check-all": ["--seed", "3"],
            "hodge-cycle": ["--p", "1"], "mw": ["-k", "1"]}
# `cohomology` takes seconds on B4, so the fans pin the other commands only.
FANS = ["u35", "b4"]
FAN_COMMANDS = {"chow": ["--degrees", "all"], "mw": ["-k", "1"], "steenbrink": [], "cs-check": [],
                "hodge-cycle": ["--p", "1"], "check-all": ["--seed", "3"]}
# The two larger inputs of the benchmark's check-all workload.
LADDER = ["grid3", "prod"]
LADDER_COMMANDS = {"check-all": ["--seed", "3"], "cohomology": [], "hodge-cycle": ["--p", "1"]}
# A genus-three curve: its diamond is not diagonal, so N maps H^{1,0} onto H^{0,1}.
CURVES = ["curve4"]
CURVE_COMMANDS = {"cohomology": [], "cs-check": [], "check-all": ["--seed", "3"],
                  "hodge-cycle": ["--p", "1"]}
CASES = [(cmd, name) for cmd in COMMANDS for name in INPUTS]
CASES += [(cmd, name) for cmd in FAN_COMMANDS for name in FANS]
CASES += [(cmd, name) for cmd in LADDER_COMMANDS for name in LADDER]
CASES += [(cmd, name) for cmd in CURVE_COMMANDS for name in CURVES]
GENERATED = {"grid1": lambda: grid_plane(1),
             "u35": lambda: bergman_fan(uniform_matroid(5, 3)),
             "b4": lambda: bergman_fan(boolean_matroid(4)),
             "grid3": lambda: grid_plane(3),
             "prod": lambda: product_complex(product_complex(fix_e(), fix_d()), fix_d()),
             "curve4": lambda: plane_curve(4)}


def _output(cmd: str, name: str, tmp_dir: str) -> str:
    arg = name
    if name in GENERATED:
        arg = os.path.join(tmp_dir, f"{name}.json")
        with open(arg, "w", encoding="utf-8") as fh:
            json.dump(complex_to_json(GENERATED[name]()), fh)
    extra = (FAN_COMMANDS if name in FANS else LADDER_COMMANDS if name in LADDER
             else CURVE_COMMANDS if name in CURVES else COMMANDS)[cmd]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([cmd, arg, *extra])
    return f"exit {code}\n{out.getvalue()}"


def _path(cmd: str, name: str) -> str:
    return os.path.join(GOLDEN, f"{cmd}.{name}.txt")


@pytest.mark.parametrize("cmd,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_output_matches_golden(cmd, name, tmp_path):
    with open(_path(cmd, name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert _output(cmd, name, str(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cmd, name in CASES:
            with open(_path(cmd, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(_output(cmd, name, tmp))
