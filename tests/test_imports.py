"""numpy is loaded only by the oracle kernels, and each product command
loads only the tableguess modules it uses, so none pays for importing the
rest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tableguess
from tableguess.bundled import MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON, bundled_path

# Runs each command in turn in one fresh interpreter and prints, after
# each, the command, its exit code and whether numpy is loaded.
SCRIPT = """
import json, sys
steps = json.loads(sys.argv[1])
import tableguess
report = [["import", 0, "numpy" in sys.modules]]
from tableguess.cli import main
for argv in steps:
    code = main(argv)
    report.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(report), file=sys.stderr)
"""


def run_script(script: str, arg) -> list:
    """Run ``script`` in a fresh interpreter with ``arg`` as JSON; return
    the JSON it prints last to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(tableguess.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(arg)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def run_steps(steps: list[list[str]]) -> list[list]:
    return run_script(SCRIPT, steps)


def test_product_commands_never_import_numpy():
    season = str(bundled_path(SYNTHETIC_SEASON))
    steps = [
        ["mae", "--pred", str(bundled_path(MERSON_PREDICTION)), "--actual", str(bundled_path(PL_FINAL))],
        ["stats", "--n", "20"],
        ["predict", season, "--strategy", "gd"],
        ["evaluate", season],
        ["r2", season],
    ]
    assert run_steps(steps) == [
        ["import", 0, False],
        ["mae", 0, False],
        ["stats", 0, False],
        ["predict", 0, False],
        ["evaluate", 0, False],
        ["r2", 0, False],
    ]


def test_the_enumeration_oracle_imports_numpy():
    assert run_steps([["verify", "--exact", "3"]]) == [
        ["import", 0, False],
        ["verify", 0, True],
    ]


# Runs one command, or none, in a fresh interpreter after ``import
# tableguess`` and prints its exit code and the modules loaded since start.
LOADED_SCRIPT = """
import json, sys
before = set(sys.modules)
argv = json.loads(sys.argv[1])
import tableguess
code = 0
if argv:
    from tableguess.cli import main
    code = main(argv)
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""

# what every command is spared: numpy, and the cost of generating record code
NEVER = {"numpy", "dataclasses", "inspect"}


def loaded_by(argv: list[str]) -> set[str]:
    code, modules = run_script(LOADED_SCRIPT, argv)
    assert code == 0
    return set(modules)


def test_importing_the_package_loads_no_submodule():
    assert {m for m in loaded_by([]) if m.startswith("tableguess.")} == set()


# Reaches each library module as an attribute of the package, with nothing
# imported but ``tableguess``, and prints the names it found.
MODULES_SCRIPT = """
import json, sys
import tableguess
names = json.loads(sys.argv[1])
print(json.dumps([getattr(tableguess, name).__name__ for name in names]), file=sys.stderr)
"""


def test_the_library_modules_are_attributes_of_the_package():
    names = ["league", "permstats", "predictor", "regression"]
    assert run_script(MODULES_SCRIPT, names) == [f"tableguess.{name}" for name in names]


def test_every_exported_name_resolves():
    # an export left behind by a deletion would fail only when first used
    assert [name for name in tableguess.__all__ if not hasattr(tableguess, name)] == []


SEASON = str(bundled_path(SYNTHETIC_SEASON))

# each product command, and the tableguess modules it has no use for
SPARED = {
    "mae": (
        ["mae", "--pred", str(bundled_path(MERSON_PREDICTION)), "--actual", str(bundled_path(PL_FINAL))],
        {"tableguess.league", "tableguess.predictor", "tableguess.regression"},
    ),
    "stats": (["stats", "--n", "20"], {"tableguess.league", "tableguess.predictor", "tableguess.regression"}),
    "predict": (["predict", SEASON, "--strategy", "gd"], {"tableguess.regression"}),
    "evaluate": (["evaluate", SEASON], {"tableguess.regression"}),
    "r2": (["r2", SEASON], {"tableguess.predictor"}),
}


@pytest.mark.parametrize("command", SPARED)
def test_each_command_loads_only_what_it_uses(command):
    argv, spared = SPARED[command]
    assert loaded_by(argv) & (NEVER | spared) == set()
