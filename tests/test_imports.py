"""numpy is loaded only by the oracle kernels, so no product command pays
for importing it."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def run_steps(steps: list[list[str]]) -> list[list]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(tableguess.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(steps)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


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
