"""The set-up probe's timer sees every module that importing tableguess loads.

``child.py setup`` generates its inputs before the timer starts, so the
modules that generating inputs imports must not be ones tableguess needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SRC = HERE.parent / "src"

NEW_MODULES = """
import json, sys
start = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - start)))
"""


def modules_loaded_by(body: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", NEW_MODULES.format(body=body)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{HERE}"},
    )
    return set(json.loads(proc.stdout))


def test_generating_inputs_loads_nothing_that_tableguess_imports():
    ours = modules_loaded_by(
        "import workloads\n"
        "for name in ('season', 'oracle'):\n"
        "    workloads.WORKLOADS[name](1)"
    )
    theirs = modules_loaded_by("import tableguess.cli")
    assert "tableguess" in theirs
    assert ours & theirs == set()
